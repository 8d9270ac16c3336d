//! Shard placement and the per-node directory service.
//!
//! [`DirectoryPlacement`] is the pure, cluster-wide map from objects to shards and
//! from shards to replica sets: shard `s` lives on nodes `s % n, (s+1) % n, ...`
//! (`directory_replication` of them).
//!
//! [`PlacementView`] is a node's *evolving* view of who leads each shard. It is
//! **epoch-versioned** rather than failure-monotonic: each shard carries a primary
//! *rank cursor* that advances (cyclically) when the current primary fails and never
//! rewinds, plus a *failover epoch* counter bumped on every failure **and** every
//! re-admission of a replica-set member. A node that recovers is first marked
//! *resyncing* (alive, shipped to, but not a primary candidate); once it announces
//! catch-up it is re-admitted and becomes eligible again — so after a rolling restart
//! the original owners end up leading their shards again, with strictly increasing
//! epochs protecting against deposed primaries' stragglers. Because every node folds
//! the same broadcast failure/recovery/re-admission notices into the same
//! deterministic rules, survivors agree on the current primary without a coordination
//! round; transient disagreement is absorbed by op forwarding.
//!
//! [`DirectoryService`] is the server half living inside each node: the shard
//! replicas this node hosts, op routing (apply as primary / forward elsewhere),
//! sequenced log shipping along each shard's replication chain with acks and origin
//! confirms, chunked state serving for recovering replicas, and epoch-stamped
//! promotion when a primary dies (§3.5).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::config::HopliteConfig;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{DirOp, Message, ShardSnapshot};

use super::replication::{ReplayOutcome, ReplicaRole, ShardReplica};
use super::shard::DirectoryShard;

/// The static map from objects to shards and shards to replica sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryPlacement {
    nodes: Vec<NodeId>,
    num_shards: usize,
    replication: usize,
}

impl DirectoryPlacement {
    /// Build the placement for a cluster. `num_shards` defaults to one shard per node
    /// and `replication` is clamped to the cluster size.
    pub fn new(nodes: Vec<NodeId>, num_shards: Option<usize>, replication: usize) -> Self {
        assert!(!nodes.is_empty(), "placement needs at least one node");
        let num_shards = num_shards.unwrap_or(nodes.len()).max(1);
        let replication = replication.clamp(1, nodes.len());
        DirectoryPlacement { nodes, num_shards, replication }
    }

    /// Build the placement from a node's configuration.
    pub fn from_config(cfg: &HopliteConfig, nodes: &[NodeId]) -> Self {
        DirectoryPlacement::new(nodes.to_vec(), cfg.directory_shards, cfg.directory_replication)
    }

    /// Every node in the cluster, in index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of replicas per shard.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The shard responsible for `object` (same hash the unreplicated seed used, so
    /// the initial primary of an object's shard is `ClusterView::shard_node`).
    pub fn shard_of(&self, object: ObjectId) -> usize {
        let h = u64::from_le_bytes(object.0[..8].try_into().expect("object id width"));
        (h % self.num_shards as u64) as usize
    }

    /// The replica set of a shard, initial-candidate order: the node owning the shard
    /// first, then its successors on the ring.
    pub fn replica_set(&self, shard: usize) -> Vec<NodeId> {
        let n = self.nodes.len();
        (0..self.replication).map(|i| self.nodes[(shard + i) % n]).collect()
    }

    /// Whether `node` hosts a replica of `shard`.
    pub fn hosts(&self, node: NodeId, shard: usize) -> bool {
        self.replica_set(shard).contains(&node)
    }

    /// The shard's primary under a *failure-monotonic* view — the first replica not in
    /// `failed`. Kept for placement reasoning in tests; live routing goes through
    /// [`PlacementView::primary`], which also honours rank cursors and resyncing
    /// members.
    pub fn primary(&self, shard: usize, failed: &HashSet<NodeId>) -> Option<NodeId> {
        self.replica_set(shard).into_iter().find(|n| !failed.contains(n))
    }

    /// The failure-monotonic primary of the shard responsible for `object`.
    pub fn primary_for(&self, object: ObjectId, failed: &HashSet<NodeId>) -> Option<NodeId> {
        self.primary(self.shard_of(object), failed)
    }

    /// Shards for which `node` is a replica.
    pub fn shards_hosted_by(&self, node: NodeId) -> Vec<usize> {
        (0..self.num_shards).filter(|&s| self.hosts(node, s)).collect()
    }
}

/// A node's evolving, epoch-versioned view of shard leadership (see module docs).
#[derive(Clone, Debug)]
pub struct PlacementView {
    placement: DirectoryPlacement,
    failed: HashSet<NodeId>,
    /// Recovered but not yet caught-up nodes: alive (shipped to) but not primary
    /// candidates. Includes this node itself while it resyncs after a restart.
    resyncing: HashSet<NodeId>,
    /// Per-shard primary cursor into the replica set; advances on primary failure,
    /// never rewinds on re-admission (no automatic fail-back).
    rank: Vec<usize>,
    /// Per-shard failover epoch: counts failures and re-admissions of replica-set
    /// members, raised further by epochs observed on the wire. Promotions stamp
    /// themselves with this counter.
    epochs: Vec<u64>,
}

impl PlacementView {
    /// A fresh view over a placement: rank cursors at the shard owners, epochs at 0.
    pub fn new(placement: DirectoryPlacement) -> Self {
        let shards = placement.num_shards();
        PlacementView {
            placement,
            failed: HashSet::new(),
            resyncing: HashSet::new(),
            rank: vec![0; shards],
            epochs: vec![0; shards],
        }
    }

    /// The static placement underneath.
    pub fn placement(&self) -> &DirectoryPlacement {
        &self.placement
    }

    /// Whether `node` is currently a primary candidate.
    fn eligible(&self, node: NodeId) -> bool {
        !self.failed.contains(&node) && !self.resyncing.contains(&node)
    }

    /// Whether `node` should receive log shipments (alive, possibly still resyncing).
    pub fn is_alive(&self, node: NodeId) -> bool {
        !self.failed.contains(&node)
    }

    /// Whether `node` is currently marked as resyncing.
    pub fn is_resyncing(&self, node: NodeId) -> bool {
        self.resyncing.contains(&node)
    }

    /// The current primary of a shard: the first eligible member scanning cyclically
    /// from the rank cursor. `None` when every replica is dead or resyncing.
    pub fn primary(&self, shard: usize) -> Option<NodeId> {
        let members = self.placement.replica_set(shard);
        let r = members.len();
        (0..r).map(|i| members[(self.rank[shard] + i) % r]).find(|&n| self.eligible(n))
    }

    /// The current primary of the shard responsible for `object`.
    pub fn primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.primary(self.placement.shard_of(object))
    }

    /// The shard's current failover epoch.
    pub fn epoch(&self, shard: usize) -> u64 {
        self.epochs[shard]
    }

    /// Fold an epoch observed on the wire (a shipment, ack, or snapshot) into the
    /// counter, so a node that missed events can still promote above them.
    pub fn note_epoch(&mut self, shard: usize, epoch: u64) {
        if let Some(e) = self.epochs.get_mut(shard) {
            *e = (*e).max(epoch);
        }
    }

    /// Adopt an authoritative rank cursor learned from a snapshot.
    pub fn set_rank(&mut self, shard: usize, rank: usize) {
        if self.placement.replication() > 0 {
            self.rank[shard] = rank % self.placement.replication();
        }
    }

    /// This shard's rank cursor.
    pub fn current_rank(&self, shard: usize) -> usize {
        self.rank[shard]
    }

    /// The shard's replication chain: the current primary first,
    /// then every other live replica-set member (resyncing ones included — they are
    /// shipped to) in cyclic order from the primary's position. Every node folds the
    /// same failure/recovery notices into the same rule, so all members compute the
    /// same chain and can find their own successor/predecessor locally. Empty when
    /// every replica is dead or resyncing.
    pub fn chain(&self, shard: usize) -> Vec<NodeId> {
        let Some(primary) = self.primary(shard) else { return Vec::new() };
        let members = self.placement.replica_set(shard);
        let r = members.len();
        let start = members.iter().position(|&n| n == primary).unwrap_or(0);
        let mut chain = vec![primary];
        chain.extend(
            (1..r).map(|i| members[(start + i) % r]).filter(|&n| n != primary && self.is_alive(n)),
        );
        chain
    }

    /// Digest a peer failure. Returns the shards whose primary moved off `peer` onto
    /// a surviving replica (the client's re-drive set).
    pub fn on_peer_failed(&mut self, peer: NodeId) -> Vec<usize> {
        if self.failed.contains(&peer) {
            return Vec::new();
        }
        let affected: Vec<(usize, Option<NodeId>)> = (0..self.placement.num_shards())
            .filter(|&s| self.placement.hosts(peer, s))
            .map(|s| (s, self.primary(s)))
            .collect();
        self.failed.insert(peer);
        self.resyncing.remove(&peer);
        let mut changed = Vec::new();
        for (shard, old) in affected {
            self.epochs[shard] += 1;
            if old != Some(peer) {
                continue;
            }
            // Advance the cursor past the dead primary so a later re-admission does
            // not fail back to it.
            if let Some(new_primary) = self.primary(shard) {
                let members = self.placement.replica_set(shard);
                if let Some(pos) = members.iter().position(|&n| n == new_primary) {
                    self.rank[shard] = pos;
                }
                changed.push(shard);
            }
        }
        changed
    }

    /// Digest a peer recovery notice: the node is alive again but must resync before
    /// it can lead anything. Returns whether this was news.
    pub fn on_peer_recovered(&mut self, peer: NodeId) -> bool {
        if self.failed.remove(&peer) {
            self.resyncing.insert(peer);
            true
        } else {
            false
        }
    }

    /// Digest a catch-up announcement: the node is a full replica again. Bumps the
    /// failover epoch of every shard it hosts (re-admission is a leadership-relevant
    /// event, exactly like a failure). Returns the shards that regained a primary
    /// with this re-admission — a shard whose every other replica died while `peer`
    /// was out goes `None → Some(peer)` here, and clients must re-drive their
    /// unconfirmed intents at it just as they would after a failover.
    pub fn on_peer_readmitted(&mut self, peer: NodeId) -> Vec<usize> {
        if !self.resyncing.contains(&peer) && !self.failed.contains(&peer) {
            return Vec::new();
        }
        let affected: Vec<(usize, Option<NodeId>)> = (0..self.placement.num_shards())
            .filter(|&s| self.placement.hosts(peer, s))
            .map(|s| (s, self.primary(s)))
            .collect();
        self.resyncing.remove(&peer);
        self.failed.remove(&peer);
        let mut regained = Vec::new();
        for (shard, old) in affected {
            self.epochs[shard] += 1;
            if old.is_none() && self.primary(shard).is_some() {
                regained.push(shard);
            }
        }
        regained
    }

    /// Mark this node itself as resyncing after a restart (all shards).
    pub fn begin_self_resync(&mut self, me: NodeId) {
        self.resyncing.insert(me);
    }

    /// This node finished resyncing: make it eligible again and bump the epochs of
    /// its hosted shards (the same bump every peer applies on `DirResynced`).
    pub fn finish_self_resync(&mut self, me: NodeId) {
        let _ = self.on_peer_readmitted(me);
    }
}

/// The directory server half of one node: every shard replica it hosts, plus the
/// routing, replication, resync, and promotion logic around them.
#[derive(Debug)]
pub struct DirectoryService {
    me: NodeId,
    view: PlacementView,
    /// Shard index -> this node's replica of it. `BTreeMap` so iteration order (and
    /// therefore promotion order on failure) is deterministic.
    replicas: BTreeMap<usize, ShardReplica>,
    /// Shards awaiting a snapshot, mapped to the node the request went to (so the
    /// request can be re-targeted if that node dies mid-transfer).
    resync_sources: BTreeMap<usize, NodeId>,
    /// `true` between [`DirectoryService::begin_local_resync`] and the completion
    /// of the last outstanding resync stream.
    local_resync: bool,
    /// Set when the local resync completes; the facade drains it with
    /// [`DirectoryService::take_readmission_announcement`] and broadcasts
    /// `DirResynced`.
    announce_readmission: bool,
    /// Cumulative `DirAck`s this node folded and relayed upstream as a chain middle
    /// member. Drained by the facade into `NodeMetrics::chain_ack_depth`.
    chain_acks_relayed: u64,
    /// Source-side state of chunked resync streams this node is serving, keyed by
    /// `(shard, requester)`: the cursor confirmed by the requester's last request
    /// plus the objects mutated behind it since (re-shipped with the next chunk).
    streams: BTreeMap<(usize, NodeId), ChunkStream>,
    /// `DirSnapshotChunk` frames served (drained into `NodeMetrics`).
    snapshot_chunks_sent: u64,
    /// Bytes of shard state shipped in served chunks (drained into `NodeMetrics`).
    snapshot_bytes: u64,
    /// Resyncs served as op replays instead of state (drained into `NodeMetrics`).
    delta_resyncs: u64,
}

/// Source-side bookkeeping of one chunked resync stream. Entries at or before the
/// requester-confirmed cursor that a later op mutates are tracked here and
/// re-shipped, so the assembled state at the receiver converges to the source's
/// even though the source never pauses op processing. (Failure purges need no
/// tracking: the receiver applies the same deterministic purge to its partial
/// state when the failure notice reaches it.)
#[derive(Debug, Default)]
struct ChunkStream {
    /// Highest object id shipped so far (entries at or before it are "behind" the
    /// stream and must be re-shipped if mutated).
    cursor: Option<ObjectId>,
    dirty: BTreeSet<ObjectId>,
}

impl DirectoryService {
    /// Create the service for node `me`, instantiating a replica for every shard the
    /// placement assigns it.
    pub fn new(me: NodeId, cfg: &HopliteConfig, nodes: &[NodeId]) -> Self {
        let placement = DirectoryPlacement::from_config(cfg, nodes);
        let replicas = placement
            .shards_hosted_by(me)
            .into_iter()
            .map(|shard| {
                let role = if placement.replica_set(shard)[0] == me {
                    ReplicaRole::Primary
                } else {
                    ReplicaRole::Backup
                };
                (shard, ShardReplica::new(DirectoryShard::new(shard, cfg.clone()), role))
            })
            .collect();
        DirectoryService {
            me,
            view: PlacementView::new(placement),
            replicas,
            resync_sources: BTreeMap::new(),
            local_resync: false,
            announce_readmission: false,
            chain_acks_relayed: 0,
            streams: BTreeMap::new(),
            snapshot_chunks_sent: 0,
            snapshot_bytes: 0,
            delta_resyncs: 0,
        }
    }

    /// The static placement in effect.
    pub fn placement(&self) -> &DirectoryPlacement {
        self.view.placement()
    }

    /// The evolving leadership view.
    pub fn view(&self) -> &PlacementView {
        &self.view
    }

    /// The current primary of the shard responsible for `object`, in this node's view.
    pub fn primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.view.primary_for(object)
    }

    /// Whether this node believes it is the primary for `object`'s shard.
    pub fn is_primary_for(&self, object: ObjectId) -> bool {
        self.primary_for(object) == Some(self.me)
    }

    /// This node's replica of `shard`, if it hosts one.
    pub fn replica(&self, shard: usize) -> Option<&ShardReplica> {
        self.replicas.get(&shard)
    }

    /// Known locations of `object` in this node's replica of its shard; `None` when
    /// this node hosts no replica of that shard.
    pub fn locations(&self, object: ObjectId) -> Option<Vec<(NodeId, ObjectStatus)>> {
        self.replicas.get(&self.view.placement().shard_of(object)).map(|r| r.locations(object))
    }

    /// Whether this node is mid-resync after a restart.
    pub fn is_resyncing(&self) -> bool {
        self.local_resync
    }

    /// The backups whose acks gate durability when this node is `shard`'s primary:
    /// just the chain head (its cumulative ack, folded back hop by hop from the
    /// tail, certifies the whole chain). Empty for a lone replica.
    fn tracked_backups(&self, shard: usize) -> Vec<NodeId> {
        self.view.chain(shard).into_iter().skip(1).take(1).collect()
    }

    /// This node's downstream neighbour on the shard's replication chain (`None` at
    /// the tail, or when this node is not on the chain).
    fn chain_successor(&self, shard: usize) -> Option<NodeId> {
        let chain = self.view.chain(shard);
        let pos = chain.iter().position(|&n| n == self.me)?;
        chain.get(pos + 1).copied()
    }

    /// This node's upstream neighbour on the shard's replication chain (`None` at
    /// the primary, or when this node is not on the chain).
    fn chain_predecessor(&self, shard: usize) -> Option<NodeId> {
        let chain = self.view.chain(shard);
        let pos = chain.iter().position(|&n| n == self.me)?;
        pos.checked_sub(1).map(|p| chain[p])
    }

    /// Primary side of a membership change (a chain member died or was
    /// re-admitted): re-anchor the tracked head and re-ship to it what the re-formed
    /// chain may lack ([`ShardReplica::reship_ops`]): the unacked suffix after a
    /// death, so ops in flight through the old chain are not lost, plus the
    /// retained ring of the current epoch after a re-admission, so the rejoined
    /// member also gets ops the chain acked while it was out. A member already
    /// holding an op at this epoch re-acks the duplicate, and one whose prefix ends
    /// at the promotion point takes the first new op as a seamless epoch handover;
    /// a head behind by more than the re-shipped ops sees a sequence gap and
    /// requests a resync instead of acking.
    fn resplice_chain(
        &mut self,
        shard: usize,
        readmission: bool,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let tracked = self.tracked_backups(shard);
        let Some(replica) = self.replicas.get_mut(&shard) else { return };
        if replica.role() != ReplicaRole::Primary {
            return;
        }
        out.extend(replica.set_tracked_backups(&tracked));
        let Some(&head) = tracked.first() else { return };
        let epoch = replica.epoch();
        for (seq, op) in replica.reship_ops(readmission) {
            out.push((head, Message::DirReplicate { shard: shard as u64, epoch, seq, op }));
        }
    }

    /// Drain the count of cumulative acks this node relayed upstream as a chain
    /// member (folded into `NodeMetrics::chain_ack_depth` by the node facade).
    pub fn take_chain_ack_relays(&mut self) -> u64 {
        std::mem::take(&mut self.chain_acks_relayed)
    }

    /// Route one client directory op: apply it if this node is the shard's primary
    /// (emitting replies, log-shipping the op, and later confirming it to its
    /// origin), forward it to the believed primary otherwise. Ops for a shard whose
    /// every replica died are dropped — that metadata is gone.
    pub fn handle_op(&mut self, op: DirOp, out: &mut Vec<(NodeId, Message)>) -> bool {
        let shard = self.view.placement().shard_of(op.object());
        match self.view.primary(shard) {
            Some(primary) if primary == self.me => {
                // Entries already streamed to a mid-resync requester go stale when
                // a later op touches them; mark them for re-shipment.
                let object = op.object();
                for ((s, _), stream) in self.streams.iter_mut() {
                    if *s == shard && stream.cursor.is_some_and(|c| object <= c) {
                        stream.dirty.insert(object);
                    }
                }
                // Only the chain head is shipped to and tracked: it relays the op
                // down the chain and its cumulative ack certifies the whole chain.
                let backups = self.tracked_backups(shard);
                let replica = self.replicas.get_mut(&shard).expect("primary hosts its shard");
                out.extend(replica.set_tracked_backups(&backups));
                let confirm = op
                    .confirm_target()
                    .map(|(to, kind)| (to, Message::DirConfirm { object: op.object(), kind }));
                let seq = replica.apply_primary(&op, confirm, out);
                let epoch = replica.epoch();
                if backups.is_empty() {
                    // A lone replica is trivially durable: confirm immediately.
                    out.extend(replica.take_durable_confirms());
                }
                for backup in backups {
                    out.push((
                        backup,
                        Message::DirReplicate { shard: shard as u64, epoch, seq, op: op.clone() },
                    ));
                }
                true
            }
            Some(primary) => {
                // A client with a staler failure view than ours (or a scheduling race
                // around a promotion) sent the op here; pass it along.
                out.push((primary, op.into_message()));
                false
            }
            None => false,
        }
    }

    /// Replay an op shipped by this node's chain predecessor into its backup
    /// replica. The tail acks an applied op straight back to the shipper; a non-tail
    /// member instead relays the op to its successor and stays silent — the tail's
    /// ack flows back hop by hop through [`DirectoryService::handle_ack`]. A log gap
    /// this replica cannot bridge is answered with a resync request.
    pub fn handle_replicate(
        &mut self,
        shard: usize,
        epoch: u64,
        seq: u64,
        op: &DirOp,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        self.view.note_epoch(shard, epoch);
        let successor = self.chain_successor(shard);
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        match replica.apply_replicated(epoch, seq, op) {
            ReplayOutcome::Acked(acked) => {
                let epoch = replica.epoch();
                if let Some(successor) = successor {
                    // Chain middle: pass the op downstream (duplicates too — a
                    // re-shipped suffix after a re-splice must reach the tail, whose
                    // own duplicate detection re-acks it) and do not ack here; the
                    // cumulative ack comes back from the tail.
                    out.push((
                        successor,
                        Message::DirReplicate { shard: shard as u64, epoch, seq, op: op.clone() },
                    ));
                    return true;
                }
                out.push((from, Message::DirAck { shard: shard as u64, epoch, seq: acked }));
                true
            }
            ReplayOutcome::NeedsResync => {
                // A mid-chain member that fell behind still relays the op downstream
                // at its shipped (epoch, seq): the tail keeps converging while this
                // member catches up, instead of the whole suffix stalling behind one
                // replica's resync. The stalled ack flow (bounded by this member's
                // applied prefix) keeps confirms conservative in the meantime.
                if let Some(successor) = successor {
                    out.push((
                        successor,
                        Message::DirReplicate { shard: shard as u64, epoch, seq, op: op.clone() },
                    ));
                }
                self.request_resync(shard, from, false, out);
                false
            }
            ReplayOutcome::Buffered => {
                if let Some(successor) = successor {
                    out.push((
                        successor,
                        Message::DirReplicate { shard: shard as u64, epoch, seq, op: op.clone() },
                    ));
                }
                false
            }
            ReplayOutcome::Rejected => false,
        }
    }

    /// Fold a backup's cumulative ack into the shard's log, emitting any confirms
    /// that became due. An ack arriving at a *backup* is the
    /// downstream chain's cumulative ack: it is bounded by this member's own applied
    /// prefix (the chain guarantee is "applied by me *and* everyone below me") and
    /// relayed one hop upstream toward the primary.
    pub fn handle_ack(
        &mut self,
        shard: usize,
        from: NodeId,
        epoch: u64,
        seq: u64,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        self.view.note_epoch(shard, epoch);
        let predecessor = self.chain_predecessor(shard);
        let Some(replica) = self.replicas.get_mut(&shard) else { return };
        if replica.role() == ReplicaRole::Primary {
            out.extend(replica.record_ack(from, seq));
        } else if let Some(pred) = predecessor {
            let seq = seq.min(replica.applied_seq());
            let epoch = replica.epoch();
            out.push((pred, Message::DirAck { shard: shard as u64, epoch, seq }));
            self.chain_acks_relayed += 1;
        }
    }

    /// Serve (or forward) a recovering replica's resync request. A request is also
    /// implicit evidence about the requester's liveness: a *restart* request from a
    /// node this view still considers a healthy primary means the failure notice has
    /// not arrived yet — a node asking for its shard's state back cannot lead it —
    /// so the implied failure (and recovery) is folded in first instead of silently
    /// dropping the request and wedging the restarted node. A gap-catch-up request
    /// (`restart == false`) from a live backup leaves the liveness view untouched.
    ///
    /// Serving is **chunked and incremental**: a requester whose gap the retained
    /// log suffix covers gets a [`Message::DirResyncDelta`] op replay; everyone else
    /// gets exactly one bounded [`Message::DirSnapshotChunk`] per request, so chunks
    /// interleave with live op shipments and the source is never paused for
    /// O(objects) time.
    #[allow(clippy::too_many_arguments)] // mirrors the DirSnapshotRequest wire fields
    pub fn handle_snapshot_request(
        &mut self,
        shard: usize,
        requester: NodeId,
        restart: bool,
        after: Option<ObjectId>,
        have_epoch: u64,
        have_seq: u64,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        if restart && self.view.is_alive(requester) && !self.view.is_resyncing(requester) {
            self.on_peer_failed(requester, out);
        }
        self.view.on_peer_recovered(requester);
        if !self.view.placement().hosts(requester, shard) {
            return;
        }
        match self.view.primary(shard) {
            Some(primary) if primary == self.me => {
                self.serve_resync(shard, requester, after, have_epoch, have_seq, out);
            }
            Some(primary) if primary != requester => {
                out.push((
                    primary,
                    Message::DirSnapshotRequest {
                        shard: shard as u64,
                        requester,
                        restart,
                        after,
                        have_epoch,
                        have_seq,
                        digest: Vec::new(),
                    },
                ));
            }
            _ => {}
        }
    }

    /// Serve one resync round as the shard's primary: a delta replay when the
    /// requester's gap is bridgeable, one bounded state chunk otherwise.
    fn serve_resync(
        &mut self,
        shard: usize,
        requester: NodeId,
        after: Option<ObjectId>,
        have_epoch: u64,
        have_seq: u64,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let rank = self.view.current_rank(shard) as u64;
        let key = (shard, requester);
        let replica = self.replicas.get(&shard).expect("primary hosts its shard");
        let budget = replica.shard().config().snapshot_chunk_bytes.max(1);
        let epoch = replica.epoch();
        let seq = replica.applied_seq();

        // Delta path: a stream-opening request whose prefix the retained suffix
        // covers replays ops instead of shipping state. (Replayed history can
        // transiently resurrect a location registered by a node that has since
        // failed; the receiver re-applies the purges for currently-dead peers on
        // completion, and any residual staleness heals through the pull-timeout
        // failover path like every other stale directory hint.)
        if after.is_none() && replica.delta_covers(have_epoch, have_seq) {
            self.streams.remove(&key);
            let all = replica.delta_ops(have_seq);
            let total = all.len();
            // One budget-bounded frame per request — the receiver pulls the next
            // frame with an updated `have_seq`, so reordering cannot complete a
            // stream with holes and a long suffix never becomes an O(gap) burst.
            let mut ops: Vec<(u64, DirOp)> = Vec::new();
            let mut used = 0u64;
            for (op_seq, op) in all {
                let sz = Message::DirResyncDelta {
                    shard: 0,
                    epoch: 0,
                    ops: vec![(op_seq, op.clone())],
                    done: false,
                }
                .wire_size();
                if !ops.is_empty() && used + sz > budget {
                    break;
                }
                used += sz;
                ops.push((op_seq, op));
            }
            let done = ops.len() == total;
            if done {
                self.delta_resyncs += 1;
            }
            out.push((
                requester,
                Message::DirResyncDelta { shard: shard as u64, epoch, ops, done },
            ));
            return;
        }

        // Chunk path: serve exactly one bounded chunk per request. Entries mutated
        // behind the requester's cursor since they were shipped are flushed first
        // (in their own chunks when they do not fit); fresh range entries advance
        // the cursor; `done` only once the range is exhausted and no dirty backlog
        // remains.
        if after.is_none() {
            // A fresh stream (or a from-scratch restart of one): forget any
            // previous progress for this requester.
            self.streams.insert(key, ChunkStream::default());
        }
        let stream = self.streams.entry(key).or_default();
        stream.cursor = match (stream.cursor, after) {
            (Some(c), Some(a)) => Some(c.max(a)),
            (c, a) => c.or(a),
        };
        let dirty_backlog = std::mem::take(&mut stream.dirty);
        let replica = self.replicas.get(&shard).expect("primary hosts its shard");
        let (entries, done) = if dirty_backlog.is_empty() {
            replica.shard().snapshot_range(after, budget)
        } else {
            let mut kept = Vec::new();
            let mut used = 0u64;
            for entry in replica.shard().snapshot_entries_for(dirty_backlog.iter().copied()) {
                let sz = entry.wire_size();
                if kept.is_empty() || used + sz <= budget {
                    used += sz;
                    kept.push(entry);
                }
            }
            (kept, false)
        };
        let stream = self.streams.entry(key).or_default();
        if !dirty_backlog.is_empty() {
            stream.dirty.extend(
                dirty_backlog.into_iter().filter(|o| !entries.iter().any(|e| e.object == *o)),
            );
        }
        if let Some(last) = entries.last() {
            stream.cursor = Some(stream.cursor.map_or(last.object, |c| c.max(last.object)));
        }
        if done {
            self.streams.remove(&key);
        }
        let state = ShardSnapshot { entries };
        self.snapshot_chunks_sent += 1;
        self.snapshot_bytes += state.wire_size();
        out.push((
            requester,
            Message::DirSnapshotChunk { shard: shard as u64, epoch, seq, rank, done, state },
        ));
    }

    /// Install one chunk of a resync stream into this node's replica of `shard`,
    /// then either request the next chunk from the server's cursor or — on the
    /// final chunk — adopt the source's rank cursor, ack, and complete the resync.
    /// Returns `true` when the stream completed here. When the completion finishes
    /// the node's local resync, a re-admission announcement becomes pending — the
    /// caller checks [`DirectoryService::take_readmission_announcement`] after this
    /// (and after [`DirectoryService::on_peer_failed`], which can also complete a
    /// resync by abandoning a sourceless shard). Chunks for a shard with no
    /// outstanding resync (a completed or re-targeted stream) and chunks from a
    /// source this view considers dead are dropped: they are stragglers of an
    /// abandoned stream.
    #[allow(clippy::too_many_arguments)] // mirrors the DirSnapshotChunk wire fields
    pub fn handle_snapshot_chunk(
        &mut self,
        shard: usize,
        epoch: u64,
        seq: u64,
        rank: usize,
        done: bool,
        state: &ShardSnapshot,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        self.view.note_epoch(shard, epoch);
        if !self.resync_sources.contains_key(&shard) || !self.view.is_alive(from) {
            return false;
        }
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        match replica.install_chunk(epoch, seq, &state.entries, done) {
            None => false,
            Some(None) => {
                // Mid-stream: the chunk may have been served by a different node
                // than the request went to (a forwarded request); track the actual
                // server so a source death re-targets correctly, and pull the next
                // chunk from the installed cursor.
                self.resync_sources.insert(shard, from);
                out.push((
                    from,
                    Message::DirSnapshotRequest {
                        shard: shard as u64,
                        requester: self.me,
                        restart: false,
                        after: replica.resync_cursor(),
                        have_epoch: replica.epoch(),
                        have_seq: replica.applied_seq(),
                        digest: Vec::new(),
                    },
                ));
                false
            }
            Some(Some(acked)) => {
                self.view.set_rank(shard, rank);
                self.resync_sources.remove(&shard);
                out.push((from, Message::DirAck { shard: shard as u64, epoch, seq: acked }));
                self.maybe_complete_local_resync();
                true
            }
        }
    }

    /// Replay one frame of a delta resync into this node's replica of `shard`.
    /// Returns `true` when the final frame completed the resync (acked like the
    /// final chunk of a state stream). Frames for a shard with no outstanding
    /// resync, or from a dead source, are dropped.
    pub fn handle_resync_delta(
        &mut self,
        shard: usize,
        epoch: u64,
        ops: &[(u64, DirOp)],
        done: bool,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        self.view.note_epoch(shard, epoch);
        if !self.resync_sources.contains_key(&shard) || !self.view.is_alive(from) {
            return false;
        }
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        let stale = epoch < replica.epoch();
        let Some(acked) = replica.apply_delta(epoch, ops, done) else {
            if !done && !stale {
                // Mid-stream frame applied: pull the next one from the advanced
                // prefix (one frame in flight at a time, like the chunk stream).
                self.resync_sources.insert(shard, from);
                out.push((
                    from,
                    Message::DirSnapshotRequest {
                        shard: shard as u64,
                        requester: self.me,
                        restart: false,
                        after: None,
                        have_epoch: replica.epoch(),
                        have_seq: replica.applied_seq(),
                        digest: Vec::new(),
                    },
                ));
            }
            return false;
        };
        // Replayed history may re-register locations held by peers that died (or
        // restarted and are still resyncing) inside the replay window; re-apply
        // their purges, as the source did when it observed the failures.
        for &peer in self.view.placement().nodes() {
            if !self.view.is_alive(peer) || self.view.is_resyncing(peer) {
                replica.node_failed(peer);
            }
        }
        self.resync_sources.remove(&shard);
        out.push((from, Message::DirAck { shard: shard as u64, epoch, seq: acked }));
        self.maybe_complete_local_resync();
        true
    }

    /// If the last outstanding snapshot was just installed or abandoned, finish the
    /// local resync: become eligible again, promote wherever this node is now the
    /// shard's leader, and queue the cluster-wide `DirResynced` announcement.
    fn maybe_complete_local_resync(&mut self) {
        if !self.local_resync || !self.resync_sources.is_empty() {
            return;
        }
        self.local_resync = false;
        self.view.finish_self_resync(self.me);
        self.promote_where_leader();
        self.announce_readmission = true;
    }

    /// Promote any hosted Backup replica for a shard this node's view says it now
    /// leads (e.g. the interim primary died while this node was still resyncing, so
    /// eligibility only returned with the resync's completion). A replica still
    /// waiting on a snapshot with no possible source is adopted as-is first.
    fn promote_where_leader(&mut self) {
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            if self.view.primary(shard) != Some(self.me) {
                continue;
            }
            let backups = self.tracked_backups(shard);
            let epoch = self.view.epoch(shard);
            let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
            if replica.role() == ReplicaRole::Backup {
                if replica.is_resyncing() {
                    replica.abort_resync();
                }
                replica.promote_to(epoch);
                replica.set_tracked_backups(&backups);
            }
        }
    }

    /// Take the pending `DirResynced` announcement, if the local resync just
    /// completed. The facade broadcasts it to every peer exactly once.
    pub fn take_readmission_announcement(&mut self) -> bool {
        std::mem::take(&mut self.announce_readmission)
    }

    /// Digest a peer failure: update the leadership view, purge the dead node from
    /// every hosted replica, release confirms its pending ack was gating, promote
    /// this node's replicas wherever it just became the shard's leader, and
    /// re-target any in-flight resync that was sourced from the dead node. Returns
    /// the shards promoted here (for tracing and metrics).
    pub fn on_peer_failed(&mut self, peer: NodeId, out: &mut Vec<(NodeId, Message)>) -> Vec<usize> {
        self.view.on_peer_failed(peer);
        // Chunk streams this node was serving to the dead peer are abandoned.
        self.streams.retain(|(_, requester), _| *requester != peer);
        let mut promoted = Vec::new();
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            let chain_member_died = self.view.placement().hosts(peer, shard);
            let backups = self.tracked_backups(shard);
            let role = {
                let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
                replica.node_failed(peer);
                replica.role()
            };
            if role == ReplicaRole::Primary {
                // The dead node no longer gates durability. If it was on this
                // shard's chain, re-anchor the tracked head and re-ship the unacked
                // suffix so ops that were in flight through it are not lost.
                if chain_member_died {
                    self.resplice_chain(shard, false, out);
                } else {
                    let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
                    out.extend(replica.set_tracked_backups(&backups));
                }
            } else if self.view.primary(shard) == Some(self.me) {
                let epoch = self.view.epoch(shard);
                let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
                replica.promote_to(epoch);
                replica.set_tracked_backups(&backups);
                promoted.push(shard);
            } else if chain_member_died {
                // Surviving chain member below the primary: the dead peer may have
                // been our downstream (whose acks will never arrive) or our upstream
                // (who relayed for us). Re-anchor the ack flow immediately by
                // sending our applied prefix as a cumulative ack to whoever is our
                // predecessor on the re-formed chain.
                if let Some(pred) = self.chain_predecessor(shard) {
                    let replica = self.replicas.get(&shard).expect("iterating hosted shards");
                    if replica.role() == ReplicaRole::Backup && !replica.is_resyncing() {
                        out.push((
                            pred,
                            Message::DirAck {
                                shard: shard as u64,
                                epoch: replica.epoch(),
                                seq: replica.applied_seq(),
                            },
                        ));
                    }
                }
            }
        }
        // Re-target interrupted resyncs whose source died.
        let stranded: Vec<usize> =
            self.resync_sources.iter().filter(|(_, &src)| src == peer).map(|(&s, _)| s).collect();
        for shard in stranded {
            self.resync_sources.remove(&shard);
            match self.view.primary(shard) {
                Some(primary) if primary != self.me => {
                    let restart = self.local_resync;
                    self.request_resync(shard, primary, restart, out);
                }
                _ => {
                    // No surviving source: the shard's metadata is lost. Stop waiting
                    // so the node can still finish its overall resync.
                    if let Some(replica) = self.replicas.get_mut(&shard) {
                        replica.abort_resync();
                    }
                }
            }
        }
        // Every outstanding snapshot may now be installed or abandoned; if so, finish
        // the local resync (which also promotes wherever this node became leader and
        // queues the re-admission announcement).
        self.maybe_complete_local_resync();
        promoted
    }

    /// Digest a peer recovery notice (alive again, resyncing).
    pub fn on_peer_recovered(&mut self, peer: NodeId) {
        self.view.on_peer_recovered(peer);
    }

    /// Digest a peer's catch-up announcement (full replica again). The re-admitted
    /// member splices back into every chain it belongs to: a primary re-anchors its
    /// tracked head and re-ships this epoch's retained log, and a downstream member
    /// re-anchors the ack flow at its (possibly new) predecessor — `out` carries
    /// the resulting shipments and acks.
    pub fn on_peer_readmitted(&mut self, peer: NodeId, out: &mut Vec<(NodeId, Message)>) {
        self.view.on_peer_readmitted(peer);
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            if !self.view.placement().hosts(peer, shard) {
                continue;
            }
            let role = self.replicas.get(&shard).expect("iterating hosted shards").role();
            if role == ReplicaRole::Primary {
                self.resplice_chain(shard, true, out);
            } else if let Some(pred) = self.chain_predecessor(shard) {
                let replica = self.replicas.get(&shard).expect("iterating hosted shards");
                if !replica.is_resyncing() {
                    out.push((
                        pred,
                        Message::DirAck {
                            shard: shard as u64,
                            epoch: replica.epoch(),
                            seq: replica.applied_seq(),
                        },
                    ));
                }
            }
        }
    }

    /// Start recovery after a restart: demote every hosted replica, mark this node
    /// resyncing, and request a snapshot of each hosted shard from another replica.
    /// Returns `false` when there is nothing to resync from (single-replica shards
    /// only), in which case the node proceeds as a cold-started primary.
    pub fn begin_local_resync(&mut self, out: &mut Vec<(NodeId, Message)>) -> bool {
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        let mut any = false;
        for shard in shards {
            let source =
                self.view.placement().replica_set(shard).into_iter().find(|&n| n != self.me);
            let Some(source) = source else { continue };
            any = true;
            self.request_resync(shard, source, true, out);
        }
        if any {
            self.local_resync = true;
            self.view.begin_self_resync(self.me);
        }
        any
    }

    fn request_resync(
        &mut self,
        shard: usize,
        source: NodeId,
        restart: bool,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let (after, have_epoch, have_seq) = match self.replicas.get_mut(&shard) {
            Some(replica) => {
                replica.begin_resync();
                // A mid-flight chunk stream resumes from its cursor at the (new)
                // source instead of restarting from scratch.
                (replica.resync_cursor(), replica.epoch(), replica.applied_seq())
            }
            None => (None, 0, 0),
        };
        self.resync_sources.insert(shard, source);
        out.push((
            source,
            Message::DirSnapshotRequest {
                shard: shard as u64,
                requester: self.me,
                restart,
                after,
                have_epoch,
                have_seq,
                digest: Vec::new(),
            },
        ));
    }

    /// Drain the resync-source counters `(chunks_sent, chunk_bytes, delta_resyncs)`
    /// (folded into `NodeMetrics` by the node facade).
    pub fn take_resync_counters(&mut self) -> (u64, u64, u64) {
        (
            std::mem::take(&mut self.snapshot_chunks_sent),
            std::mem::take(&mut self.snapshot_bytes),
            std::mem::take(&mut self.delta_resyncs),
        )
    }

    /// Drain the inline-eviction count across every hosted replica.
    pub fn take_inline_evictions(&mut self) -> u64 {
        self.replicas.values_mut().map(|r| r.take_inline_evictions()).sum()
    }

    /// Whether any hosted replica's lease wheel might hold candidates (drives the
    /// facade's lazy re-arming of the expiry timer; may over-approximate).
    pub fn has_lease_candidates(&self) -> bool {
        self.replicas.values().any(|r| r.has_lease_candidates())
    }

    /// Run one bulk lease-expiry tick over every hosted replica (backups expire
    /// silently). Returns how many leases were reclaimed.
    pub fn expire_leases(&mut self, out: &mut Vec<(NodeId, Message)>) -> u64 {
        self.replicas.values_mut().map(|r| r.expire_stale_leases(out)).sum()
    }

    /// Shards with an unanswered snapshot request (introspection for tests).
    pub fn pending_resyncs(&self) -> BTreeSet<usize> {
        self.resync_sources.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ConfirmKind;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn obj(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    fn reg(o: ObjectId, holder: u32) -> DirOp {
        DirOp::Register {
            object: o,
            holder: NodeId(holder),
            status: ObjectStatus::Complete,
            size: 10,
        }
    }

    fn obj_in_shard(svc: &DirectoryService, shard: usize) -> ObjectId {
        (0u64..)
            .map(|k| obj(&format!("shard-{shard}-{k}")))
            .find(|&o| svc.placement().shard_of(o) == shard)
            .unwrap()
    }

    #[test]
    fn placement_matches_seed_hash_and_clamps_replication() {
        let p = DirectoryPlacement::new(nodes(4), None, 2);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.replica_set(3), vec![NodeId(3), NodeId(0)]);
        // Replication larger than the cluster is clamped.
        let p1 = DirectoryPlacement::new(nodes(2), None, 5);
        assert_eq!(p1.replication(), 2);
        // The object hash is the seed's: initial primary == the old shard_node.
        let p = DirectoryPlacement::new(nodes(7), None, 3);
        let o = obj("some-object");
        let h = u64::from_le_bytes(o.0[..8].try_into().unwrap());
        assert_eq!(p.primary_for(o, &HashSet::new()), Some(NodeId((h % 7) as u32)));
    }

    #[test]
    fn view_primary_skips_failed_replicas_and_counts_epochs() {
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(4), None, 3));
        assert_eq!(v.primary(1), Some(NodeId(1)));
        assert_eq!(v.epoch(1), 0);
        v.on_peer_failed(NodeId(1));
        assert_eq!(v.primary(1), Some(NodeId(2)));
        assert_eq!(v.epoch(1), 1);
        v.on_peer_failed(NodeId(2));
        assert_eq!(v.primary(1), Some(NodeId(3)));
        assert_eq!(v.epoch(1), 2);
        v.on_peer_failed(NodeId(3));
        assert_eq!(v.primary(1), None, "all replicas dead");
        assert_eq!(v.epoch(1), 3);
    }

    #[test]
    fn readmitted_node_does_not_fail_back_but_leads_again_after_the_next_failure() {
        // Shard 0 on a 3-node cluster with r = 2: replicas [0, 1].
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(3), None, 2));
        assert_eq!(v.primary(0), Some(NodeId(0)));
        v.on_peer_failed(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)));
        // Node 0 recovers: still not a candidate while resyncing.
        v.on_peer_recovered(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)));
        // Re-admission: eligible again, but the cursor does not rewind — no fail-back.
        v.on_peer_readmitted(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)), "no automatic fail-back");
        let e = v.epoch(0);
        // When the interim primary dies, leadership cycles back to the restarted node
        // with a strictly higher epoch.
        v.on_peer_failed(NodeId(1));
        assert_eq!(v.primary(0), Some(NodeId(0)), "restarted node leads again");
        assert!(v.epoch(0) > e);
    }

    #[test]
    fn service_applies_as_primary_ships_the_sequenced_log_and_confirms() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(0), &cfg, &ns);
        let o = obj_in_shard(&svc, 0);
        let mut out = Vec::new();
        assert!(svc.handle_op(reg(o, 2), &mut out));
        assert_eq!(svc.locations(o).unwrap().len(), 1);
        // The op was shipped, sequenced, to the shard's backup (node 1).
        let (backup, seq) = out
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirReplicate { shard: 0, epoch: 0, seq, .. } => Some((*to, *seq)),
                _ => None,
            })
            .expect("log shipment");
        assert_eq!(backup, NodeId(1));
        assert_eq!(seq, 1);
        // No confirm yet: the backup has not acked.
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })));
        out.clear();
        svc.handle_ack(0, NodeId(1), 0, seq, &mut out);
        assert!(
            out.iter().any(|(to, m)| *to == NodeId(2)
                && matches!(m, Message::DirConfirm { kind: ConfirmKind::Location { .. }, .. })),
            "origin confirmed once the backup acked: {out:?}"
        );
    }

    #[test]
    fn non_primary_forwards_to_the_believed_primary() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(3), &cfg, &ns);
        let o = obj_in_shard(&svc, 1);
        let mut out = Vec::new();
        let applied =
            svc.handle_op(DirOp::Subscribe { object: o, subscriber: NodeId(3) }, &mut out);
        assert!(!applied);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(1));
        assert!(matches!(out[0].1, Message::DirSubscribe { .. }));
    }

    #[test]
    fn backup_promotes_when_the_primary_dies() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        // Node 1 backs up shard 0 (replica set [0, 1]).
        let mut svc = DirectoryService::new(NodeId(1), &cfg, &ns);
        let o = obj_in_shard(&svc, 0);
        // Replicated state arrives from the primary before it dies, and is acked.
        let mut out = Vec::new();
        assert!(svc.handle_replicate(0, 0, 1, &reg(o, 2), NodeId(0), &mut out));
        assert!(out
            .iter()
            .any(|(to, m)| *to == NodeId(0) && matches!(m, Message::DirAck { seq: 1, .. })));
        out.clear();
        let promoted = svc.on_peer_failed(NodeId(0), &mut out);
        assert_eq!(promoted, vec![0]);
        assert_eq!(svc.primary_for(o), Some(NodeId(1)));
        assert_eq!(svc.replica(0).unwrap().epoch(), 1, "promotion at the failover epoch");
        // The replicated record survived the failover, and the promoted replica now
        // answers ops itself.
        let mut out = Vec::new();
        assert!(svc.handle_op(
            DirOp::Query { object: o, requester: NodeId(2), query_id: 1, exclude: vec![] },
            &mut out,
        ));
        assert!(svc.locations(o).unwrap().iter().any(|(n, _)| *n == NodeId(2)));
    }

    #[test]
    fn acked_prefix_alone_survives_failover_without_any_client_redrive() {
        // The acceptance scenario at the service level, clients fully gagged: ops are
        // applied at the primary, shipped, and acked; the primary then dies. The
        // promoted backup must hold every acked registration with no client re-drive
        // of any kind.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut primary_svc = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut backup_svc = DirectoryService::new(NodeId(1), &cfg, &ns);
        // Five distinct objects, all in shard 0.
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("gagged-{k}")))
            .filter(|&o| primary_svc.placement().shard_of(o) == 0)
            .take(5)
            .collect();
        let mut out = Vec::new();
        for (i, &o) in objects.iter().enumerate() {
            // Holders are third-party nodes, not the dying primary (a dead node's own
            // locations are purged by definition).
            assert!(primary_svc.handle_op(reg(o, 10 + i as u32), &mut out));
        }
        // Deliver the shipments to the backup (ack replies ignored — the primary is
        // about to die anyway).
        let mut acks = Vec::new();
        for (to, m) in out.drain(..) {
            if let Message::DirReplicate { shard, epoch, seq, op } = m {
                assert_eq!(to, NodeId(1));
                backup_svc.handle_replicate(shard as usize, epoch, seq, &op, NodeId(0), &mut acks);
            }
        }
        // The primary dies. Nobody re-drives anything.
        backup_svc.on_peer_failed(NodeId(0), &mut Vec::new());
        for &o in &objects {
            assert_eq!(
                backup_svc.locations(o).map(|l| l.len()),
                Some(1),
                "acked registration for {o:?} survived with clients gagged"
            );
        }
    }

    #[test]
    fn resync_completed_by_source_death_promotes_and_announces() {
        // Node 0 restarts and requests snapshots for both hosted shards; every
        // snapshot source dies before serving. The resync must still complete (via
        // the abandonment path), the re-admission announcement must become pending,
        // and — since node 0 is now each shard's only eligible replica — its
        // replicas must be *promoted*, not left as Backups the cluster routes to.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut restarted = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(restarted.begin_local_resync(&mut requests));
        let mut out = Vec::new();
        restarted.on_peer_failed(NodeId(1), &mut out); // shard 0's source
        assert!(restarted.is_resyncing(), "shard 2's snapshot still outstanding");
        assert!(!restarted.take_readmission_announcement());
        restarted.on_peer_failed(NodeId(2), &mut out); // shard 2's source
        assert!(!restarted.is_resyncing(), "no sources left: resync completes");
        assert!(restarted.take_readmission_announcement(), "DirResynced must be broadcast");
        assert!(!restarted.take_readmission_announcement(), "announced exactly once");
        // Both hosted shards are now led — and *servable* — by node 0.
        for shard in [0usize, 2] {
            let replica = restarted.replica(shard).unwrap();
            assert_eq!(replica.role(), ReplicaRole::Primary, "shard {shard} promoted");
            assert!(!replica.is_resyncing());
            let o = obj_in_shard(&restarted, shard);
            let mut ops_out = Vec::new();
            assert!(restarted.handle_op(reg(o, 5), &mut ops_out), "shard {shard} applies ops");
        }
    }

    #[test]
    fn restart_request_from_a_believed_primary_is_served_not_dropped() {
        // Node 0 crashes and restarts *before* the failure detector tells node 1.
        // Node 1 still believes node 0 leads shard 0, so node 0's restart snapshot
        // request must itself carry the news: node 1 folds the implied failure in,
        // promotes itself, and serves the snapshot — instead of silently dropping
        // the request and wedging node 0 in resync forever.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut survivor = DirectoryService::new(NodeId(1), &cfg, &ns);
        let o = obj_in_shard(&survivor, 0);
        assert_eq!(survivor.primary_for(o), Some(NodeId(0)), "failure not yet detected");
        let mut out = Vec::new();
        survivor.handle_snapshot_request(0, NodeId(0), true, None, 0, 0, &mut out);
        assert_eq!(survivor.primary_for(o), Some(NodeId(1)), "implied failure folded in");
        assert_eq!(survivor.replica(0).unwrap().role(), ReplicaRole::Primary);
        assert!(
            out.iter().any(|(to, m)| *to == NodeId(0)
                && matches!(
                    m,
                    Message::DirSnapshotChunk { shard: 0, done: true, .. }
                        | Message::DirResyncDelta { shard: 0, done: true, .. }
                )),
            "resync served to the restarted node: {out:?}"
        );
        // The detector's own notices, arriving later, are harmless: the failure is
        // a no-op for an already-resyncing peer's shards' leadership.
        let promoted = survivor.on_peer_failed(NodeId(0), &mut out);
        assert!(promoted.is_empty(), "already promoted");
        // A *gap* catch-up request from a live backup must not depose anyone.
        let mut survivor2 = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut out2 = Vec::new();
        survivor2.handle_snapshot_request(1, NodeId(2), false, None, 0, 0, &mut out2);
        assert_eq!(survivor2.view().primary(2), Some(NodeId(2)), "live backup untouched");
    }

    #[test]
    fn readmission_returns_the_leaderless_shards_for_redrive() {
        // Shard 1 replicas [1, 2] on a 3-node cluster. Both die; the shard is
        // leaderless. When node 1 is readmitted (restarted + resynced from nothing),
        // the view must report shard 1 as regained so clients re-drive their
        // unconfirmed intents at it.
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(3), None, 2));
        v.on_peer_failed(NodeId(1));
        v.on_peer_failed(NodeId(2));
        assert_eq!(v.primary(1), None);
        let e = v.epoch(1);
        v.on_peer_recovered(NodeId(1));
        assert_eq!(v.primary(1), None, "resyncing nodes do not lead");
        let regained = v.on_peer_readmitted(NodeId(1));
        assert_eq!(regained, vec![1], "shard 1 went leaderless -> led");
        assert_eq!(v.primary(1), Some(NodeId(1)));
        assert!(v.epoch(1) > e);
        // A readmission that does not change any primary regains nothing.
        assert_eq!(v.on_peer_readmitted(NodeId(1)), Vec::<usize>::new());
    }

    #[test]
    fn recovering_replica_resyncs_and_is_readmitted() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        // Shard 0: replicas [0, 1]; node 0 also backs up shard 2 (replicas [2, 0]).
        // Node 0 dies; node 1 promotes shard 0 and accumulates state; node 0 restarts
        // and resyncs both hosted shards.
        let mut survivor = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut other = DirectoryService::new(NodeId(2), &cfg, &ns);
        let mut out = Vec::new();
        survivor.on_peer_failed(NodeId(0), &mut out);
        other.on_peer_failed(NodeId(0), &mut out);
        let o = obj_in_shard(&survivor, 0);
        assert!(survivor.handle_op(reg(o, 2), &mut out));
        out.clear();

        // Node 0 restarts empty and begins recovery.
        let mut restarted = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(restarted.begin_local_resync(&mut requests));
        assert!(restarted.is_resyncing());
        // While resyncing, the restarted node does not believe it leads shard 0.
        assert_ne!(restarted.primary_for(o), Some(NodeId(0)));

        // Route messages between the three services until the resync settles —
        // the stream shape (chunks, deltas, continuation requests) is the
        // services' own business here.
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            let svc = match to {
                NodeId(0) => &mut restarted,
                NodeId(1) => &mut survivor,
                NodeId(2) => &mut other,
                other => panic!("unexpected recipient {other:?}"),
            };
            let mut out = Vec::new();
            match msg {
                Message::DirSnapshotRequest {
                    shard,
                    requester,
                    restart,
                    after,
                    have_epoch,
                    have_seq,
                    ..
                } => {
                    svc.handle_snapshot_request(
                        shard as usize,
                        requester,
                        restart,
                        after,
                        have_epoch,
                        have_seq,
                        &mut out,
                    );
                }
                Message::DirSnapshotChunk { shard, epoch, seq, rank, done, state } => {
                    svc.handle_snapshot_chunk(
                        shard as usize,
                        epoch,
                        seq,
                        rank as usize,
                        done,
                        &state,
                        from,
                        &mut out,
                    );
                }
                Message::DirResyncDelta { shard, epoch, ops, done } => {
                    svc.handle_resync_delta(shard as usize, epoch, &ops, done, from, &mut out);
                }
                Message::DirAck { shard, epoch, seq } => {
                    svc.handle_ack(shard as usize, from, epoch, seq, &mut out);
                }
                other => panic!("unexpected message {other:?}"),
            }
            queue.extend(out.into_iter().map(|(to2, m2)| (to, to2, m2)));
        }
        assert!(!restarted.is_resyncing(), "local resync completed");
        // The resynced replica holds the record registered while it was down.
        assert_eq!(restarted.locations(o).map(|l| l.len()), Some(1));
        // It adopted the survivor's rank cursor: no fail-back to itself.
        assert_eq!(restarted.primary_for(o), Some(NodeId(1)));
        // Survivor readmits node 0; when the survivor later dies, node 0 leads again
        // at a strictly higher epoch.
        survivor.on_peer_readmitted(NodeId(0), &mut Vec::new());
        restarted.on_peer_readmitted(NodeId(0), &mut Vec::new());
        let mut out2 = Vec::new();
        let promoted = restarted.on_peer_failed(NodeId(1), &mut out2);
        assert!(promoted.contains(&0), "restarted node serves as primary again");
        assert!(restarted.is_primary_for(o));
        assert!(restarted.replica(0).unwrap().epoch() >= 2);
    }

    // ---------------------------------------------------- chain replication ----

    fn chain_cfg() -> HopliteConfig {
        HopliteConfig { directory_replication: 3, ..HopliteConfig::small_for_tests() }
    }

    fn chain_svcs() -> Vec<DirectoryService> {
        let cfg = chain_cfg();
        let ns = nodes(3);
        (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect()
    }

    /// Deliver `(from, to, msg)` triples between the services until the cluster goes
    /// quiet, dropping anything addressed to a `dead` node. Returns the `DirConfirm`s
    /// that reached their origins.
    fn pump(
        svcs: &mut [DirectoryService],
        queue: &mut Vec<(NodeId, NodeId, Message)>,
        dead: &[NodeId],
    ) -> Vec<(NodeId, Message)> {
        let mut confirms = Vec::new();
        while let Some((from, to, msg)) = queue.pop() {
            if dead.contains(&to) {
                continue;
            }
            let svc = &mut svcs[to.0 as usize];
            let mut out = Vec::new();
            match msg {
                Message::DirReplicate { shard, epoch, seq, op } => {
                    svc.handle_replicate(shard as usize, epoch, seq, &op, from, &mut out);
                }
                Message::DirAck { shard, epoch, seq } => {
                    svc.handle_ack(shard as usize, from, epoch, seq, &mut out);
                }
                Message::DirSnapshotRequest {
                    shard,
                    requester,
                    restart,
                    after,
                    have_epoch,
                    have_seq,
                    ..
                } => {
                    svc.handle_snapshot_request(
                        shard as usize,
                        requester,
                        restart,
                        after,
                        have_epoch,
                        have_seq,
                        &mut out,
                    );
                }
                Message::DirSnapshotChunk { shard, epoch, seq, rank, done, state } => {
                    svc.handle_snapshot_chunk(
                        shard as usize,
                        epoch,
                        seq,
                        rank as usize,
                        done,
                        &state,
                        from,
                        &mut out,
                    );
                }
                Message::DirResyncDelta { shard, epoch, ops, done } => {
                    svc.handle_resync_delta(shard as usize, epoch, &ops, done, from, &mut out);
                }
                m @ Message::DirConfirm { .. } => {
                    confirms.push((to, m));
                    continue;
                }
                other => panic!("unroutable message in chain test: {other:?}"),
            }
            queue.extend(out.into_iter().map(|(to2, m2)| (to, to2, m2)));
        }
        confirms
    }

    #[test]
    fn view_chain_orders_members_from_the_primary_and_skips_dead() {
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(4), None, 3));
        assert_eq!(v.chain(1), vec![NodeId(1), NodeId(2), NodeId(3)]);
        v.on_peer_failed(NodeId(2));
        assert_eq!(v.chain(1), vec![NodeId(1), NodeId(3)]);
        v.on_peer_failed(NodeId(1));
        assert_eq!(v.chain(1), vec![NodeId(3)], "cursor advanced past the dead primary");
        // A recovered-but-resyncing member rejoins the chain (it is shipped to) but
        // does not lead it.
        v.on_peer_recovered(NodeId(2));
        assert_eq!(v.chain(1), vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn chain_primary_ships_once_and_the_tail_ack_walks_back_up() {
        let mut svcs = chain_svcs();
        let o = obj_in_shard(&svcs[0], 0);
        let mut out = Vec::new();
        assert!(svcs[0].handle_op(reg(o, 1), &mut out));
        // Primary egress is a single stream to the chain head, not one per backup.
        let ships: Vec<&NodeId> = out
            .iter()
            .filter_map(|(to, m)| matches!(m, Message::DirReplicate { .. }).then_some(to))
            .collect();
        assert_eq!(ships, vec![&NodeId(1)], "one shipment, to the head: {out:?}");
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        let confirms = pump(&mut svcs, &mut queue, &[]);
        // The op reached both backups through the chain, the tail's ack was folded
        // upstream by the middle, and the origin got its confirm.
        assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1), "head applied");
        assert_eq!(svcs[2].locations(o).map(|l| l.len()), Some(1), "tail applied");
        assert!(
            confirms.iter().any(|(to, _)| *to == NodeId(1)),
            "origin confirmed after the cumulative ack: {confirms:?}"
        );
        assert_eq!(svcs[1].take_chain_ack_relays(), 1, "middle relayed the tail's ack");
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 0, "primary log trimmed");
    }

    #[test]
    fn chain_tail_death_unsticks_the_cumulative_ack() {
        let mut svcs = chain_svcs();
        let o = obj_in_shard(&svcs[0], 0);
        let mut out = Vec::new();
        assert!(svcs[0].handle_op(reg(o, 1), &mut out));
        // Deliver the shipment to the head, which relays it to the tail — but the
        // tail dies before acking (its relay is dropped).
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        let confirms = pump(&mut svcs, &mut queue, &[NodeId(2)]);
        assert!(confirms.is_empty(), "no cumulative ack: no confirm yet");
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 1, "op stuck unacked");
        // Survivors digest the failure: the head (now the tail) re-anchors the ack
        // flow with its applied prefix, and the primary's re-splice re-ships.
        let (head, rest) = svcs.split_at_mut(1);
        let mut q0 = Vec::new();
        head[0].on_peer_failed(NodeId(2), &mut q0);
        let mut q1 = Vec::new();
        rest[0].on_peer_failed(NodeId(2), &mut q1);
        assert!(
            q1.iter()
                .any(|(to, m)| *to == NodeId(0) && matches!(m, Message::DirAck { seq: 1, .. })),
            "surviving member re-acks its applied prefix upstream: {q1:?}"
        );
        let mut queue: Vec<_> = q0
            .into_iter()
            .map(|(to, m)| (NodeId(0), to, m))
            .chain(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)))
            .collect();
        let confirms = pump(&mut svcs, &mut queue, &[NodeId(2)]);
        assert!(!confirms.is_empty(), "confirm released after the re-anchored ack");
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 0);
    }

    #[test]
    fn chain_head_death_resplices_and_reships_the_unacked_suffix() {
        let mut svcs = chain_svcs();
        let o = obj_in_shard(&svcs[0], 0);
        let mut out = Vec::new();
        // Holder 2: a record held by the dying node itself would be purged with it.
        assert!(svcs[0].handle_op(reg(o, 2), &mut out));
        // The head dies with the shipment in flight: nothing reached the tail.
        out.clear();
        let mut q0 = Vec::new();
        svcs[0].on_peer_failed(NodeId(1), &mut q0);
        assert!(
            q0.iter().any(
                |(to, m)| *to == NodeId(2) && matches!(m, Message::DirReplicate { seq: 1, .. })
            ),
            "primary re-ships the unacked suffix to the new head: {q0:?}"
        );
        let mut q2 = Vec::new();
        svcs[2].on_peer_failed(NodeId(1), &mut q2);
        let mut queue: Vec<_> = q0
            .into_iter()
            .map(|(to, m)| (NodeId(0), to, m))
            .chain(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)))
            .collect();
        let confirms = pump(&mut svcs, &mut queue, &[NodeId(1)]);
        // Zero lost location records: the surviving backup holds the op, acked
        // straight to the primary (the two-member chain has no middle).
        assert_eq!(svcs[2].locations(o).map(|l| l.len()), Some(1));
        assert!(!confirms.is_empty(), "op confirmed after the re-splice");
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 0);
    }

    #[test]
    fn chain_readmission_resplices_the_restarted_member_back_in() {
        let mut svcs = chain_svcs();
        let o1 = obj_in_shard(&svcs[0], 0);
        // Op 1 flows through the intact chain (holder 2: a record held by the node
        // that dies below would be purged with it).
        let mut out = Vec::new();
        assert!(svcs[0].handle_op(reg(o1, 2), &mut out));
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        pump(&mut svcs, &mut queue, &[]);
        // The head dies; op 2 is applied but its re-spliced shipment is lost too
        // (the network drops everything while the failure settles).
        let mut scratch = Vec::new();
        svcs[0].on_peer_failed(NodeId(1), &mut scratch);
        svcs[2].on_peer_failed(NodeId(1), &mut scratch);
        scratch.clear();
        let o2 = (0u64..)
            .map(|k| obj(&format!("chain-readmit-{k}")))
            .find(|&o| svcs[0].placement().shard_of(o) == 0)
            .unwrap();
        assert!(svcs[0].handle_op(reg(o2, 2), &mut scratch));
        scratch.clear();
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 1, "op 2 in flight");
        // Node 1 comes back (its replica state intact through seq 1) and is
        // re-admitted: the primary re-splices it in as the head and re-ships the
        // unacked suffix, which then relays down to the tail and gets acked back.
        for svc in &mut svcs {
            svc.on_peer_recovered(NodeId(1));
        }
        let mut q0 = Vec::new();
        svcs[0].on_peer_readmitted(NodeId(1), &mut q0);
        assert!(
            q0.iter().any(
                |(to, m)| *to == NodeId(1) && matches!(m, Message::DirReplicate { seq: 2, .. })
            ),
            "suffix re-shipped to the re-admitted head: {q0:?}"
        );
        let mut q1 = Vec::new();
        svcs[1].on_peer_readmitted(NodeId(1), &mut q1);
        let mut q2 = Vec::new();
        svcs[2].on_peer_readmitted(NodeId(1), &mut q2);
        let mut queue: Vec<_> = q0
            .into_iter()
            .map(|(to, m)| (NodeId(0), to, m))
            .chain(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)))
            .chain(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)))
            .collect();
        let confirms = pump(&mut svcs, &mut queue, &[]);
        // Every member converged on both records; op 2 is confirmed.
        for svc in &svcs {
            assert_eq!(svc.locations(o1).map(|l| l.len()), Some(1));
            assert_eq!(svc.locations(o2).map(|l| l.len()), Some(1));
        }
        assert!(confirms.iter().any(|(to, _)| *to == NodeId(2)), "op 2 confirmed: {confirms:?}");
        assert_eq!(svcs[0].replica(0).unwrap().unacked_len(), 0);
    }

    #[test]
    fn readmission_at_r2_reships_the_retained_suffix_to_the_backup() {
        // r = 2, shard 0 replicas [0, 1]. While node 1 is down, node 0 applies three
        // ops as a lone replica: each is durable at once, so the log is trimmed into
        // the retained ring and nothing is left unacked. On node 1's re-admission the
        // re-splice must still ship those ops to it — they never reached it.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut primary = DirectoryService::new(NodeId(0), &cfg, &ns);
        primary.on_peer_failed(NodeId(1), &mut Vec::new());
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("readmit-r2-{k}")))
            .filter(|&o| primary.placement().shard_of(o) == 0)
            .take(3)
            .collect();
        let mut out = Vec::new();
        for &o in &objects {
            assert!(primary.handle_op(reg(o, 2), &mut out));
        }
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirReplicate { .. })));
        assert_eq!(primary.replica(0).unwrap().unacked_len(), 0, "lone replica trims at once");
        primary.on_peer_recovered(NodeId(1));
        let mut q0 = Vec::new();
        primary.on_peer_readmitted(NodeId(1), &mut q0);
        let shipped: Vec<u64> = q0
            .iter()
            .filter_map(|(to, m)| match m {
                Message::DirReplicate { shard: 0, seq, .. } if *to == NodeId(1) => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(shipped, vec![1, 2, 3], "retained suffix re-shipped: {q0:?}");
        // The backup, whose prefix ends before those ops, applies them and acks all.
        let mut backup = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut acks = Vec::new();
        for (_, m) in q0 {
            if let Message::DirReplicate { shard, epoch, seq, op } = m {
                backup.handle_replicate(shard as usize, epoch, seq, &op, NodeId(0), &mut acks);
            }
        }
        assert!(acks.iter().any(
            |(to, m)| *to == NodeId(0) && matches!(m, Message::DirAck { shard: 0, seq: 3, .. })
        ));
        for &o in &objects {
            assert_eq!(backup.locations(o).map(|l| l.len()), Some(1));
        }
    }

    #[test]
    fn readmission_after_a_promotion_does_not_resync_a_caught_up_head() {
        // r = 3, shard 0 chain [0, 1, 2]. Two ops reach every member at epoch 0, then
        // the primary dies and node 1 is promoted at a higher epoch. Node 0 restarts,
        // resyncs from node 1 and is re-admitted before any new op: the re-formed
        // chain is [1, 2, 0], so node 2 — still at the old epoch — is the head. The
        // re-splice must not hand it the old-epoch ops under the new epoch, which it
        // cannot tell apart from a diverged history and would answer with a full
        // state transfer.
        let mut svcs = chain_svcs();
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("promoted-readmit-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(2)
            .collect();
        for &o in &objects {
            let mut out = Vec::new();
            assert!(svcs[0].handle_op(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
            pump(&mut svcs, &mut queue, &[]);
        }
        let mut queue = Vec::new();
        for i in [1u32, 2] {
            let mut out = Vec::new();
            svcs[i as usize].on_peer_failed(NodeId(0), &mut out);
            queue.extend(out.into_iter().map(|(to, m)| (NodeId(i), to, m)));
        }
        pump(&mut svcs, &mut queue, &[NodeId(0)]);
        assert_eq!(svcs[1].replica(0).unwrap().role(), ReplicaRole::Primary);
        assert!(svcs[1].replica(0).unwrap().epoch() > svcs[2].replica(0).unwrap().epoch());

        // Node 0 restarts empty and pulls the shard back from the new primary.
        let cfg = chain_cfg();
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &nodes(3));
        let mut out = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut out));
        svcs[2].on_peer_recovered(NodeId(0));
        let mut queue: Vec<_> = out.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        assert!(svcs[0].take_readmission_announcement(), "node 0 caught up");

        // Every node digests the re-admission; record what the re-splice sets off.
        let mut queue = Vec::new();
        for i in [0u32, 1, 2] {
            let mut out = Vec::new();
            svcs[i as usize].on_peer_readmitted(NodeId(0), &mut out);
            queue.extend(out.into_iter().map(|(to, m)| (NodeId(i), to, m)));
        }
        let mut sent = Vec::new();
        while let Some((from, to, msg)) = queue.pop() {
            sent.push((from, to, msg.clone()));
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        assert!(
            !sent.iter().any(|(from, _, m)| *from == NodeId(2)
                && matches!(m, Message::DirSnapshotRequest { .. })),
            "the caught-up head must not resync: {sent:?}"
        );
        assert!(!svcs[2].replica(0).unwrap().is_resyncing());
        for svc in &svcs {
            for &o in &objects {
                assert_eq!(svc.locations(o).map(|l| l.len()), Some(1));
            }
        }

        // The next op crosses the whole re-formed chain at the new epoch.
        let o3 = (0u64..)
            .map(|k| obj(&format!("promoted-readmit-next-{k}")))
            .find(|&o| svcs[1].placement().shard_of(o) == 0)
            .unwrap();
        let mut out = Vec::new();
        assert!(svcs[1].handle_op(reg(o3, 2), &mut out));
        let mut queue: Vec<_> = out.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        let confirms = pump(&mut svcs, &mut queue, &[]);
        assert!(!confirms.is_empty(), "op 3 confirmed through the chain");
        for svc in &svcs {
            assert_eq!(svc.locations(o3).map(|l| l.len()), Some(1));
        }
    }

    // --------------------------------------------------- chunked/delta resync ----

    /// Route a single message to its recipient (services indexed by node id) and
    /// return the resulting sends as `(from, to, msg)` triples. `DirConfirm`s are
    /// swallowed — the resync tests don't assert on client confirms.
    fn deliver(
        svcs: &mut [DirectoryService],
        from: NodeId,
        to: NodeId,
        msg: Message,
    ) -> Vec<(NodeId, NodeId, Message)> {
        if matches!(
            msg,
            Message::DirConfirm { .. } | Message::DirPublish { .. } | Message::DirQueryReply { .. }
        ) {
            return Vec::new();
        }
        let svc = &mut svcs[to.0 as usize];
        let mut out = Vec::new();
        match msg {
            Message::DirReplicate { shard, epoch, seq, op } => {
                svc.handle_replicate(shard as usize, epoch, seq, &op, from, &mut out);
            }
            Message::DirAck { shard, epoch, seq } => {
                svc.handle_ack(shard as usize, from, epoch, seq, &mut out);
            }
            Message::DirSnapshotRequest {
                shard,
                requester,
                restart,
                after,
                have_epoch,
                have_seq,
                ..
            } => {
                svc.handle_snapshot_request(
                    shard as usize,
                    requester,
                    restart,
                    after,
                    have_epoch,
                    have_seq,
                    &mut out,
                );
            }
            Message::DirSnapshotChunk { shard, epoch, seq, rank, done, state } => {
                svc.handle_snapshot_chunk(
                    shard as usize,
                    epoch,
                    seq,
                    rank as usize,
                    done,
                    &state,
                    from,
                    &mut out,
                );
            }
            Message::DirResyncDelta { shard, epoch, ops, done } => {
                svc.handle_resync_delta(shard as usize, epoch, &ops, done, from, &mut out);
            }
            Message::DirConfirm { .. } => {}
            other => panic!("unroutable message in resync test: {other:?}"),
        }
        out.into_iter().map(|(to2, m2)| (to, to2, m2)).collect()
    }

    #[test]
    fn gap_resync_uses_the_delta_path_instead_of_shipping_state() {
        // Shard 0 replicas [0, 1] on a 3-node cluster: node 0 primary, node 1 backup.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("delta-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(4)
            .collect();
        // Op 1 replicates normally and is acked.
        let mut out = Vec::new();
        assert!(svcs[0].handle_op(reg(objects[0], 2), &mut out));
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        // Ops 2 and 3 are applied at the primary but their shipments are lost.
        assert!(svcs[0].handle_op(reg(objects[1], 2), &mut out));
        assert!(svcs[0].handle_op(reg(objects[2], 2), &mut out));
        out.clear();
        // Op 4's shipment arrives and exposes the gap.
        assert!(svcs[0].handle_op(reg(objects[3], 2), &mut out));
        let (seq4, op4) = out
            .iter()
            .find_map(|(_, m)| match m {
                Message::DirReplicate { seq, op, .. } => Some((*seq, op.clone())),
                _ => None,
            })
            .expect("op 4 shipped");
        let mut req_out = Vec::new();
        svcs[1].handle_replicate(0, 0, seq4, &op4, NodeId(0), &mut req_out);
        let (have_epoch, have_seq) = req_out
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, have_epoch, have_seq, .. } => {
                    assert_eq!(*to, NodeId(0));
                    assert!(after.is_none(), "fresh stream, no cursor");
                    Some((*have_epoch, *have_seq))
                }
                _ => None,
            })
            .expect("gap triggers a resync request");
        assert_eq!(have_seq, 1, "backup applied only op 1");
        // The primary's retained suffix covers the gap: it replays ops, ships no
        // state, and the backup converges and acks the full prefix.
        let mut frames = Vec::new();
        svcs[0].handle_snapshot_request(
            0,
            NodeId(1),
            false,
            None,
            have_epoch,
            have_seq,
            &mut frames,
        );
        let (chunks, bytes, deltas) = svcs[0].take_resync_counters();
        assert_eq!((chunks, bytes), (0, 0), "no state chunks shipped");
        assert_eq!(deltas, 1, "served as a delta");
        let mut completed = false;
        let mut queue: Vec<_> = frames.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(1) {
                if let Message::DirResyncDelta { shard: 0, ref ops, done, .. } = msg {
                    assert!(done, "a four-op gap fits one frame");
                    assert_eq!(ops.first().map(|(s, _)| *s), Some(2), "replay resumes past op 1");
                }
            }
            if matches!(msg, Message::DirAck { shard: 0, seq: 4, .. }) && to == NodeId(0) {
                completed = true;
            }
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        assert!(completed, "backup acked the replayed prefix");
        assert!(!svcs[1].replica(0).unwrap().is_resyncing());
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1), "record replayed");
        }
    }

    #[test]
    fn chunked_resync_streams_bounded_chunks_and_reships_dirty_entries() {
        // Two nodes, r = 2: shard 0 replicas [0, 1], shard 1 replicas [1, 0]. A tiny
        // chunk budget forces a long stream so live mutations can land mid-flight.
        let cfg = HopliteConfig { snapshot_chunk_bytes: 256, ..HopliteConfig::small_for_tests() };
        let ns = nodes(2);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        // Node 0 dies; node 1 promotes shard 0 (epoch 1) and leads everything.
        svcs[1].on_peer_failed(NodeId(0), &mut Vec::new());
        let mut objects = Vec::new();
        for shard in 0..2usize {
            objects.extend(
                (0u64..)
                    .map(|k| obj(&format!("scale-{shard}-{k}")))
                    .filter(|&o| svcs[1].placement().shard_of(o) == shard)
                    .take(20),
            );
        }
        let mut scratch = Vec::new();
        for &o in &objects {
            assert!(svcs[1].handle_op(reg(o, 1), &mut scratch));
        }
        scratch.clear();
        // Node 0 restarts empty. Shard 0 resyncs via chunks (its epoch moved), shard
        // 1 via delta replay (same epoch, retained log covers the whole history).
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut requests));
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        let mut victim: Option<ObjectId> = None;
        let mut chunks_seen = 0u64;
        while let Some((from, to, msg)) = queue.pop() {
            match &msg {
                Message::DirSnapshotChunk { state, done, .. } => {
                    chunks_seen += 1;
                    assert!(
                        state.wire_size() <= 256 || state.entries.len() == 1,
                        "chunk over budget: {} bytes, {} entries",
                        state.wire_size(),
                        state.entries.len()
                    );
                    if victim.is_none() {
                        // First chunk in flight: mutate one of its entries at the
                        // source while the stream is still running. The entry went
                        // stale behind the cursor, so it must be re-shipped.
                        assert!(!done, "20 objects cannot fit one 256-byte chunk");
                        let object = state.entries.first().expect("chunk carries entries").object;
                        victim = Some(object);
                        let mut live = Vec::new();
                        assert!(svcs[1].handle_op(
                            DirOp::Subscribe { object, subscriber: NodeId(1) },
                            &mut live,
                        ));
                        queue.extend(live.into_iter().map(|(to2, m2)| (NodeId(1), to2, m2)));
                    }
                }
                Message::DirResyncDelta { ops, .. } => {
                    assert!(ops.len() <= 1, "two replayed ops never fit a 256-byte frame");
                }
                _ => {}
            }
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        assert!(chunks_seen >= 8, "20 entries at 3 per chunk plus a dirty flush: {chunks_seen}");
        let (chunks, bytes, deltas) = svcs[1].take_resync_counters();
        assert_eq!(chunks, chunks_seen);
        assert!(bytes > 0);
        assert_eq!(deltas, 1, "shard 1 resynced as a delta");
        // The restarted node converged on every record...
        assert!(!svcs[0].is_resyncing());
        for &o in &objects {
            assert_eq!(svcs[0].locations(o).map(|l| l.len()), Some(1));
        }
        // ...including the mutation that landed mid-stream: the subscription exists
        // only in the re-shipped copy of the entry (the buffered live shipment was
        // superseded by the stream's final sequence number).
        let victim = victim.expect("a chunk was served");
        let shard = svcs[0].placement().shard_of(victim);
        assert_eq!(
            svcs[0].replica(shard).unwrap().shard().subscriber_count(victim),
            1,
            "stale streamed entry was re-shipped with its new subscriber"
        );
    }

    #[test]
    fn chunk_stream_resumes_from_the_cursor_when_the_source_dies() {
        // Three nodes, r = 3 (chain [0, 1, 2]), zero log retention: a restarted node
        // can only be served state chunks, never a delta.
        let cfg = HopliteConfig {
            directory_replication: 3,
            directory_log_retention: 0,
            snapshot_chunk_bytes: 256,
            ..HopliteConfig::small_for_tests()
        };
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("resume-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(18)
            .collect();
        // Populate shard 0 through its primary; the op relays down the chain and the
        // tail's ack walks back up, so the primary's log is fully trimmed (and
        // nothing is retained).
        let mut out = Vec::new();
        for &o in &objects {
            assert!(svcs[0].handle_op(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
            while let Some((from, to, msg)) = queue.pop() {
                queue.extend(deliver(&mut svcs, from, to, msg));
            }
        }
        // Node 1 dies and restarts empty; survivors digest the failure.
        svcs[0].on_peer_failed(NodeId(1), &mut out);
        svcs[2].on_peer_failed(NodeId(1), &mut out);
        out.clear();
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(svcs[1].begin_local_resync(&mut requests));
        // Run the resync until two chunks of shard 0 (served by node 0, the
        // primary) have been installed, then kill node 0 mid-stream.
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        let mut installed = 0;
        while installed < 2 {
            let (from, to, msg) = queue.pop().expect("shard 0 stream still in flight");
            if to == NodeId(1) && matches!(msg, Message::DirSnapshotChunk { shard: 0, .. }) {
                installed += 1;
            }
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        let cursor = svcs[1].replica(0).unwrap().resync_cursor().expect("mid-stream cursor");
        // The crash drops everything in flight to or from node 0.
        queue.retain(|(from, to, _)| *from != NodeId(0) && *to != NodeId(0));
        let mut q1 = Vec::new();
        svcs[1].on_peer_failed(NodeId(0), &mut q1);
        let mut q2 = Vec::new();
        svcs[2].on_peer_failed(NodeId(0), &mut q2);
        // The stranded stream re-targets the new primary (node 2) and asks it to
        // resume from the installed cursor, not from scratch.
        let resumed_after = q1
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, .. } => {
                    assert_eq!(*to, NodeId(2));
                    Some(*after)
                }
                _ => None,
            })
            .expect("stranded resync re-targeted");
        assert_eq!(resumed_after, Some(cursor), "resume from the cursor");
        queue.extend(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)));
        queue.extend(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)));
        let mut resumed_entries = 0;
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(0) {
                continue;
            }
            if let Message::DirSnapshotChunk { shard: 0, ref state, .. } = msg {
                for e in &state.entries {
                    assert!(e.object > cursor, "already-installed prefix re-shipped");
                    resumed_entries += 1;
                }
            }
            queue.extend(deliver(&mut svcs, from, to, msg));
        }
        // Two 3-entry chunks landed before the crash; node 2 shipped exactly the
        // remaining twelve entries and the restarted replica converged.
        assert_eq!(resumed_entries, objects.len() - 6);
        assert!(!svcs[1].is_resyncing(), "resync completed at the new source");
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1));
        }
    }
}
