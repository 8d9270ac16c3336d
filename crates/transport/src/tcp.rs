//! Localhost TCP fabric.
//!
//! Each node listens on an ephemeral `127.0.0.1` port. Senders open one TCP connection
//! per destination edge; the first frame on a connection is a [`Message::Hello`]
//! carrying the sender's node id, after which framed [`Message`]s flow. A reader
//! thread per accepted connection decodes frames and pushes them onto the destination
//! node's receive queue, preserving per-sender FIFO order exactly like the in-process
//! fabric.
//!
//! Both directions are **zero-copy** for bulk payloads:
//!
//! * Sends go through a per-edge writer thread owning the stream. Bulk frames are
//!   written as scatter-gather iovecs into the kernel (no staging copy); bursts of
//!   small control frames are corked ([`crate::framing::Cork`]) into a single
//!   `write_vectored` and flushed whenever the edge's queue drains, so directory
//!   chatter stops costing one syscall per frame without ever being delayed while
//!   traffic is idle.
//! * Receives go through a [`crate::framing::FrameReader`]: frames decode in place
//!   out of pooled slabs, so a block's payload bytes are written once by the kernel
//!   and then adopted as shared views all the way into the store. Payloads under
//!   [`crate::framing::GATHER_MIN_SEGMENT`] are copied out at decode instead, so
//!   small inline objects held by the store or the directory never pin a slab and
//!   a control-heavy connection keeps reusing the same pooled slabs.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use hoplite_core::prelude::*;
use parking_lot::{Mutex, RwLock};

use crate::fabric::{Fabric, FabricSender};
use crate::framing::{write_frame_vectored, Cork, FrameReader};

/// The shared, swappable table of per-node ingress queues. Reader threads look the
/// current queue up per frame, so swapping a slot (node restart) atomically reroutes
/// every surviving connection to the new incarnation's queue.
type IngressTable = Arc<RwLock<Vec<Sender<(NodeId, Message)>>>>;

/// A TCP-backed fabric for `n` co-hosted (or genuinely remote) nodes.
pub struct TcpFabric {
    addrs: Arc<Vec<SocketAddr>>,
    ingress: IngressTable,
    receivers: Vec<Option<Receiver<(NodeId, Message)>>>,
    incarnations: Arc<RwLock<Vec<u64>>>,
    recv_slab_reuses: Arc<AtomicU64>,
    corked_frames: Arc<AtomicU64>,
    corked_writes: Arc<AtomicU64>,
    _listeners: Vec<thread::JoinHandle<()>>,
}

/// Live writer-thread queues, keyed by `(from, to)` edge.
type EdgeMap = Arc<Mutex<HashMap<(u32, u32), Sender<Message>>>>;

/// Sender half of [`TcpFabric`]. Each edge `(from, to)` gets a dedicated writer
/// thread owning its stream; `send` only enqueues, so callers never block on the
/// network and the writer can see (and cork) whole bursts at once.
#[derive(Clone)]
pub struct TcpFabricSender {
    addrs: Arc<Vec<SocketAddr>>,
    edges: EdgeMap,
    incarnations: Arc<RwLock<Vec<u64>>>,
    corked_frames: Arc<AtomicU64>,
    corked_writes: Arc<AtomicU64>,
}

impl TcpFabric {
    /// Bind `n` listeners on localhost and start their accept loops.
    pub fn new(n: usize) -> std::io::Result<Self> {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        let mut ingress = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        let mut accept_threads = Vec::new();
        let recv_slab_reuses = Arc::new(AtomicU64::new(0));
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let (tx, rx) = unbounded();
            ingress.push(tx);
            receivers.push(Some(rx));
            listeners.push(listener);
        }
        let ingress = Arc::new(RwLock::new(ingress));
        for (slot, listener) in listeners.into_iter().enumerate() {
            let reuses = recv_slab_reuses.clone();
            let table = ingress.clone();
            accept_threads.push(thread::spawn(move || accept_loop(listener, slot, table, reuses)));
        }
        Ok(TcpFabric {
            addrs: Arc::new(addrs),
            ingress,
            receivers,
            incarnations: Arc::new(RwLock::new(vec![0; n])),
            recv_slab_reuses,
            corked_frames: Arc::new(AtomicU64::new(0)),
            corked_writes: Arc::new(AtomicU64::new(0)),
            _listeners: accept_threads,
        })
    }

    /// Bind only `me`'s listener from a cluster address map — the one-node-per-process
    /// shape `hoplited` runs. `addrs` must list every node's fabric address (fixed
    /// ports agreed out of band); only `addrs[me]` is bound locally, the rest are dialed
    /// on demand. A port still held by a just-killed previous incarnation is retried
    /// for a few seconds before giving up, so a supervisor can restart a daemon
    /// immediately after `kill -9` without racing the kernel's socket teardown.
    pub fn bind_node(me: NodeId, addrs: &[SocketAddr], incarnation: u64) -> std::io::Result<Self> {
        let n = addrs.len();
        let listener = bind_with_retry(addrs[me.index()])?;
        let mut addrs = addrs.to_vec();
        // Resolve a requested port 0 to the port actually bound.
        addrs[me.index()] = listener.local_addr()?;
        let mut ingress = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = unbounded();
            ingress.push(tx);
            receivers.push((i == me.index()).then_some(rx));
        }
        let ingress = Arc::new(RwLock::new(ingress));
        let recv_slab_reuses = Arc::new(AtomicU64::new(0));
        let mut incarnations = vec![0; n];
        incarnations[me.index()] = incarnation;
        let accept = {
            let table = ingress.clone();
            let reuses = recv_slab_reuses.clone();
            let slot = me.index();
            thread::spawn(move || accept_loop(listener, slot, table, reuses))
        };
        Ok(TcpFabric {
            addrs: Arc::new(addrs),
            ingress,
            receivers,
            incarnations: Arc::new(RwLock::new(incarnations)),
            recv_slab_reuses,
            corked_frames: Arc::new(AtomicU64::new(0)),
            corked_writes: Arc::new(AtomicU64::new(0)),
            _listeners: vec![accept],
        })
    }

    /// Addresses of every node's listener (diagnostics).
    pub fn addresses(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Record `node`'s current incarnation. New connections *from* `node` greet peers
    /// with this value in their [`Message::Hello`]; existing edges are unaffected
    /// (their Hello already went out), so pair this with
    /// [`TcpFabricSender::drop_edges_from`] when restarting an in-process node.
    pub fn set_incarnation(&self, node: NodeId, incarnation: u64) {
        self.incarnations.write()[node.index()] = incarnation;
    }

    /// Receive slabs served by pool reuse instead of a fresh allocation, across every
    /// connection accepted by this fabric (→ the `recv_slab_reuse` metric).
    pub fn recv_slab_reuses(&self) -> u64 {
        self.recv_slab_reuses.load(Ordering::Relaxed)
    }
}

/// Bind `addr`, retrying `AddrInUse` for a few seconds. A daemon restarted in place
/// of a `kill -9`'d predecessor can land before the kernel has torn the old socket
/// down; anything else (privilege, bad address) fails immediately.
fn bind_with_retry(addr: SocketAddr) -> std::io::Result<TcpListener> {
    let mut last = None;
    for _ in 0..60 {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last = Some(e);
                thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

fn accept_loop(
    listener: TcpListener,
    slot: usize,
    ingress: IngressTable,
    slab_reuses: Arc<AtomicU64>,
) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        let ingress = ingress.clone();
        let slab_reuses = slab_reuses.clone();
        thread::spawn(move || {
            let mut reader = FrameReader::new(stream);
            // First frame identifies the peer (and its incarnation). The Hello is
            // forwarded to the node like any other frame: a survivor that sees a
            // restarted peer reconnect learns the new incarnation from it.
            let Ok(Message::Hello { node: from, incarnation }) = reader.read_message() else {
                return;
            };
            if ingress.read()[slot]
                .send((from, Message::Hello { node: from, incarnation }))
                .is_err()
            {
                return;
            }
            loop {
                match reader.read_message() {
                    Ok(msg) => {
                        slab_reuses.fetch_add(reader.take_slab_reuses(), Ordering::Relaxed);
                        // Look the queue up per frame: a restart swaps the slot, and
                        // this connection must start feeding the new incarnation.
                        if ingress.read()[slot].send((from, msg)).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        });
    }
}

impl Fabric for TcpFabric {
    type Sender = TcpFabricSender;

    fn take_receiver(&mut self, node: NodeId) -> Receiver<(NodeId, Message)> {
        self.receivers[node.index()].take().expect("receiver already taken")
    }

    fn sender(&self) -> TcpFabricSender {
        TcpFabricSender {
            addrs: self.addrs.clone(),
            edges: Arc::new(Mutex::new(HashMap::new())),
            incarnations: self.incarnations.clone(),
            // Cork counters are shared with the fabric (and every other sender it
            // hands out), so `transport_metrics` sees fabric-wide totals.
            corked_frames: self.corked_frames.clone(),
            corked_writes: self.corked_writes.clone(),
        }
    }

    fn note_restart(&mut self, node: NodeId, incarnation: u64) {
        self.set_incarnation(node, incarnation);
    }

    fn reset_receiver(&mut self, node: NodeId) -> Option<Receiver<(NodeId, Message)>> {
        let (tx, rx) = unbounded();
        // Swapping the slot drops the old sender; frames queued for the previous
        // incarnation go with it, and every live reader thread picks up the new
        // queue on its next frame.
        self.ingress.write()[node.index()] = tx;
        self.receivers[node.index()] = None;
        Some(rx)
    }

    fn transport_metrics(&self) -> NodeMetrics {
        NodeMetrics {
            recv_slab_reuse: self.recv_slab_reuses.load(Ordering::Relaxed),
            corked_frames_per_write: self.corked_frames.load(Ordering::Relaxed),
            ..NodeMetrics::default()
        }
    }
}

impl TcpFabricSender {
    /// Control frames that went out batched with at least one other frame in a single
    /// vectored write, across every edge (→ the `corked_frames_per_write` metric).
    pub fn corked_frames(&self) -> u64 {
        self.corked_frames.load(Ordering::Relaxed)
    }

    /// Multi-frame vectored writes issued across every edge.
    pub fn corked_writes(&self) -> u64 {
        self.corked_writes.load(Ordering::Relaxed)
    }

    /// Tear down every outgoing edge whose source is `from`. Writer threads exit as
    /// their queues disconnect; the next send from `from` reconnects and greets with
    /// a fresh [`Message::Hello`] — the restart path for an in-process node whose
    /// incarnation just changed.
    pub fn drop_edges_from(&self, from: NodeId) {
        self.edges.lock().retain(|&(f, _), _| f != from.0);
    }

    /// The queue feeding `(from, to)`'s writer thread, connecting (and greeting with
    /// [`Message::Hello`]) on first use.
    fn edge(&self, from: NodeId, to: NodeId) -> Option<Sender<Message>> {
        let key = (from.0, to.0);
        if let Some(existing) = self.edges.lock().get(&key) {
            return Some(existing.clone());
        }
        let mut stream = TcpStream::connect(self.addrs[to.index()]).ok()?;
        stream.set_nodelay(true).ok()?;
        let incarnation = self.incarnations.read().get(from.index()).copied().unwrap_or(0);
        write_frame_vectored(&mut stream, &Message::Hello { node: from, incarnation }).ok()?;
        let (tx, rx) = unbounded();
        let corked_frames = self.corked_frames.clone();
        let corked_writes = self.corked_writes.clone();
        thread::spawn(move || writer_loop(stream, rx, corked_frames, corked_writes));
        self.edges.lock().insert(key, tx.clone());
        Some(tx)
    }
}

/// Owns one edge's stream: blocks for the next frame, then drains whatever burst has
/// queued behind it through the cork, flushing when the queue goes empty so corking
/// never adds latency to an idle edge. Exits (closing the stream) on any write error;
/// the edge map entry is cleaned up by the next `send` that finds the channel dead.
fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<Message>,
    corked_frames: Arc<AtomicU64>,
    corked_writes: Arc<AtomicU64>,
) {
    let mut cork = Cork::new();
    loop {
        let Ok(msg) = rx.recv() else {
            let _ = cork.flush(&mut stream);
            return;
        };
        if cork.write(&mut stream, &msg).is_err() {
            return;
        }
        loop {
            match rx.try_recv() {
                Ok(next) => {
                    if cork.write(&mut stream, &next).is_err() {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    let _ = cork.flush(&mut stream);
                    return;
                }
            }
        }
        // Queue drained: flush so the last frames of the burst are not held back.
        if cork.flush(&mut stream).is_err() {
            return;
        }
        corked_frames.fetch_add(cork.take_corked_frames(), Ordering::Relaxed);
        corked_writes.fetch_add(cork.take_corked_writes(), Ordering::Relaxed);
    }
}

impl FabricSender for TcpFabricSender {
    fn send(&self, from: NodeId, to: NodeId, msg: Message) {
        let Some(tx) = self.edge(from, to) else { return };
        if let Err(crossbeam_channel::SendError(msg)) = tx.send(msg) {
            // Writer thread exited (peer died or write failed). Drop the edge so a
            // later send reconnects, and retry this message once on a fresh edge.
            self.edges.lock().remove(&(from.0, to.0));
            if let Some(tx) = self.edge(from, to) {
                let _ = tx.send(msg);
            }
        }
    }

    fn peer_down(&self, to: NodeId) {
        // Connections into a SIGKILLed process die silently: the first write after
        // its death lands in a half-closed socket and "succeeds", so error-driven
        // cleanup never fires. Drop every edge toward the peer on the detector's
        // verdict; the next send dials a fresh connection (which reaches the peer's
        // replacement process once it rebinds).
        self.edges.lock().retain(|&(_, t), _| t != to.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as StdDuration;

    /// Receive the next non-Hello frame (every edge now leads with a forwarded
    /// [`Message::Hello`]; tests that care about data frames skip it).
    fn recv_data(rx: &Receiver<(NodeId, Message)>) -> (NodeId, Message) {
        loop {
            let (from, msg) = rx.recv_timeout(StdDuration::from_secs(10)).unwrap();
            if !matches!(msg, Message::Hello { .. }) {
                return (from, msg);
            }
        }
    }

    #[test]
    fn tcp_fabric_delivers_messages_with_sender_identity() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(
            NodeId(0),
            NodeId(1),
            Message::PushBlock {
                object: ObjectId::from_name("tcp"),
                offset: 0,
                total_size: 4,
                payload: Payload::from_vec(vec![1, 2, 3, 4]),
                complete: true,
            },
        );
        let (from, msg) = recv_data(&rx);
        assert_eq!(from, NodeId(0));
        match msg {
            Message::PushBlock { payload, complete, .. } => {
                assert!(complete);
                assert_eq!(payload.as_bytes().unwrap().as_ref(), &[1, 2, 3, 4]);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn tcp_fabric_delivers_large_segmented_payloads_via_vectored_writes() {
        // A multi-megabyte payload split across several shared segments exercises the
        // scatter-gather write path end to end, including short-write resumption in
        // write_frame_vectored (socket buffers are far smaller than the frame).
        use bytes::Bytes;
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        let segments: Vec<Bytes> =
            (0..5u8).map(|i| Bytes::from(vec![i; 1024 * 1024 + i as usize])).collect();
        let payload = Payload::from_segments(segments.clone());
        let total = payload.len();
        sender.send(
            NodeId(0),
            NodeId(1),
            Message::PushBlock {
                object: ObjectId::from_name("sg-tcp"),
                offset: 0,
                total_size: total,
                payload: payload.clone(),
                complete: true,
            },
        );
        let (from, msg) = recv_data(&rx);
        assert_eq!(from, NodeId(0));
        match msg {
            Message::PushBlock { payload: received, total_size, .. } => {
                assert_eq!(total_size, total);
                // Logical equality across different segmentations: the receiver sees
                // one contiguous view of the sender's five segments.
                assert_eq!(received, payload);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn tcp_fabric_preserves_order_and_reuses_connections() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        for i in 0..50u64 {
            sender.send(
                NodeId(0),
                NodeId(1),
                Message::PushBlock {
                    object: ObjectId::from_name("seq"),
                    offset: i,
                    total_size: 50,
                    payload: Payload::synthetic(1),
                    complete: false,
                },
            );
        }
        let mut expected = 0;
        while expected < 50 {
            let (_, msg) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
            if let Message::PushBlock { offset, .. } = msg {
                assert_eq!(offset, expected);
                expected += 1;
            }
        }
    }

    #[test]
    fn tcp_fabric_corks_control_bursts() {
        // Flooding one edge with control frames from a tight loop must batch most of
        // them into multi-frame vectored writes: the writer thread drains whatever
        // queued behind the frame it is blocked on. Delivery stays ordered and
        // complete, and the cork counters record the batching.
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        const N: u64 = 2000;
        for i in 0..N {
            sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: i });
        }
        for i in 0..N {
            let (_, msg) = recv_data(&rx);
            match msg {
                Message::DirAck { seq, .. } => assert_eq!(seq, i),
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert!(
            sender.corked_frames() > 0,
            "a 2000-frame burst should produce at least one corked write"
        );
        assert!(sender.corked_writes() > 0);
        assert!(sender.corked_frames() >= 2 * sender.corked_writes());
    }

    #[test]
    fn tcp_fabric_reuses_receive_slabs() {
        // Lockstep send/consume: each payload is dropped before the next frame is
        // sent, so by the time the reader thread rolls to a new slab the previous
        // one is unpinned and comes back out of the pool.
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        for i in 0..20u64 {
            sender.send(
                NodeId(0),
                NodeId(1),
                Message::PushBlock {
                    object: ObjectId::from_name("slab-reuse"),
                    offset: i,
                    total_size: 20,
                    payload: Payload::from_vec(vec![i as u8; 1024 * 1024]),
                    complete: false,
                },
            );
            let (_, msg) = recv_data(&rx);
            assert!(matches!(msg, Message::PushBlock { .. }));
            drop(msg);
        }
        assert!(
            fabric.recv_slab_reuses() > 0,
            "lockstep consumption should let the reader recycle slabs"
        );
    }

    #[test]
    fn tcp_relay_hop_has_zero_payload_copies() {
        // The full relay hop a forwarding node performs over real sockets: TCP read →
        // slab decode → buffer append → read back → re-encode → TCP send, for a
        // 64 MiB object in 4 MiB blocks. Everything runs on this thread so the
        // thread-local debug copy counter sees the whole hop — it must stay at zero:
        // payload bytes are written once by the kernel into a receive slab and then
        // travel as shared views the rest of the way.
        use crate::framing::write_frame_vectored;
        use hoplite_core::{buffer::ProgressBuffer, copytrace};
        const BLOCK: usize = 4 * 1024 * 1024;
        const TOTAL: usize = 64 * 1024 * 1024;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let producer = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            for i in 0..TOTAL / BLOCK {
                let msg = Message::PushBlock {
                    object: ObjectId::from_name("relay64"),
                    offset: (i * BLOCK) as u64,
                    total_size: TOTAL as u64,
                    payload: Payload::from_vec(vec![(i % 251) as u8; BLOCK]),
                    complete: i == TOTAL / BLOCK - 1,
                };
                write_frame_vectored(&mut stream, &msg).unwrap();
            }
        });
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();
        let sink = thread::spawn(move || {
            let (mut s, _) = sink_listener.accept().unwrap();
            let mut received = 0u64;
            let mut buf = vec![0u8; 1 << 20];
            loop {
                match std::io::Read::read(&mut s, &mut buf) {
                    Ok(0) | Err(_) => return received,
                    Ok(n) => received += n as u64,
                }
            }
        });
        let (upstream, _) = listener.accept().unwrap();
        let mut downstream = TcpStream::connect(sink_addr).unwrap();
        downstream.set_nodelay(true).unwrap();
        copytrace::reset();
        let mut reader = FrameReader::new(upstream);
        let mut progress = ProgressBuffer::new(TOTAL as u64, false);
        let mut relayed = 0u64;
        while relayed < TOTAL as u64 {
            let Ok(Message::PushBlock { offset, payload, .. }) = reader.read_message() else {
                panic!("unexpected frame on the relay hop");
            };
            let len = payload.len();
            assert!(progress.append_at(offset, &payload));
            drop(payload); // the buffer holds the slab views now
            let out = progress.read(offset, len).unwrap();
            relayed += len;
            write_frame_vectored(
                &mut downstream,
                &Message::PushBlock {
                    object: ObjectId::from_name("relay64"),
                    offset,
                    total_size: TOTAL as u64,
                    payload: out,
                    complete: relayed == TOTAL as u64,
                },
            )
            .unwrap();
        }
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "TCP read → decode → append → read → re-encode → send must not memcpy payload"
        );
        assert_eq!(copytrace::copies(), 0);
        drop(downstream);
        producer.join().unwrap();
        assert!(sink.join().unwrap() >= TOTAL as u64);
    }

    #[test]
    fn hello_carries_incarnation_and_is_forwarded_to_the_node() {
        let mut fabric = TcpFabric::new(2).unwrap();
        fabric.set_incarnation(NodeId(0), 3);
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        let (from, msg) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId(0));
        assert_eq!(msg, Message::Hello { node: NodeId(0), incarnation: 3 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { .. }));
    }

    #[test]
    fn reset_receiver_reroutes_live_connections_to_the_new_queue() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { seq: 1, .. }));

        // Restart node 1: swap its queue. The already-established connection from
        // node 0 must start feeding the new queue without reconnecting.
        let rx2 = fabric.reset_receiver(NodeId(1)).expect("tcp fabric supports restarts");
        drop(rx);
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 2 });
        assert!(matches!(recv_data(&rx2).1, Message::DirAck { seq: 2, .. }));
    }

    #[test]
    fn bind_node_pair_talks_across_fabric_instances() {
        // Reserve two ports, then bind one single-node fabric per "process" against
        // the shared address map — the hoplited deployment shape in miniature.
        let reserve: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = reserve.iter().map(|l| l.local_addr().unwrap()).collect();
        drop(reserve);

        let mut a = TcpFabric::bind_node(NodeId(0), &addrs, 0).unwrap();
        let mut b = TcpFabric::bind_node(NodeId(1), &addrs, 2).unwrap();
        let rx_a = a.take_receiver(NodeId(0));
        let rx_b = b.take_receiver(NodeId(1));

        a.sender().send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 7 });
        let (from, hello) = rx_b.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!((from, hello), (NodeId(0), Message::Hello { node: NodeId(0), incarnation: 0 }));
        assert!(matches!(recv_data(&rx_b).1, Message::DirAck { seq: 7, .. }));

        // And the reverse direction advertises b's non-zero incarnation.
        b.sender().send(NodeId(1), NodeId(0), Message::DirAck { shard: 0, epoch: 1, seq: 8 });
        let (from, hello) = rx_a.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!((from, hello), (NodeId(1), Message::Hello { node: NodeId(1), incarnation: 2 }));
        assert!(matches!(recv_data(&rx_a).1, Message::DirAck { seq: 8, .. }));
    }

    #[test]
    fn bind_node_retries_a_port_still_held_by_a_dying_predecessor() {
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![holder.local_addr().unwrap()];
        let release = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            drop(holder);
        });
        // SO_REUSEADDR makes a same-process rebind of a *closed* listener succeed;
        // while `holder` is live the bind fails with AddrInUse and must be retried.
        let fabric = TcpFabric::bind_node(NodeId(0), &addrs, 1).unwrap();
        release.join().unwrap();
        assert_eq!(fabric.addresses()[0], addrs[0]);
    }

    #[test]
    fn drop_edges_from_reconnects_with_a_fresh_hello() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        let (_, hello) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(hello, Message::Hello { node: NodeId(0), incarnation: 0 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { .. }));

        // Node 0 "restarts": bump its incarnation and tear down its outgoing edges.
        // The next send reconnects and the peer sees the new incarnation.
        fabric.set_incarnation(NodeId(0), 1);
        sender.drop_edges_from(NodeId(0));
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 2 });
        let (_, hello) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(hello, Message::Hello { node: NodeId(0), incarnation: 1 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { seq: 2, .. }));
    }
}
