//! Wire framing for the real transports.
//!
//! The paper's implementation splits traffic into a gRPC control plane and a raw-TCP
//! data plane (§4). We mirror that split inside a single framed stream: every message
//! is encoded with a compact fixed binary layout — one tag byte selecting the variant,
//! followed by the variant's fields in declaration order. Bulk messages (`PushBlock`,
//! `ReduceBlock`) keep their historical tags so the payload bytes sit at a fixed,
//! copy-friendly offset. Each frame is length-prefixed.
//!
//! Frame layout:
//!
//! ```text
//! +----------------+--------+----------------------------+
//! | length: u32 BE | tag u8 | body (length - 1 bytes)    |
//! +----------------+--------+----------------------------+
//! tag  1 = PushBlock        (bulk)
//! tag  2 = ReduceBlock      (bulk)
//! tag  3+ = control messages (one tag per variant, see `tags`)
//! ```
//!
//! Integers are big-endian. Variable-length fields (`Vec`, `String`, payloads) are
//! length-prefixed. The codec is hand-rolled and dependency-free; the decode side
//! bounds-checks every read and rejects trailing or truncated bytes.

use bytes::Bytes;
use hoplite_core::config::MAX_FRAME_LEN;
use hoplite_core::prelude::*;
use hoplite_core::protocol::ReduceParent;
use hoplite_core::reduce::{DType, ReduceOp};
// The core prelude exports its own single-parameter `Result` alias; framing uses the
// standard two-parameter form.
use std::result::Result;

/// Errors produced while encoding or decoding frames.
#[derive(Debug)]
pub enum FrameError {
    /// The frame is shorter than its header or otherwise malformed.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn malformed(what: &str) -> FrameError {
    FrameError::Malformed(what.to_string())
}

/// Message tags. Bulk tags 1/2 are stable; control tags follow.
mod tags {
    pub const PUSH_BLOCK: u8 = 1;
    pub const REDUCE_BLOCK: u8 = 2;
    pub const DIR_REGISTER: u8 = 3;
    pub const DIR_PUT_INLINE: u8 = 4;
    pub const DIR_UNREGISTER: u8 = 5;
    pub const DIR_QUERY: u8 = 6;
    pub const DIR_QUERY_REPLY: u8 = 7;
    pub const DIR_SUBSCRIBE: u8 = 8;
    pub const DIR_PUBLISH: u8 = 9;
    pub const DIR_TRANSFER_DONE: u8 = 10;
    pub const DIR_DELETE: u8 = 11;
    pub const STORE_RELEASE: u8 = 12;
    pub const PULL_REQUEST: u8 = 13;
    pub const PULL_CANCEL: u8 = 14;
    pub const PULL_ERROR: u8 = 15;
    pub const REDUCE_INSTRUCTION: u8 = 16;
    pub const REDUCE_DONE: u8 = 17;
    pub const DIR_UNSUBSCRIBE: u8 = 18;
    pub const DIR_REPLICATE: u8 = 19;
    pub const REDUCE_RELEASE: u8 = 20;
    pub const DIR_ACK: u8 = 21;
    pub const DIR_SNAPSHOT_REQUEST: u8 = 22;
    // 23 was the full-state `DirSnapshot`, replaced by the chunked stream; reserved
    // so a frame carrying it is rejected as an unknown tag.
    pub const DIR_RESYNCED: u8 = 24;
    pub const DIR_CONFIRM: u8 = 25;
    pub const HELLO: u8 = 26;
    pub const DIR_SNAPSHOT_CHUNK: u8 = 27;
    pub const DIR_RESYNC_DELTA: u8 = 28;
    pub const PEER_FAILURE_NOTICE: u8 = 29;
    pub const MEMBERSHIP_DIGEST: u8 = 30;
    pub const PING: u8 = 31;
    pub const ACK: u8 = 32;
    pub const PING_REQ: u8 = 33;
}

/// Sub-tags selecting the [`ConfirmKind`] variant inside a `DirConfirm` frame.
mod confirm_tags {
    pub const LOCATION: u8 = 0;
    pub const INLINE: u8 = 1;
    pub const SUBSCRIPTION: u8 = 2;
}

/// Sub-tags selecting the [`DirOp`] variant inside a `DirReplicate` frame.
mod op_tags {
    pub const REGISTER: u8 = 0;
    pub const PUT_INLINE: u8 = 1;
    pub const UNREGISTER: u8 = 2;
    pub const QUERY: u8 = 3;
    pub const SUBSCRIBE: u8 = 4;
    pub const UNSUBSCRIBE: u8 = 5;
    pub const TRANSFER_DONE: u8 = 6;
    pub const DELETE: u8 = 7;
}

// ---------------------------------------------------------- scatter-gather frames --

/// The copy threshold on both sides of the wire. On encode, shorter payload segments
/// are copied into the adjacent contiguous run, so control messages and tiny inline
/// payloads stay one part (one `write` syscall on the TCP fabric, no iovec
/// bookkeeping). On decode, shorter payloads are copied out of the receive slab, so a
/// small object held by the store or the directory never pins a block-sized slab.
/// Bulk blocks ride as shared references with zero payload memcpys. Tune it to the
/// crossover point where one extra iovec beats one memcpy on the target machine —
/// a few KiB on commodity Linux; raising it trades copies for fewer syscalls.
pub const GATHER_MIN_SEGMENT: usize = 4 * 1024;

/// A wire frame encoded as scatter-gather parts: the length-prefixed `header` holds
/// the tag and every fixed field, and `segments` holds the bulk payload as shared,
/// zero-copy references (for a forwarded block: the very [`Bytes`] views sitting in
/// the sender's `ProgressBuffer`, uncoalesced). Flattening `header ++ segments`
/// ([`EncodedFrame::to_contiguous`]) yields the contiguous wire frame: the length
/// prefix followed by a body [`decode_body`] accepts.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Length prefix, tag, and fixed fields (plus any payload bytes below the
    /// [`GATHER_MIN_SEGMENT`] coalesce threshold).
    pub header: Bytes,
    /// Bulk payload segments, in wire order, shared zero-copy with their producers.
    pub segments: Vec<Bytes>,
}

impl EncodedFrame {
    /// Total frame length in bytes (length prefix included).
    pub fn frame_len(&self) -> usize {
        self.header.len() + self.segments.iter().map(|s| s.len()).sum::<usize>()
    }

    /// All parts in wire order (header first).
    pub fn parts(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.header).chain(self.segments.iter())
    }

    /// Flatten into one contiguous frame (tests and diagnostics; the send path never
    /// needs this).
    pub fn to_contiguous(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len());
        for part in self.parts() {
            out.extend_from_slice(part);
        }
        out
    }
}

/// Internal encode sink: an ordered list of parts, either owned contiguous runs or
/// shared payload segments. With `gather` off every byte lands in one owned run (the
/// contiguous encoding the tests keep as a reference); with `gather` on, payload
/// segments at or above [`GATHER_MIN_SEGMENT`] are adopted by reference.
enum Part {
    Owned(Vec<u8>),
    Shared(Bytes),
}

struct FrameWriter {
    gather: bool,
    parts: Vec<Part>,
}

impl FrameWriter {
    fn new(gather: bool) -> FrameWriter {
        FrameWriter { gather, parts: vec![Part::Owned(Vec::new())] }
    }

    /// The current owned run, extended after any shared segment.
    fn run(&mut self) -> &mut Vec<u8> {
        if !matches!(self.parts.last(), Some(Part::Owned(_))) {
            self.parts.push(Part::Owned(Vec::new()));
        }
        match self.parts.last_mut() {
            Some(Part::Owned(v)) => v,
            _ => unreachable!("an owned run was just ensured"),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.run().extend_from_slice(bytes);
    }

    fn put_byte(&mut self, byte: u8) {
        self.run().push(byte);
    }

    /// Adopt a shared payload segment by reference, or copy it into the current run
    /// when gathering is off / the segment is under the coalesce threshold. The copy
    /// branch is the *only* place encode touches payload bytes, and it shows up in
    /// the debug copy tally.
    fn put_shared(&mut self, segment: &Bytes) {
        if self.gather && segment.len() >= GATHER_MIN_SEGMENT {
            self.parts.push(Part::Shared(segment.clone()));
        } else {
            hoplite_core::copytrace::record(segment.len());
            self.put(segment);
        }
    }

    fn body_len(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Owned(v) => v.len(),
                Part::Shared(b) => b.len(),
            })
            .sum()
    }

    /// The contiguous body (gather must be off: everything is one owned run).
    #[cfg(test)]
    fn into_contiguous(mut self) -> Vec<u8> {
        debug_assert!(!self.gather);
        debug_assert_eq!(self.parts.len(), 1);
        match self.parts.pop() {
            Some(Part::Owned(v)) => v,
            _ => unreachable!("contiguous writer holds exactly one owned run"),
        }
    }

    /// Assemble a length-prefixed scatter-gather frame.
    fn into_frame(self) -> Result<EncodedFrame, FrameError> {
        let body_len = self.body_len();
        let len32 =
            u32::try_from(body_len).map_err(|_| malformed("frame body exceeds u32 length"))?;
        let mut iter = self.parts.into_iter();
        let first = match iter.next() {
            Some(Part::Owned(v)) => v,
            _ => unreachable!("the writer is seeded with an owned run"),
        };
        let mut header = Vec::with_capacity(4 + first.len());
        header.extend_from_slice(&len32.to_be_bytes());
        header.extend_from_slice(&first);
        let segments = iter
            .map(|p| match p {
                Part::Owned(v) => Bytes::from(v),
                Part::Shared(b) => b,
            })
            .collect();
        Ok(EncodedFrame { header: Bytes::from(header), segments })
    }
}

// ------------------------------------------------------------------ write helpers --

fn put_opt_u64(out: &mut FrameWriter, v: Option<u64>) {
    match v {
        None => out.put_byte(0),
        Some(v) => {
            out.put_byte(1);
            out.put(&v.to_be_bytes());
        }
    }
}

fn put_opt_node(out: &mut FrameWriter, v: Option<NodeId>) {
    match v {
        None => out.put_byte(0),
        Some(n) => {
            out.put_byte(1);
            out.put(&n.0.to_be_bytes());
        }
    }
}

fn put_opt_object(out: &mut FrameWriter, v: Option<ObjectId>) {
    match v {
        None => out.put_byte(0),
        Some(o) => {
            out.put_byte(1);
            out.put(&o.0);
        }
    }
}

fn put_digest(out: &mut FrameWriter, entries: &[(NodeId, u64, bool)]) {
    put_u64(out, entries.len() as u64);
    for (node, incarnation, alive) in entries {
        put_node(out, *node);
        put_u64(out, *incarnation);
        put_bool(out, *alive);
    }
}

fn put_gossip(out: &mut FrameWriter, entries: &[GossipEntry]) {
    put_u64(out, entries.len() as u64);
    for (node, incarnation, state) in entries {
        put_node(out, *node);
        put_u64(out, *incarnation);
        put_u8(out, state.to_wire());
    }
}

fn put_snapshot(out: &mut FrameWriter, state: &ShardSnapshot) {
    put_u64(out, state.entries.len() as u64);
    for e in &state.entries {
        put_object(out, e.object);
        put_opt_u64(out, e.size);
        put_u64(out, e.locations.len() as u64);
        for (holder, status, leased_to) in &e.locations {
            put_node(out, *holder);
            put_status(out, *status);
            put_opt_node(out, *leased_to);
        }
        match &e.inline {
            None => put_u8(out, 0),
            Some(p) => {
                put_u8(out, 1);
                put_payload(out, p);
            }
        }
        put_u64(out, e.pending.len() as u64);
        for (requester, query_id, exclude) in &e.pending {
            put_node(out, *requester);
            put_u64(out, *query_id);
            put_nodes(out, exclude);
        }
        put_u64(out, e.inline_stamp);
        put_nodes(out, &e.subscribers);
        put_u64(out, e.pulls.len() as u64);
        for (receiver, sender) in &e.pulls {
            put_node(out, *receiver);
            put_node(out, *sender);
        }
        put_bool(out, e.deleted);
    }
}

fn put_u8(out: &mut FrameWriter, v: u8) {
    out.put_byte(v);
}

fn put_u32(out: &mut FrameWriter, v: u32) {
    out.put(&v.to_be_bytes());
}

fn put_u64(out: &mut FrameWriter, v: u64) {
    out.put(&v.to_be_bytes());
}

fn put_bool(out: &mut FrameWriter, v: bool) {
    out.put_byte(u8::from(v));
}

fn put_object(out: &mut FrameWriter, object: ObjectId) {
    out.put(&object.0);
}

fn put_node(out: &mut FrameWriter, node: NodeId) {
    put_u32(out, node.0);
}

fn put_status(out: &mut FrameWriter, status: ObjectStatus) {
    put_u8(
        out,
        match status {
            ObjectStatus::Partial => 0,
            ObjectStatus::Complete => 1,
        },
    );
}

fn put_spec(out: &mut FrameWriter, spec: ReduceSpec) {
    put_u8(
        out,
        match spec.op {
            ReduceOp::Sum => 0,
            ReduceOp::Min => 1,
            ReduceOp::Max => 2,
        },
    );
    put_u8(
        out,
        match spec.dtype {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
        },
    );
}

fn put_string(out: &mut FrameWriter, s: &str) {
    put_u64(out, s.len() as u64);
    out.put(s.as_bytes());
}

fn put_nodes(out: &mut FrameWriter, nodes: &[NodeId]) {
    put_u64(out, nodes.len() as u64);
    for &n in nodes {
        put_node(out, n);
    }
}

/// Encode a payload: a kind byte, the total length, then the bytes. Real payloads —
/// contiguous or segmented — produce identical wire bytes; under a gathering writer
/// the segments ride as shared references instead of being copied, which is the whole
/// point of the scatter-gather send path.
fn put_payload(out: &mut FrameWriter, payload: &Payload) {
    if payload.is_synthetic() {
        put_u8(out, 1);
        put_u64(out, payload.len());
        return;
    }
    put_u8(out, 0);
    put_u64(out, payload.len());
    for segment in payload.segments() {
        out.put_shared(segment);
    }
}

fn put_dir_op(out: &mut FrameWriter, op: &DirOp) {
    match op {
        DirOp::Register { object, holder, status, size } => {
            put_u8(out, op_tags::REGISTER);
            put_object(out, *object);
            put_node(out, *holder);
            put_status(out, *status);
            put_u64(out, *size);
        }
        DirOp::PutInline { object, holder, payload } => {
            put_u8(out, op_tags::PUT_INLINE);
            put_object(out, *object);
            put_node(out, *holder);
            put_payload(out, payload);
        }
        DirOp::Unregister { object, holder } => {
            put_u8(out, op_tags::UNREGISTER);
            put_object(out, *object);
            put_node(out, *holder);
        }
        DirOp::Query { object, requester, query_id, exclude } => {
            put_u8(out, op_tags::QUERY);
            put_object(out, *object);
            put_node(out, *requester);
            put_u64(out, *query_id);
            put_nodes(out, exclude);
        }
        DirOp::Subscribe { object, subscriber } => {
            put_u8(out, op_tags::SUBSCRIBE);
            put_object(out, *object);
            put_node(out, *subscriber);
        }
        DirOp::Unsubscribe { object, subscriber } => {
            put_u8(out, op_tags::UNSUBSCRIBE);
            put_object(out, *object);
            put_node(out, *subscriber);
        }
        DirOp::TransferDone { object, receiver, sender } => {
            put_u8(out, op_tags::TRANSFER_DONE);
            put_object(out, *object);
            put_node(out, *receiver);
            put_node(out, *sender);
        }
        DirOp::Delete { object } => {
            put_u8(out, op_tags::DELETE);
            put_object(out, *object);
        }
    }
}

// ------------------------------------------------------------------- read helpers --

/// Bounds-checked cursor over a received frame body.
///
/// The cursor borrows the frame as a shared [`Bytes`] buffer so payload fields of at
/// least [`GATHER_MIN_SEGMENT`] bytes decode as zero-copy sub-slices of the receive
/// buffer instead of fresh allocations — the difference between ~1 GiB/s and
/// encode-parity decode throughput on 4 MiB blocks (see `BENCH_NOTES.md`).
struct Reader<'a> {
    buf: &'a Bytes,
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a Bytes, at: usize) -> Reader<'a> {
        Reader { buf, at }
    }

    /// End offset of an `n`-byte read, or an error when it overflows or runs past the
    /// frame (a corrupt or hostile length field must surface as `Malformed`, never as
    /// an arithmetic panic — these bytes come straight off the network).
    fn end_of(&self, n: usize) -> Result<usize, FrameError> {
        match self.at.checked_add(n) {
            Some(end) if end <= self.buf.len() => Ok(end),
            _ => Err(malformed("truncated field")),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.end_of(n)?;
        let slice = &self.buf.as_slice()[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// Take `n` bytes as a shared sub-slice of the frame (no copy).
    fn take_shared(&mut self, n: usize) -> Result<Bytes, FrameError> {
        let end = self.end_of(n)?;
        let shared = self.buf.slice(self.at..end);
        self.at = end;
        Ok(shared)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize_checked(&mut self) -> Result<usize, FrameError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| malformed("length overflows usize"))
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        Ok(self.u8()? != 0)
    }

    fn object(&mut self) -> Result<ObjectId, FrameError> {
        Ok(ObjectId(self.take(16)?.try_into().expect("16 bytes")))
    }

    fn node(&mut self) -> Result<NodeId, FrameError> {
        Ok(NodeId(self.u32()?))
    }

    fn status(&mut self) -> Result<ObjectStatus, FrameError> {
        match self.u8()? {
            0 => Ok(ObjectStatus::Partial),
            1 => Ok(ObjectStatus::Complete),
            other => Err(malformed(&format!("unknown object status {other}"))),
        }
    }

    fn spec(&mut self) -> Result<ReduceSpec, FrameError> {
        let op = match self.u8()? {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            2 => ReduceOp::Max,
            other => return Err(malformed(&format!("unknown reduce op {other}"))),
        };
        let dtype = match self.u8()? {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I32,
            3 => DType::I64,
            other => return Err(malformed(&format!("unknown dtype {other}"))),
        };
        Ok(ReduceSpec { op, dtype })
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.usize_checked()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8 string"))
    }

    fn nodes(&mut self) -> Result<Vec<NodeId>, FrameError> {
        let len = self.usize_checked()?;
        if len > self.buf.len() {
            return Err(malformed("node list longer than frame"));
        }
        (0..len).map(|_| self.node()).collect()
    }

    fn payload(&mut self) -> Result<Payload, FrameError> {
        match self.u8()? {
            0 => {
                let len = self.usize_checked()?;
                if len >= GATHER_MIN_SEGMENT {
                    return Ok(Payload::Bytes(self.take_shared(len)?));
                }
                // Copied so a small payload cannot pin the receive slab it arrived in
                // (the decode twin of `FrameWriter::put_shared`'s copy branch).
                let owned = Bytes::copy_from_slice(self.take(len)?);
                hoplite_core::copytrace::record(len);
                Ok(Payload::Bytes(owned))
            }
            1 => Ok(Payload::synthetic(self.u64()?)),
            other => Err(malformed(&format!("unknown payload kind {other}"))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(malformed(&format!("unknown option flag {other}"))),
        }
    }

    fn opt_node(&mut self) -> Result<Option<NodeId>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.node()?)),
            other => Err(malformed(&format!("unknown option flag {other}"))),
        }
    }

    fn opt_object(&mut self) -> Result<Option<ObjectId>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.object()?)),
            other => Err(malformed(&format!("unknown option flag {other}"))),
        }
    }

    fn digest(&mut self) -> Result<Vec<(NodeId, u64, bool)>, FrameError> {
        // Minimum per entry: 4 node + 8 incarnation + 1 alive flag.
        let n = self.count(13)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((self.node()?, self.u64()?, self.bool()?));
        }
        Ok(entries)
    }

    fn gossip(&mut self) -> Result<Vec<GossipEntry>, FrameError> {
        // Minimum per entry: 4 node + 8 incarnation + 1 state byte.
        let n = self.count(13)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let node = self.node()?;
            let incarnation = self.u64()?;
            let raw = self.u8()?;
            let state = GossipState::from_wire(raw)
                .ok_or_else(|| malformed(&format!("unknown gossip state {raw}")))?;
            entries.push((node, incarnation, state));
        }
        Ok(entries)
    }

    /// Bounds-check a count field against the *remaining* frame bytes, scaled by the
    /// minimum wire size of one element, before the caller reserves — so a corrupt
    /// or hostile count cannot drive a huge `Vec::with_capacity` (a count of `n`
    /// elements that each need at least `min_elem` encoded bytes cannot be honest
    /// unless `n * min_elem` bytes are actually left in the frame).
    fn count(&mut self, min_elem: usize) -> Result<usize, FrameError> {
        let n = self.usize_checked()?;
        let remaining = self.buf.len() - self.at;
        match n.checked_mul(min_elem.max(1)) {
            Some(needed) if needed <= remaining => Ok(n),
            _ => Err(malformed("list longer than frame")),
        }
    }

    fn snapshot(&mut self) -> Result<ShardSnapshot, FrameError> {
        // Minimum encoded sizes: entry = 16 object + 1 size flag + 3×8 counts +
        // 1 inline flag + 8 inline stamp + 1 deleted + 8 subscriber count;
        // location = 4 node + 1 status + 1 lease flag; pending = 4 node + 8 id +
        // 8 count; pull = 2×4.
        let num_entries = self.count(59)?;
        let mut entries = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            let object = self.object()?;
            let size = self.opt_u64()?;
            let num_locations = self.count(6)?;
            let mut locations = Vec::with_capacity(num_locations);
            for _ in 0..num_locations {
                locations.push((self.node()?, self.status()?, self.opt_node()?));
            }
            let inline = match self.u8()? {
                0 => None,
                1 => Some(self.payload()?),
                other => return Err(malformed(&format!("unknown inline flag {other}"))),
            };
            let num_pending = self.count(20)?;
            let mut pending = Vec::with_capacity(num_pending);
            for _ in 0..num_pending {
                pending.push((self.node()?, self.u64()?, self.nodes()?));
            }
            let inline_stamp = self.u64()?;
            let subscribers = self.nodes()?;
            let num_pulls = self.count(8)?;
            let mut pulls = Vec::with_capacity(num_pulls);
            for _ in 0..num_pulls {
                pulls.push((self.node()?, self.node()?));
            }
            let deleted = self.bool()?;
            entries.push(SnapshotEntry {
                object,
                size,
                locations,
                inline,
                inline_stamp,
                pending,
                subscribers,
                pulls,
                deleted,
            });
        }
        Ok(ShardSnapshot { entries })
    }

    fn dir_op(&mut self) -> Result<DirOp, FrameError> {
        match self.u8()? {
            op_tags::REGISTER => Ok(DirOp::Register {
                object: self.object()?,
                holder: self.node()?,
                status: self.status()?,
                size: self.u64()?,
            }),
            op_tags::PUT_INLINE => Ok(DirOp::PutInline {
                object: self.object()?,
                holder: self.node()?,
                payload: self.payload()?,
            }),
            op_tags::UNREGISTER => {
                Ok(DirOp::Unregister { object: self.object()?, holder: self.node()? })
            }
            op_tags::QUERY => Ok(DirOp::Query {
                object: self.object()?,
                requester: self.node()?,
                query_id: self.u64()?,
                exclude: self.nodes()?,
            }),
            op_tags::SUBSCRIBE => {
                Ok(DirOp::Subscribe { object: self.object()?, subscriber: self.node()? })
            }
            op_tags::UNSUBSCRIBE => {
                Ok(DirOp::Unsubscribe { object: self.object()?, subscriber: self.node()? })
            }
            op_tags::TRANSFER_DONE => Ok(DirOp::TransferDone {
                object: self.object()?,
                receiver: self.node()?,
                sender: self.node()?,
            }),
            op_tags::DELETE => Ok(DirOp::Delete { object: self.object()? }),
            other => Err(malformed(&format!("unknown directory op tag {other}"))),
        }
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes after message"))
        }
    }
}

// ------------------------------------------------------------------------- encode --

/// Encode a message body (without the outer length prefix) as one contiguous buffer.
/// The reference encoding the tests check [`encode_frame_vectored`] against — it
/// memcpys bulk payloads into the result, which the send path never does.
#[cfg(test)]
pub fn encode_body(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let mut w = FrameWriter::new(false);
    encode_message(msg, &mut w);
    Ok(w.into_contiguous())
}

/// Write one message into a frame writer (shared by the contiguous and the
/// scatter-gather entry points, so the two encodings agree byte for byte).
fn encode_message(msg: &Message, out: &mut FrameWriter) {
    match msg {
        Message::PushBlock { object, offset, total_size, payload, complete } => {
            put_u8(out, tags::PUSH_BLOCK);
            put_object(out, *object);
            put_u64(out, *offset);
            put_u64(out, *total_size);
            put_bool(out, *complete);
            put_payload(out, payload);
        }
        Message::ReduceBlock {
            target,
            to_slot,
            from_slot,
            parent_epoch,
            block_index,
            object_size,
            payload,
        } => {
            put_u8(out, tags::REDUCE_BLOCK);
            put_object(out, *target);
            put_u64(out, *to_slot as u64);
            put_u64(out, *from_slot as u64);
            put_u64(out, *parent_epoch);
            put_u64(out, *block_index);
            put_u64(out, *object_size);
            put_payload(out, payload);
        }
        Message::DirRegister { object, holder, status, size } => {
            put_u8(out, tags::DIR_REGISTER);
            put_object(out, *object);
            put_node(out, *holder);
            put_status(out, *status);
            put_u64(out, *size);
        }
        Message::DirPutInline { object, holder, payload } => {
            put_u8(out, tags::DIR_PUT_INLINE);
            put_object(out, *object);
            put_node(out, *holder);
            put_payload(out, payload);
        }
        Message::DirUnregister { object, holder } => {
            put_u8(out, tags::DIR_UNREGISTER);
            put_object(out, *object);
            put_node(out, *holder);
        }
        Message::DirQuery { object, requester, query_id, exclude } => {
            put_u8(out, tags::DIR_QUERY);
            put_object(out, *object);
            put_node(out, *requester);
            put_u64(out, *query_id);
            put_nodes(out, exclude);
        }
        Message::DirQueryReply { object, query_id, result } => {
            put_u8(out, tags::DIR_QUERY_REPLY);
            put_object(out, *object);
            put_u64(out, *query_id);
            match result {
                QueryResult::Inline { payload } => {
                    put_u8(out, 0);
                    put_payload(out, payload);
                }
                QueryResult::Location { node, status, size } => {
                    put_u8(out, 1);
                    put_node(out, *node);
                    put_status(out, *status);
                    put_u64(out, *size);
                }
                QueryResult::Deleted => put_u8(out, 2),
            }
        }
        Message::DirSubscribe { object, subscriber } => {
            put_u8(out, tags::DIR_SUBSCRIBE);
            put_object(out, *object);
            put_node(out, *subscriber);
        }
        Message::DirUnsubscribe { object, subscriber } => {
            put_u8(out, tags::DIR_UNSUBSCRIBE);
            put_object(out, *object);
            put_node(out, *subscriber);
        }
        Message::DirReplicate { shard, epoch, seq, op } => {
            put_u8(out, tags::DIR_REPLICATE);
            put_u64(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, *seq);
            put_dir_op(out, op);
        }
        Message::DirAck { shard, epoch, seq } => {
            put_u8(out, tags::DIR_ACK);
            put_u64(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, *seq);
        }
        Message::DirSnapshotRequest {
            shard,
            requester,
            restart,
            after,
            have_epoch,
            have_seq,
            digest,
        } => {
            put_u8(out, tags::DIR_SNAPSHOT_REQUEST);
            put_u64(out, *shard);
            put_node(out, *requester);
            put_bool(out, *restart);
            put_opt_object(out, *after);
            put_u64(out, *have_epoch);
            put_u64(out, *have_seq);
            put_digest(out, digest);
        }
        Message::DirSnapshotChunk { shard, epoch, seq, rank, done, state } => {
            put_u8(out, tags::DIR_SNAPSHOT_CHUNK);
            put_u64(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, *seq);
            put_u64(out, *rank);
            put_bool(out, *done);
            put_snapshot(out, state);
        }
        Message::DirResyncDelta { shard, epoch, ops, done } => {
            put_u8(out, tags::DIR_RESYNC_DELTA);
            put_u64(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, ops.len() as u64);
            for (seq, op) in ops {
                put_u64(out, *seq);
                put_dir_op(out, op);
            }
            put_bool(out, *done);
        }
        Message::DirResynced { node, incarnation } => {
            put_u8(out, tags::DIR_RESYNCED);
            put_node(out, *node);
            put_u64(out, *incarnation);
        }
        Message::DirConfirm { object, kind } => {
            put_u8(out, tags::DIR_CONFIRM);
            put_object(out, *object);
            match kind {
                ConfirmKind::Location { status } => {
                    put_u8(out, confirm_tags::LOCATION);
                    put_status(out, *status);
                }
                ConfirmKind::Inline => put_u8(out, confirm_tags::INLINE),
                ConfirmKind::Subscription => put_u8(out, confirm_tags::SUBSCRIPTION),
            }
        }
        Message::DirPublish { object, holder, status, size } => {
            put_u8(out, tags::DIR_PUBLISH);
            put_object(out, *object);
            put_node(out, *holder);
            put_status(out, *status);
            put_u64(out, *size);
        }
        Message::DirTransferDone { object, receiver, sender } => {
            put_u8(out, tags::DIR_TRANSFER_DONE);
            put_object(out, *object);
            put_node(out, *receiver);
            put_node(out, *sender);
        }
        Message::DirDelete { object } => {
            put_u8(out, tags::DIR_DELETE);
            put_object(out, *object);
        }
        Message::StoreRelease { object } => {
            put_u8(out, tags::STORE_RELEASE);
            put_object(out, *object);
        }
        Message::PullRequest { object, requester, offset } => {
            put_u8(out, tags::PULL_REQUEST);
            put_object(out, *object);
            put_node(out, *requester);
            put_u64(out, *offset);
        }
        Message::PullCancel { object, requester } => {
            put_u8(out, tags::PULL_CANCEL);
            put_object(out, *object);
            put_node(out, *requester);
        }
        Message::PullError { object, reason } => {
            put_u8(out, tags::PULL_ERROR);
            put_object(out, *object);
            put_string(out, reason);
        }
        Message::ReduceInstruction(instr) => {
            put_u8(out, tags::REDUCE_INSTRUCTION);
            put_object(out, instr.target);
            put_node(out, instr.coordinator);
            put_u64(out, instr.slot as u64);
            put_object(out, instr.own_object);
            put_spec(out, instr.spec);
            put_u64(out, instr.object_size);
            put_u64(out, instr.block_size);
            put_u64(out, instr.num_inputs as u64);
            put_u64(out, instr.epoch);
            match &instr.parent {
                None => put_u8(out, 0),
                Some(p) => {
                    put_u8(out, 1);
                    put_u64(out, p.slot as u64);
                    put_node(out, p.node);
                    put_u64(out, p.epoch);
                }
            }
            put_u64(out, instr.children.len() as u64);
            for (slot, node, object) in &instr.children {
                put_u64(out, *slot as u64);
                put_node(out, *node);
                put_object(out, *object);
            }
            put_bool(out, instr.is_root);
            put_u64(out, instr.total_slots as u64);
        }
        Message::ReduceDone { target, root } => {
            put_u8(out, tags::REDUCE_DONE);
            put_object(out, *target);
            put_node(out, *root);
        }
        Message::ReduceRelease { target } => {
            put_u8(out, tags::REDUCE_RELEASE);
            put_object(out, *target);
        }
        Message::PeerFailureNotice { node, incarnation } => {
            put_u8(out, tags::PEER_FAILURE_NOTICE);
            put_node(out, *node);
            put_u64(out, *incarnation);
        }
        Message::MembershipDigest { entries } => {
            put_u8(out, tags::MEMBERSHIP_DIGEST);
            put_digest(out, entries);
        }
        Message::Hello { node, incarnation } => {
            put_u8(out, tags::HELLO);
            put_node(out, *node);
            put_u64(out, *incarnation);
        }
        Message::Ping { origin, probe_id, gossip } => {
            put_u8(out, tags::PING);
            put_node(out, *origin);
            put_u64(out, *probe_id);
            put_gossip(out, gossip);
        }
        Message::Ack { probe_id, gossip } => {
            put_u8(out, tags::ACK);
            put_u64(out, *probe_id);
            put_gossip(out, gossip);
        }
        Message::PingReq { target, probe_id, gossip } => {
            put_u8(out, tags::PING_REQ);
            put_node(out, *target);
            put_u64(out, *probe_id);
            put_gossip(out, gossip);
        }
    }
}

// ------------------------------------------------------------------------- decode --

/// Decode a message body: one frame without its length prefix.
///
/// The body is taken as a shared [`Bytes`] buffer so payloads of at least
/// [`GATHER_MIN_SEGMENT`] bytes (`PushBlock`, `ReduceBlock`, larger inline objects)
/// decode as zero-copy views into it, and shorter ones as owned copies; callers that
/// own a `Vec<u8>` convert with `Bytes::from(vec)` (free) rather than re-allocating.
pub fn decode_body(buf: &Bytes) -> Result<Message, FrameError> {
    let tag = *buf.first().ok_or_else(|| malformed("empty frame"))?;
    let mut r = Reader::new(buf, 1);
    let msg = match tag {
        tags::PUSH_BLOCK => Message::PushBlock {
            object: r.object()?,
            offset: r.u64()?,
            total_size: r.u64()?,
            complete: r.bool()?,
            payload: r.payload()?,
        },
        tags::REDUCE_BLOCK => Message::ReduceBlock {
            target: r.object()?,
            to_slot: r.usize_checked()?,
            from_slot: r.usize_checked()?,
            parent_epoch: r.u64()?,
            block_index: r.u64()?,
            object_size: r.u64()?,
            payload: r.payload()?,
        },
        tags::DIR_REGISTER => Message::DirRegister {
            object: r.object()?,
            holder: r.node()?,
            status: r.status()?,
            size: r.u64()?,
        },
        tags::DIR_PUT_INLINE => {
            Message::DirPutInline { object: r.object()?, holder: r.node()?, payload: r.payload()? }
        }
        tags::DIR_UNREGISTER => Message::DirUnregister { object: r.object()?, holder: r.node()? },
        tags::DIR_QUERY => Message::DirQuery {
            object: r.object()?,
            requester: r.node()?,
            query_id: r.u64()?,
            exclude: r.nodes()?,
        },
        tags::DIR_QUERY_REPLY => {
            let object = r.object()?;
            let query_id = r.u64()?;
            let result = match r.u8()? {
                0 => QueryResult::Inline { payload: r.payload()? },
                1 => QueryResult::Location { node: r.node()?, status: r.status()?, size: r.u64()? },
                2 => QueryResult::Deleted,
                other => return Err(malformed(&format!("unknown query result {other}"))),
            };
            Message::DirQueryReply { object, query_id, result }
        }
        tags::DIR_SUBSCRIBE => Message::DirSubscribe { object: r.object()?, subscriber: r.node()? },
        tags::DIR_UNSUBSCRIBE => {
            Message::DirUnsubscribe { object: r.object()?, subscriber: r.node()? }
        }
        tags::DIR_REPLICATE => Message::DirReplicate {
            shard: r.u64()?,
            epoch: r.u64()?,
            seq: r.u64()?,
            op: r.dir_op()?,
        },
        tags::DIR_ACK => Message::DirAck { shard: r.u64()?, epoch: r.u64()?, seq: r.u64()? },
        tags::DIR_SNAPSHOT_REQUEST => Message::DirSnapshotRequest {
            shard: r.u64()?,
            requester: r.node()?,
            restart: r.bool()?,
            after: r.opt_object()?,
            have_epoch: r.u64()?,
            have_seq: r.u64()?,
            digest: r.digest()?,
        },
        tags::DIR_SNAPSHOT_CHUNK => Message::DirSnapshotChunk {
            shard: r.u64()?,
            epoch: r.u64()?,
            seq: r.u64()?,
            rank: r.u64()?,
            done: r.bool()?,
            state: r.snapshot()?,
        },
        tags::DIR_RESYNC_DELTA => {
            let shard = r.u64()?;
            let epoch = r.u64()?;
            // Minimum per op: 8 seq + 1 op tag + 16 object.
            let num_ops = r.count(25)?;
            let mut ops = Vec::with_capacity(num_ops);
            for _ in 0..num_ops {
                ops.push((r.u64()?, r.dir_op()?));
            }
            Message::DirResyncDelta { shard, epoch, ops, done: r.bool()? }
        }
        tags::DIR_RESYNCED => Message::DirResynced { node: r.node()?, incarnation: r.u64()? },
        tags::DIR_CONFIRM => {
            let object = r.object()?;
            let kind = match r.u8()? {
                confirm_tags::LOCATION => ConfirmKind::Location { status: r.status()? },
                confirm_tags::INLINE => ConfirmKind::Inline,
                confirm_tags::SUBSCRIPTION => ConfirmKind::Subscription,
                other => return Err(malformed(&format!("unknown confirm kind {other}"))),
            };
            Message::DirConfirm { object, kind }
        }
        tags::DIR_PUBLISH => Message::DirPublish {
            object: r.object()?,
            holder: r.node()?,
            status: r.status()?,
            size: r.u64()?,
        },
        tags::DIR_TRANSFER_DONE => {
            Message::DirTransferDone { object: r.object()?, receiver: r.node()?, sender: r.node()? }
        }
        tags::DIR_DELETE => Message::DirDelete { object: r.object()? },
        tags::STORE_RELEASE => Message::StoreRelease { object: r.object()? },
        tags::PULL_REQUEST => {
            Message::PullRequest { object: r.object()?, requester: r.node()?, offset: r.u64()? }
        }
        tags::PULL_CANCEL => Message::PullCancel { object: r.object()?, requester: r.node()? },
        tags::PULL_ERROR => Message::PullError { object: r.object()?, reason: r.string()? },
        tags::REDUCE_INSTRUCTION => {
            let target = r.object()?;
            let coordinator = r.node()?;
            let slot = r.usize_checked()?;
            let own_object = r.object()?;
            let spec = r.spec()?;
            let object_size = r.u64()?;
            let block_size = r.u64()?;
            let num_inputs = r.usize_checked()?;
            let epoch = r.u64()?;
            let parent = match r.u8()? {
                0 => None,
                1 => Some(ReduceParent {
                    slot: r.usize_checked()?,
                    node: r.node()?,
                    epoch: r.u64()?,
                }),
                other => return Err(malformed(&format!("unknown parent flag {other}"))),
            };
            let num_children = r.usize_checked()?;
            if num_children > buf.len() {
                return Err(malformed("child list longer than frame"));
            }
            let mut children = Vec::with_capacity(num_children);
            for _ in 0..num_children {
                children.push((r.usize_checked()?, r.node()?, r.object()?));
            }
            Message::ReduceInstruction(ReduceInstruction {
                target,
                coordinator,
                slot,
                own_object,
                spec,
                object_size,
                block_size,
                num_inputs,
                epoch,
                parent,
                children,
                is_root: r.bool()?,
                total_slots: r.usize_checked()?,
            })
        }
        tags::REDUCE_DONE => Message::ReduceDone { target: r.object()?, root: r.node()? },
        tags::REDUCE_RELEASE => Message::ReduceRelease { target: r.object()? },
        tags::HELLO => Message::Hello { node: r.node()?, incarnation: r.u64()? },
        tags::PEER_FAILURE_NOTICE => {
            Message::PeerFailureNotice { node: r.node()?, incarnation: r.u64()? }
        }
        tags::MEMBERSHIP_DIGEST => Message::MembershipDigest { entries: r.digest()? },
        tags::PING => Message::Ping { origin: r.node()?, probe_id: r.u64()?, gossip: r.gossip()? },
        tags::ACK => Message::Ack { probe_id: r.u64()?, gossip: r.gossip()? },
        tags::PING_REQ => {
            Message::PingReq { target: r.node()?, probe_id: r.u64()?, gossip: r.gossip()? }
        }
        other => return Err(malformed(&format!("unknown frame tag {other}"))),
    };
    r.finish()?;
    Ok(msg)
}

/// Encode a whole frame contiguously: `u32` big-endian length followed by the body.
/// Test reference — it copies the payload twice (once into the body, once into the
/// length-prefixed frame); the send path uses [`encode_frame_vectored`].
#[cfg(test)]
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let body = encode_body(msg)?;
    u32::try_from(body.len()).map_err(|_| malformed("frame body exceeds u32 length"))?;
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    // The frame-assembly copy the scatter-gather path exists to avoid.
    hoplite_core::copytrace::record(body.len());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Encode a whole frame as scatter-gather parts: the header (length prefix + tag +
/// fixed fields) is built fresh, and bulk payload bytes are **referenced, not
/// copied** — encoding a 4 MiB `PushBlock` is header-only work.
pub fn encode_frame_vectored(msg: &Message) -> Result<EncodedFrame, FrameError> {
    let mut w = FrameWriter::new(true);
    encode_message(msg, &mut w);
    w.into_frame()
}

/// Write a framed message to a writer as one contiguous buffer (test reference).
#[cfg(test)]
pub fn write_frame<W: std::io::Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    let frame = encode_frame(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(&frame)
}

/// Write a framed message with `write_vectored`, never copying bulk payload bytes.
///
/// Small frames — control messages, payloads under [`GATHER_MIN_SEGMENT`] — encode to
/// a single part and go out in one plain `write` syscall. Larger frames are written as
/// an iovec array of header + shared payload segments, resuming correctly across
/// short writes.
pub fn write_frame_vectored<W: std::io::Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    let frame = encode_frame_vectored(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if frame.segments.is_empty() {
        return w.write_all(&frame.header);
    }
    let parts: Vec<&[u8]> = frame.parts().map(|p| p.as_slice()).collect();
    write_all_vectored(w, &parts)
}

/// Read one framed message from a reader into a fresh buffer: the reference the
/// tests check [`FrameReader`] against.
#[cfg(test)]
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Message> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = frame_len(len_buf)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_body(&Bytes::from(body))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// The body length a frame's 4-byte prefix announces, rejected with `InvalidData`
/// above [`MAX_FRAME_LEN`] — before anything is allocated for the body, so a corrupt
/// or hostile prefix cannot make the receiver allocate and zero gigabytes.
fn frame_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame length overflow"));
    }
    Ok(len)
}

// --------------------------------------------------------------- pooled slab reader --

/// Default receive slab: one pipelining block plus slack for the frame header and a
/// trailing length prefix, so a full 4 MiB `PushBlock` frame always fits in one slab.
pub const DEFAULT_RECV_SLAB: usize = 4 * 1024 * 1024 + 4096;

/// How many idle slabs a pool retains for reuse. Beyond this, returned slabs are
/// dropped: a connection only needs enough slabs to cover the consumer's drain lag.
const MAX_RETAINED_SLABS: usize = 8;

/// A pool of reusable receive slabs ([`FrameReader`]'s allocator).
///
/// Slabs are `Arc<[u8]>` allocations. Payloads of at least [`GATHER_MIN_SEGMENT`]
/// bytes decoded out of a slab alias it as [`Bytes`] views ([`Bytes::from_arc`]), so a
/// slab stays pinned — `strong_count > 1` — for exactly as long as any such payload is
/// alive; shorter payloads are copied out at decode and never pin. Checkout simply
/// scans the retained list for a slab whose refcount has dropped back to one: no
/// free-lists, no drop hooks, the `Arc` refcount *is* the in-use bit.
pub struct RecvSlabPool {
    retained: Vec<std::sync::Arc<[u8]>>,
    slab_len: usize,
    reuses: u64,
}

impl RecvSlabPool {
    /// A pool handing out slabs of at least `slab_len` bytes.
    pub fn new(slab_len: usize) -> RecvSlabPool {
        RecvSlabPool { retained: Vec::new(), slab_len: slab_len.max(64), reuses: 0 }
    }

    /// Check a writable slab of at least `min_len` bytes out of the pool, reusing a
    /// retained allocation when one is free (refcount back to one) and large enough.
    pub fn checkout(&mut self, min_len: usize) -> std::sync::Arc<[u8]> {
        let want = min_len.max(self.slab_len);
        for i in 0..self.retained.len() {
            if std::sync::Arc::strong_count(&self.retained[i]) == 1
                && self.retained[i].len() >= min_len
            {
                self.reuses += 1;
                return self.retained.swap_remove(i);
            }
        }
        std::sync::Arc::from(vec![0u8; want])
    }

    /// Hand a slab back. It becomes reusable once every payload view into it drops.
    pub fn retain(&mut self, slab: std::sync::Arc<[u8]>) {
        if self.retained.len() < MAX_RETAINED_SLABS && slab.len() >= self.slab_len {
            self.retained.push(slab);
        }
    }

    /// Checkouts served from a retained slab instead of a fresh allocation, since the
    /// last call (drains the counter — feeds the `recv_slab_reuse` metric).
    pub fn take_reuses(&mut self) -> u64 {
        std::mem::take(&mut self.reuses)
    }
}

/// Zero-copy framed reader: the receive-side twin of [`write_frame_vectored`].
///
/// Instead of allocating a fresh `vec![0u8; len]` per frame (an allocation, a
/// page-fault walk, and a kernel→user copy into cold memory every time), a
/// `FrameReader` reads ahead into a pooled slab and decodes each frame **in place**:
/// the body handed to [`decode_body`] is a [`Bytes`] view of the slab, so a bulk
/// payload's bytes are written exactly once (by the kernel, into the slab) and then
/// adopted — `ProgressBuffer`/store append the very same view. Payloads shorter than
/// [`GATHER_MIN_SEGMENT`] are copied out at decode instead, so only bulk payloads pin a
/// slab. Slabs return to the pool when every view into them drops; a control-heavy
/// stream, whose frames are all under the threshold, alternates between two warm
/// slabs indefinitely.
///
/// Read-ahead is capped by frame length so a slab roll never has to move payload
/// bytes: a fill reads at most through the end of the current frame plus the next
/// length prefix. The carry copied across a roll is therefore at most 4 length-prefix
/// bytes — header bookkeeping, not payload, preserving the zero-payload-memcpy
/// invariant end to end.
pub struct FrameReader<R> {
    inner: R,
    pool: RecvSlabPool,
    slab: std::sync::Arc<[u8]>,
    /// Start of the first unconsumed byte in `slab`.
    pos: usize,
    /// End of valid buffered bytes in `slab`.
    filled: usize,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wrap `inner` with the default (block-sized) slab pool.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_slab_len(inner, DEFAULT_RECV_SLAB)
    }

    /// Wrap `inner` with slabs of at least `slab_len` bytes (tests use tiny slabs to
    /// force boundary straddles; oversized frames still get a dedicated allocation).
    pub fn with_slab_len(inner: R, slab_len: usize) -> FrameReader<R> {
        let mut pool = RecvSlabPool::new(slab_len);
        let slab = pool.checkout(slab_len);
        pool.take_reuses(); // the bootstrap checkout is not a reuse
        FrameReader { inner, pool, slab, pos: 0, filled: 0 }
    }

    /// Read and decode one framed message, zero-copy for bulk payloads.
    pub fn read_message(&mut self) -> std::io::Result<Message> {
        self.need(4)?;
        let total = 4 + frame_len(self.slab[self.pos..self.pos + 4].try_into().expect("4 bytes"))?;
        self.need(total)?;
        let body = Bytes::from_arc(self.slab.clone(), self.pos + 4, self.pos + total);
        self.pos += total;
        decode_body(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Slab checkouts served by reuse since the last call (→ `recv_slab_reuse`).
    pub fn take_slab_reuses(&mut self) -> u64 {
        self.pool.take_reuses()
    }

    /// Ensure the next `n` bytes of the stream are buffered contiguously at `pos`,
    /// rolling to a fresh slab when the current one is full or pinned by escaped
    /// payload views.
    fn need(&mut self, n: usize) -> std::io::Result<()> {
        loop {
            if self.filled - self.pos >= n {
                return Ok(());
            }
            if self.pos + n > self.slab.len() || std::sync::Arc::strong_count(&self.slab) > 1 {
                self.roll(n);
            }
            let limit = self.fill_limit();
            debug_assert!(limit > self.filled, "fill limit must admit progress");
            let buf = std::sync::Arc::get_mut(&mut self.slab)
                .expect("freshly rolled or unpinned slab is uniquely held");
            let got = self.inner.read(&mut buf[self.filled..limit])?;
            if got == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            self.filled += got;
        }
    }

    /// Swap in a slab with room for `n` bytes, carrying the unconsumed remainder
    /// across. The fill cap guarantees that remainder is at most 4 length-prefix
    /// bytes (never payload), so the carry is header bookkeeping, not a data copy.
    fn roll(&mut self, n: usize) {
        let carry = self.filled - self.pos;
        debug_assert!(carry <= 4, "roll carry must be at most a length prefix");
        let mut fresh = self.pool.checkout(n.max(carry));
        {
            let dst = std::sync::Arc::get_mut(&mut fresh).expect("pool slab is uniquely held");
            dst[..carry].copy_from_slice(&self.slab[self.pos..self.filled]);
        }
        let old = std::mem::replace(&mut self.slab, fresh);
        self.pool.retain(old);
        self.pos = 0;
        self.filled = carry;
    }

    /// Absolute offset a fill may read up to: the current frame's header, then the
    /// rest of the frame plus the next length prefix (`need` has already rolled to a
    /// slab the frame fits). Bytes past that prefix belong to a frame whose length is
    /// not yet known, so a roll never strands more than the prefix.
    fn fill_limit(&self) -> usize {
        let header_end = self.pos + 4;
        if self.filled < header_end {
            return header_end;
        }
        let len = u32::from_be_bytes(self.slab[self.pos..header_end].try_into().expect("4 bytes"));
        (header_end + len as usize + 4).min(self.slab.len())
    }
}

// -------------------------------------------------------------- control-frame cork --

/// Cap on frames held back by a [`Cork`] before an implicit flush.
const MAX_CORKED_FRAMES: usize = 64;

/// Cap on bytes held back by a [`Cork`] before an implicit flush.
const MAX_CORKED_BYTES: usize = 64 * 1024;

/// Batches bursts of small control frames to one peer into a single vectored write.
///
/// Directory chatter — registers, acks, publishes, confirms — arrives at a
/// connection's writer in bursts (fan-outs, drain-after-failover), each frame well
/// under [`GATHER_MIN_SEGMENT`]. Writing them one `write` syscall at a time wastes
/// most of the syscall budget on sub-100-byte payloads. A `Cork` holds encoded
/// control frames (frames with no bulk segments) and flushes them as one
/// `write_vectored`; bulk frames flush the cork first and are written immediately so
/// they are never delayed behind batching. Callers flush explicitly on queue drain.
pub struct Cork {
    pending: Vec<Bytes>,
    pending_bytes: usize,
    corked_frames: u64,
    corked_writes: u64,
}

impl Default for Cork {
    fn default() -> Cork {
        Cork::new()
    }
}

impl Cork {
    /// An empty cork.
    pub fn new() -> Cork {
        Cork { pending: Vec::new(), pending_bytes: 0, corked_frames: 0, corked_writes: 0 }
    }

    /// Encode and submit `msg`. Control frames are held for batching (up to the
    /// frame/byte caps); bulk frames flush anything pending and go out immediately
    /// through the zero-copy vectored path.
    pub fn write<W: std::io::Write>(&mut self, w: &mut W, msg: &Message) -> std::io::Result<()> {
        let frame = encode_frame_vectored(msg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if !frame.segments.is_empty() {
            self.flush(w)?;
            let parts: Vec<&[u8]> = frame.parts().map(|p| p.as_slice()).collect();
            return write_all_vectored(w, &parts);
        }
        self.pending_bytes += frame.header.len();
        self.pending.push(frame.header);
        if self.pending.len() >= MAX_CORKED_FRAMES || self.pending_bytes >= MAX_CORKED_BYTES {
            self.flush(w)?;
        }
        Ok(())
    }

    /// Write every held frame as one vectored write. Called implicitly on bulk frames
    /// and cap overflow, and explicitly by the owner when its send queue drains.
    pub fn flush<W: std::io::Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.pending.len() >= 2 {
            self.corked_frames += self.pending.len() as u64;
            self.corked_writes += 1;
        }
        let parts: Vec<&[u8]> = self.pending.iter().map(|p| p.as_slice()).collect();
        let result = write_all_vectored(w, &parts);
        self.pending.clear();
        self.pending_bytes = 0;
        result
    }

    /// `true` when frames are being held back (the owner should flush before parking).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Frames that went out batched with at least one other frame, since the last
    /// call (→ the `corked_frames_per_write` metric's numerator).
    pub fn take_corked_frames(&mut self) -> u64 {
        std::mem::take(&mut self.corked_frames)
    }

    /// Multi-frame vectored writes issued since the last call.
    pub fn take_corked_writes(&mut self) -> u64 {
        std::mem::take(&mut self.corked_writes)
    }
}

/// Write `parts` fully, resuming across short writes and `Interrupted` (the shared
/// backbone of [`write_frame_vectored`] and [`Cork::flush`]).
fn write_all_vectored<W: std::io::Write>(w: &mut W, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut part = 0usize; // first part with unwritten bytes
    let mut offset = 0usize; // progress within that part
    while part < parts.len() {
        if parts[part].len() == offset {
            part += 1;
            offset = 0;
            continue;
        }
        let slices: Vec<std::io::IoSlice<'_>> = std::iter::once(&parts[part][offset..])
            .chain(parts[part + 1..].iter().copied())
            .map(std::io::IoSlice::new)
            .collect();
        let mut n = match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (part, offset) past the n bytes just written.
        while n > 0 {
            let remaining = parts[part].len() - offset;
            if n < remaining {
                offset += n;
                break;
            }
            n -= remaining;
            part += 1;
            offset = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_core::protocol::ReduceParent;
    use hoplite_core::reduce::ReduceSpec;

    fn roundtrip(msg: Message) {
        let body = Bytes::from(encode_body(&msg).unwrap());
        let decoded = decode_body(&body).unwrap();
        assert_eq!(decoded, msg);
        // The scatter-gather encoding must flatten to exactly the contiguous frame.
        let contiguous = encode_frame(&msg).unwrap();
        let vectored = encode_frame_vectored(&msg).unwrap();
        assert_eq!(vectored.frame_len(), contiguous.len());
        assert_eq!(vectored.to_contiguous(), contiguous);
    }

    #[test]
    fn push_block_roundtrip() {
        roundtrip(Message::PushBlock {
            object: ObjectId::from_name("x"),
            offset: 12345,
            total_size: 99999,
            payload: Payload::from_vec((0..255).collect()),
            complete: true,
        });
    }

    #[test]
    fn reduce_block_roundtrip() {
        roundtrip(Message::ReduceBlock {
            target: ObjectId::from_name("t"),
            to_slot: 3,
            from_slot: 9,
            parent_epoch: 2,
            block_index: 7,
            object_size: 4096,
            payload: Payload::from_f32s(&[1.0, -2.0, 3.5]),
        });
    }

    #[test]
    fn synthetic_payload_roundtrip() {
        roundtrip(Message::PushBlock {
            object: ObjectId::from_name("s"),
            offset: 0,
            total_size: 10,
            payload: Payload::synthetic(10),
            complete: false,
        });
    }

    #[test]
    fn every_control_message_roundtrips() {
        let obj = ObjectId::from_name("ctl");
        roundtrip(Message::DirRegister {
            object: obj,
            holder: NodeId(0),
            status: ObjectStatus::Partial,
            size: 123,
        });
        roundtrip(Message::DirPutInline {
            object: obj,
            holder: NodeId(3),
            payload: Payload::from_vec(vec![1, 2, 3]),
        });
        roundtrip(Message::DirUnregister { object: obj, holder: NodeId(1) });
        roundtrip(Message::DirQuery {
            object: obj,
            requester: NodeId(4),
            query_id: 77,
            exclude: vec![NodeId(1), NodeId(2)],
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 9,
            result: QueryResult::Inline { payload: Payload::zeros(8) },
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 10,
            result: QueryResult::Location {
                node: NodeId(5),
                status: ObjectStatus::Complete,
                size: 4096,
            },
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 11,
            result: QueryResult::Deleted,
        });
        roundtrip(Message::DirSubscribe { object: obj, subscriber: NodeId(7) });
        roundtrip(Message::DirPublish {
            object: obj,
            holder: NodeId(2),
            status: ObjectStatus::Complete,
            size: 1 << 30,
        });
        roundtrip(Message::DirTransferDone { object: obj, receiver: NodeId(8), sender: NodeId(9) });
        roundtrip(Message::DirDelete { object: obj });
        roundtrip(Message::DirUnsubscribe { object: obj, subscriber: NodeId(7) });
        roundtrip(Message::StoreRelease { object: obj });
        roundtrip(Message::ReduceRelease { target: obj });
        roundtrip(Message::PullRequest { object: obj, requester: NodeId(1), offset: 512 });
        roundtrip(Message::PullCancel { object: obj, requester: NodeId(1) });
        roundtrip(Message::PullError { object: obj, reason: "object deleted".to_string() });
        roundtrip(Message::ReduceDone { target: obj, root: NodeId(3) });
        roundtrip(Message::Hello { node: NodeId(11), incarnation: 4 });
        roundtrip(Message::PeerFailureNotice { node: NodeId(6), incarnation: 2 });
        roundtrip(Message::MembershipDigest { entries: vec![] });
        roundtrip(Message::MembershipDigest {
            entries: vec![(NodeId(0), 3, true), (NodeId(5), 1, false)],
        });
    }

    #[test]
    fn reduce_instruction_roundtrips() {
        roundtrip(Message::ReduceInstruction(ReduceInstruction {
            target: ObjectId::from_name("t"),
            coordinator: NodeId(0),
            slot: 3,
            own_object: ObjectId::from_name("s"),
            spec: ReduceSpec::sum_f32(),
            object_size: 1024,
            block_size: 256,
            num_inputs: 3,
            epoch: 5,
            parent: Some(ReduceParent { slot: 5, node: NodeId(2), epoch: 1 }),
            children: vec![(1, NodeId(4), ObjectId::from_name("c"))],
            is_root: false,
            total_slots: 6,
        }));
        // Root variant: no parent, no children.
        roundtrip(Message::ReduceInstruction(ReduceInstruction {
            target: ObjectId::from_name("t2"),
            coordinator: NodeId(1),
            slot: 0,
            own_object: ObjectId::from_name("s2"),
            spec: ReduceSpec::sum_f32(),
            object_size: 8,
            block_size: 8,
            num_inputs: 1,
            epoch: 0,
            parent: None,
            children: vec![],
            is_root: true,
            total_slots: 1,
        }));
    }

    #[test]
    fn stream_roundtrip_through_a_buffer() {
        let messages = vec![
            Message::DirDelete { object: ObjectId::from_name("a") },
            Message::PushBlock {
                object: ObjectId::from_name("b"),
                offset: 4,
                total_size: 8,
                payload: Payload::from_vec(vec![9, 9, 9, 9]),
                complete: true,
            },
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &messages {
            assert_eq!(&read_frame(&mut cursor).unwrap(), m);
        }
    }

    #[test]
    fn every_replicated_op_roundtrips() {
        let obj = ObjectId::from_name("rep");
        let ops = vec![
            hoplite_core::DirOp::Register {
                object: obj,
                holder: NodeId(1),
                status: ObjectStatus::Complete,
                size: 999,
            },
            hoplite_core::DirOp::PutInline {
                object: obj,
                holder: NodeId(2),
                payload: Payload::from_vec(vec![5, 6, 7]),
            },
            hoplite_core::DirOp::Unregister { object: obj, holder: NodeId(3) },
            hoplite_core::DirOp::Query {
                object: obj,
                requester: NodeId(4),
                query_id: 11,
                exclude: vec![NodeId(0), NodeId(9)],
            },
            hoplite_core::DirOp::Subscribe { object: obj, subscriber: NodeId(5) },
            hoplite_core::DirOp::Unsubscribe { object: obj, subscriber: NodeId(5) },
            hoplite_core::DirOp::TransferDone {
                object: obj,
                receiver: NodeId(6),
                sender: NodeId(7),
            },
            hoplite_core::DirOp::Delete { object: obj },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            roundtrip(Message::DirReplicate { shard: i as u64, epoch: 3, seq: 100 + i as u64, op });
        }
    }

    #[test]
    fn resync_and_ack_messages_roundtrip() {
        let obj = ObjectId::from_name("resync");
        roundtrip(Message::DirAck { shard: 3, epoch: 2, seq: 41 });
        roundtrip(Message::DirSnapshotRequest {
            shard: 7,
            requester: NodeId(4),
            restart: true,
            after: None,
            have_epoch: 2,
            have_seq: 41,
            digest: vec![(NodeId(0), 1, true), (NodeId(2), 2, false)],
        });
        roundtrip(Message::DirSnapshotRequest {
            shard: 8,
            requester: NodeId(5),
            restart: false,
            after: Some(obj),
            have_epoch: 0,
            have_seq: 0,
            digest: vec![],
        });
        roundtrip(Message::DirResynced { node: NodeId(9), incarnation: 1 });
        roundtrip(Message::DirConfirm {
            object: obj,
            kind: ConfirmKind::Location { status: ObjectStatus::Partial },
        });
        roundtrip(Message::DirConfirm { object: obj, kind: ConfirmKind::Inline });
        roundtrip(Message::DirConfirm { object: obj, kind: ConfirmKind::Subscription });
        // An empty mid-stream chunk and a fully-populated final one.
        roundtrip(Message::DirSnapshotChunk {
            shard: 1,
            epoch: 5,
            seq: 12,
            rank: 1,
            done: false,
            state: ShardSnapshot::default(),
        });
        let state = ShardSnapshot {
            entries: vec![
                SnapshotEntry {
                    object: ObjectId::from_name("full"),
                    size: Some(4096),
                    locations: vec![
                        (NodeId(0), ObjectStatus::Complete, None),
                        (NodeId(2), ObjectStatus::Partial, Some(NodeId(3))),
                    ],
                    inline: Some(Payload::from_vec(vec![1, 2, 3])),
                    inline_stamp: 17,
                    pending: vec![(NodeId(5), 77, vec![NodeId(1), NodeId(2)])],
                    subscribers: vec![NodeId(6), NodeId(7)],
                    pulls: vec![(NodeId(3), NodeId(2))],
                    deleted: false,
                },
                SnapshotEntry {
                    object: ObjectId::from_name("tombstone"),
                    size: None,
                    locations: vec![],
                    inline: None,
                    inline_stamp: 0,
                    pending: vec![],
                    subscribers: vec![],
                    pulls: vec![],
                    deleted: true,
                },
            ],
        };
        roundtrip(Message::DirSnapshotChunk {
            shard: 2,
            epoch: 1,
            seq: 9,
            rank: 0,
            done: true,
            state,
        });
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut body = encode_body(&Message::DirSnapshotChunk {
            shard: 0,
            epoch: 0,
            seq: 1,
            rank: 0,
            done: true,
            state: ShardSnapshot {
                entries: vec![SnapshotEntry {
                    object: ObjectId::from_name("t"),
                    size: Some(8),
                    locations: vec![(NodeId(1), ObjectStatus::Complete, None)],
                    ..SnapshotEntry::default()
                }],
            },
        })
        .unwrap();
        body.truncate(body.len() - 3);
        assert!(decode_body(&Bytes::from(body)).is_err());
    }

    #[test]
    fn decoded_payload_aliases_the_frame_buffer() {
        // Zero-copy contract: a decoded PushBlock payload of at least the gather
        // threshold is a view into the frame body, so decoding must not copy
        // megabytes per block.
        let len = GATHER_MIN_SEGMENT;
        let msg = Message::PushBlock {
            object: ObjectId::from_name("z"),
            offset: 0,
            total_size: len as u64,
            payload: Payload::from_vec((0..len).map(|i| i as u8).collect()),
            complete: true,
        };
        let body = Bytes::from(encode_body(&msg).unwrap());
        let decoded = decode_body(&body).unwrap();
        let Message::PushBlock { payload: Payload::Bytes(b), .. } = decoded else {
            panic!("decoded wrong variant");
        };
        // The payload sits at the tail of the frame; identical bytes, shared storage.
        let tail = &body.as_slice()[body.len() - len..];
        assert_eq!(b.as_slice(), tail);
        assert_eq!(b.as_slice().as_ptr(), tail.as_ptr());
    }

    /// Deterministic xorshift64* generator — the same in-file seeded-fuzzer style as
    /// `crates/core/tests/properties.rs`, so failures reproduce exactly.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo)
        }

        fn node(&mut self) -> NodeId {
            NodeId(self.range(0, 64) as u32)
        }

        fn object(&mut self) -> ObjectId {
            ObjectId::from_name(&format!("fuzz-{}", self.range(0, 1 << 20)))
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next_u64() as u8).collect()
        }

        fn nodes(&mut self) -> Vec<NodeId> {
            let n = self.range(0, 4) as usize;
            (0..n).map(|_| self.node()).collect()
        }

        /// Any payload shape: contiguous, segmented (sometimes with bulk segments at
        /// or above the gather threshold), or synthetic.
        fn payload(&mut self) -> Payload {
            match self.range(0, 4) {
                0 => {
                    let len = self.range(0, 64) as usize;
                    Payload::from_vec(self.bytes(len))
                }
                1 => {
                    // Segmented, small pieces (all below the coalesce threshold).
                    let n = self.range(2, 5) as usize;
                    let segs = (0..n)
                        .map(|_| {
                            let len = self.range(1, 32) as usize;
                            Bytes::from(self.bytes(len))
                        })
                        .collect();
                    Payload::from_segments(segs)
                }
                2 => {
                    // Segmented with bulk segments that ride as shared references.
                    let n = self.range(1, 4) as usize;
                    let segs = (0..n)
                        .map(|_| {
                            let len = GATHER_MIN_SEGMENT + self.range(0, 64) as usize;
                            Bytes::from(self.bytes(len))
                        })
                        .collect();
                    Payload::from_segments(segs)
                }
                _ => Payload::synthetic(self.range(0, 1 << 30)),
            }
        }

        fn status(&mut self) -> ObjectStatus {
            if self.range(0, 2) == 0 {
                ObjectStatus::Partial
            } else {
                ObjectStatus::Complete
            }
        }

        fn spec(&mut self) -> ReduceSpec {
            let op = match self.range(0, 3) {
                0 => ReduceOp::Sum,
                1 => ReduceOp::Min,
                _ => ReduceOp::Max,
            };
            let dtype = match self.range(0, 4) {
                0 => DType::F32,
                1 => DType::F64,
                2 => DType::I32,
                _ => DType::I64,
            };
            ReduceSpec { op, dtype }
        }

        fn dir_op(&mut self) -> hoplite_core::DirOp {
            use hoplite_core::DirOp;
            match self.range(0, 8) {
                0 => DirOp::Register {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                1 => DirOp::PutInline {
                    object: self.object(),
                    holder: self.node(),
                    payload: self.payload(),
                },
                2 => DirOp::Unregister { object: self.object(), holder: self.node() },
                3 => DirOp::Query {
                    object: self.object(),
                    requester: self.node(),
                    query_id: self.next_u64(),
                    exclude: self.nodes(),
                },
                4 => DirOp::Subscribe { object: self.object(), subscriber: self.node() },
                5 => DirOp::Unsubscribe { object: self.object(), subscriber: self.node() },
                6 => DirOp::TransferDone {
                    object: self.object(),
                    receiver: self.node(),
                    sender: self.node(),
                },
                _ => DirOp::Delete { object: self.object() },
            }
        }

        fn snapshot(&mut self) -> ShardSnapshot {
            let n = self.range(0, 3) as usize;
            ShardSnapshot {
                entries: (0..n)
                    .map(|_| SnapshotEntry {
                        object: self.object(),
                        size: (self.range(0, 2) == 1).then(|| self.next_u64()),
                        locations: (0..self.range(0, 3))
                            .map(|_| {
                                let lease = (self.range(0, 2) == 1).then(|| self.node());
                                (self.node(), self.status(), lease)
                            })
                            .collect(),
                        inline: (self.range(0, 2) == 1).then(|| self.payload()),
                        inline_stamp: self.next_u64(),
                        pending: (0..self.range(0, 2))
                            .map(|_| (self.node(), self.next_u64(), self.nodes()))
                            .collect(),
                        subscribers: self.nodes(),
                        pulls: (0..self.range(0, 2)).map(|_| (self.node(), self.node())).collect(),
                        deleted: self.range(0, 2) == 1,
                    })
                    .collect(),
            }
        }

        fn digest(&mut self) -> Vec<(NodeId, u64, bool)> {
            (0..self.range(0, 4))
                .map(|_| (self.node(), self.next_u64(), self.range(0, 2) == 1))
                .collect()
        }

        fn gossip(&mut self) -> Vec<GossipEntry> {
            (0..self.range(0, 7))
                .map(|_| {
                    let state = match self.range(0, 3) {
                        0 => GossipState::Alive,
                        1 => GossipState::Suspect,
                        _ => GossipState::Dead,
                    };
                    (self.node(), self.next_u64(), state)
                })
                .collect()
        }

        fn message(&mut self) -> Message {
            use hoplite_core::protocol::ReduceParent;
            match self.range(0, 33) {
                0 => Message::PushBlock {
                    object: self.object(),
                    offset: self.next_u64(),
                    total_size: self.next_u64(),
                    payload: self.payload(),
                    complete: self.range(0, 2) == 1,
                },
                1 => Message::ReduceBlock {
                    target: self.object(),
                    to_slot: self.range(0, 1 << 20) as usize,
                    from_slot: self.range(0, 1 << 20) as usize,
                    parent_epoch: self.next_u64(),
                    block_index: self.next_u64(),
                    object_size: self.next_u64(),
                    payload: self.payload(),
                },
                2 => Message::DirRegister {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                3 => Message::DirPutInline {
                    object: self.object(),
                    holder: self.node(),
                    payload: self.payload(),
                },
                4 => Message::DirUnregister { object: self.object(), holder: self.node() },
                5 => Message::DirQuery {
                    object: self.object(),
                    requester: self.node(),
                    query_id: self.next_u64(),
                    exclude: self.nodes(),
                },
                6 => Message::DirQueryReply {
                    object: self.object(),
                    query_id: self.next_u64(),
                    result: match self.range(0, 3) {
                        0 => QueryResult::Inline { payload: self.payload() },
                        1 => QueryResult::Location {
                            node: self.node(),
                            status: self.status(),
                            size: self.next_u64(),
                        },
                        _ => QueryResult::Deleted,
                    },
                },
                7 => Message::DirSubscribe { object: self.object(), subscriber: self.node() },
                8 => Message::DirUnsubscribe { object: self.object(), subscriber: self.node() },
                9 => Message::DirPublish {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                10 => Message::DirTransferDone {
                    object: self.object(),
                    receiver: self.node(),
                    sender: self.node(),
                },
                11 => Message::DirDelete { object: self.object() },
                12 => Message::StoreRelease { object: self.object() },
                13 => Message::PullRequest {
                    object: self.object(),
                    requester: self.node(),
                    offset: self.next_u64(),
                },
                14 => Message::PullCancel { object: self.object(), requester: self.node() },
                15 => Message::PullError {
                    object: self.object(),
                    reason: format!("reason-{}", self.range(0, 1000)),
                },
                16 => Message::ReduceInstruction(ReduceInstruction {
                    target: self.object(),
                    coordinator: self.node(),
                    slot: self.range(0, 256) as usize,
                    own_object: self.object(),
                    spec: self.spec(),
                    object_size: self.next_u64(),
                    block_size: self.next_u64(),
                    num_inputs: self.range(0, 16) as usize,
                    epoch: self.next_u64(),
                    parent: (self.range(0, 2) == 1).then(|| ReduceParent {
                        slot: self.range(0, 256) as usize,
                        node: self.node(),
                        epoch: self.next_u64(),
                    }),
                    children: (0..self.range(0, 3))
                        .map(|_| (self.range(0, 256) as usize, self.node(), self.object()))
                        .collect(),
                    is_root: self.range(0, 2) == 1,
                    total_slots: self.range(1, 256) as usize,
                }),
                17 => Message::ReduceDone { target: self.object(), root: self.node() },
                18 => Message::ReduceRelease { target: self.object() },
                19 => Message::DirReplicate {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                    op: self.dir_op(),
                },
                20 => Message::DirAck {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                },
                21 => Message::DirSnapshotRequest {
                    shard: self.next_u64(),
                    requester: self.node(),
                    restart: self.range(0, 2) == 1,
                    after: (self.range(0, 2) == 1).then(|| self.object()),
                    have_epoch: self.next_u64(),
                    have_seq: self.next_u64(),
                    digest: self.digest(),
                },
                23 => Message::DirResynced { node: self.node(), incarnation: self.next_u64() },
                24 => Message::Hello { node: self.node(), incarnation: self.next_u64() },
                22 | 25 => Message::DirSnapshotChunk {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                    rank: self.next_u64(),
                    done: self.range(0, 2) == 1,
                    state: self.snapshot(),
                },
                26 => Message::DirResyncDelta {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    ops: (0..self.range(0, 3)).map(|_| (self.next_u64(), self.dir_op())).collect(),
                    done: self.range(0, 2) == 1,
                },
                28 => {
                    Message::PeerFailureNotice { node: self.node(), incarnation: self.next_u64() }
                }
                29 => Message::MembershipDigest { entries: self.digest() },
                30 => Message::Ping {
                    origin: self.node(),
                    probe_id: self.next_u64(),
                    gossip: self.gossip(),
                },
                31 => Message::Ack { probe_id: self.next_u64(), gossip: self.gossip() },
                32 => Message::PingReq {
                    target: self.node(),
                    probe_id: self.next_u64(),
                    gossip: self.gossip(),
                },
                _ => Message::DirConfirm {
                    object: self.object(),
                    kind: match self.range(0, 3) {
                        0 => ConfirmKind::Location { status: self.status() },
                        1 => ConfirmKind::Inline,
                        _ => ConfirmKind::Subscription,
                    },
                },
            }
        }
    }

    /// Property (seeded fuzzer): for *every* message variant, with payloads in every
    /// shape, the scatter-gather frame flattens byte-for-byte to the contiguous
    /// encoding, and the body round-trips through `decode_body`.
    #[test]
    fn fuzz_vectored_encoding_matches_contiguous_for_every_variant() {
        let mut rng = Rng(0x5CA7_7E2F);
        let mut tags_seen = std::collections::BTreeSet::new();
        for case in 0..700 {
            let msg = rng.message();
            let contiguous = encode_frame(&msg).unwrap();
            let vectored = encode_frame_vectored(&msg).unwrap();
            assert_eq!(
                vectored.to_contiguous(),
                contiguous,
                "case {case}: vectored != contiguous for {msg:?}"
            );
            let body = Bytes::from(encode_body(&msg).unwrap());
            assert_eq!(&contiguous[4..], body.as_slice(), "case {case}: frame != prefix+body");
            let decoded = decode_body(&body).unwrap();
            assert_eq!(decoded, msg, "case {case}: decode roundtrip");
            tags_seen.insert(contiguous[4]);
        }
        let live: std::collections::BTreeSet<u8> = (1..=33).filter(|&t| t != 23).collect();
        assert_eq!(tags_seen, live, "700 cases should cover all 32 live tags");
    }

    /// Property (seeded fuzzer): chunking is codec-transparent. A shard's entry list
    /// split into `DirSnapshotChunk` frames at *arbitrary* boundaries — empty chunks,
    /// single-entry chunks, everything in one chunk — round-trips each frame and
    /// reassembles to exactly the original entries, regardless of where the cuts
    /// fall. Same for a replication-log suffix split across `DirResyncDelta` frames.
    #[test]
    fn fuzz_chunk_boundary_splits_reassemble_exactly() {
        let mut rng = Rng(0xC4_0B0B);
        for case in 0..200 {
            let total = rng.range(0, 24) as usize;
            let entries: Vec<SnapshotEntry> =
                (0..total).flat_map(|_| rng.snapshot().entries).collect();

            // Cut the entry list at random boundaries (possibly producing empty
            // chunks — a dirty-only stream with nothing fitting does exactly that).
            let mut chunks: Vec<Vec<SnapshotEntry>> = Vec::new();
            let mut rest = entries.as_slice();
            while !rest.is_empty() {
                let cut = rng.range(0, rest.len() as u64 + 1) as usize;
                chunks.push(rest[..cut].to_vec());
                rest = &rest[cut..];
            }
            chunks.push(Vec::new()); // trailing empty done-chunk

            let mut reassembled = Vec::new();
            let last = chunks.len() - 1;
            for (i, chunk) in chunks.into_iter().enumerate() {
                let msg = Message::DirSnapshotChunk {
                    shard: rng.next_u64(),
                    epoch: rng.next_u64(),
                    seq: rng.next_u64(),
                    rank: rng.next_u64(),
                    done: i == last,
                    state: ShardSnapshot { entries: chunk },
                };
                let body = Bytes::from(encode_body(&msg).unwrap());
                let decoded = decode_body(&body).unwrap();
                assert_eq!(decoded, msg, "case {case}: chunk {i} roundtrip");
                let Message::DirSnapshotChunk { state, .. } = decoded else { unreachable!() };
                reassembled.extend(state.entries);
            }
            assert_eq!(reassembled, entries, "case {case}: splits must reassemble");

            // Delta frames: a log suffix cut at a random boundary per frame.
            let ops: Vec<(u64, hoplite_core::DirOp)> =
                (0..rng.range(0, 12)).map(|seq| (seq, rng.dir_op())).collect();
            let mut replayed = Vec::new();
            let mut at = 0usize;
            while at < ops.len() || replayed.is_empty() {
                let cut = at + rng.range(0, (ops.len() - at) as u64 + 1) as usize;
                let msg = Message::DirResyncDelta {
                    shard: rng.next_u64(),
                    epoch: rng.next_u64(),
                    ops: ops[at..cut].to_vec(),
                    done: cut == ops.len(),
                };
                let body = Bytes::from(encode_body(&msg).unwrap());
                let decoded = decode_body(&body).unwrap();
                assert_eq!(decoded, msg, "case {case}: delta roundtrip");
                let Message::DirResyncDelta { ops: frame_ops, done, .. } = decoded else {
                    unreachable!()
                };
                replayed.extend(frame_ops);
                at = cut;
                if done {
                    break;
                }
            }
            assert_eq!(replayed, ops, "case {case}: delta splits must reassemble");
        }
    }

    #[test]
    fn bulk_payload_rides_as_shared_segments() {
        let backing = Bytes::from(vec![7u8; 2 * GATHER_MIN_SEGMENT]);
        let msg = Message::PushBlock {
            object: ObjectId::from_name("sg"),
            offset: 0,
            total_size: backing.len() as u64,
            payload: Payload::Bytes(backing.clone()),
            complete: true,
        };
        let frame = encode_frame_vectored(&msg).unwrap();
        assert_eq!(frame.segments.len(), 1);
        // Shared storage, not a copy: the segment points at the payload's buffer.
        assert_eq!(frame.segments[0].as_slice().as_ptr(), backing.as_slice().as_ptr());
        // Control messages coalesce to a single contiguous part.
        let ctl = encode_frame_vectored(&Message::DirResynced { node: NodeId(3), incarnation: 0 })
            .unwrap();
        assert!(ctl.segments.is_empty());
        // Payloads under the threshold coalesce too (short-frame single-syscall path).
        let small = encode_frame_vectored(&Message::PushBlock {
            object: ObjectId::from_name("small"),
            offset: 0,
            total_size: 64,
            payload: Payload::zeros(64),
            complete: true,
        })
        .unwrap();
        assert!(small.segments.is_empty());
    }

    #[test]
    fn forward_path_has_zero_payload_copies() {
        // The full forward hop a relaying node performs: receive frame → decode →
        // append to the store buffer → read a block back out → re-encode for the next
        // receiver. With scatter-gather encode this must not copy one payload byte —
        // the debug copy counter proves it, so the invariant cannot silently regress.
        use hoplite_core::buffer::ProgressBuffer;
        use hoplite_core::copytrace;
        let block_len = 2 * GATHER_MIN_SEGMENT as u64;
        let total = 2 * block_len;
        let incoming: Vec<Bytes> = (0..2)
            .map(|i| {
                Bytes::from(
                    encode_body(&Message::PushBlock {
                        object: ObjectId::from_name("fwd"),
                        offset: i * block_len,
                        total_size: total,
                        payload: Payload::from_vec(vec![i as u8 + 1; block_len as usize]),
                        complete: i == 1,
                    })
                    .unwrap(),
                )
            })
            .collect();
        copytrace::reset();
        let mut buf = ProgressBuffer::new(total, false);
        for frame in &incoming {
            let Message::PushBlock { offset, payload, .. } = decode_body(frame).unwrap() else {
                panic!("wrong variant");
            };
            assert!(buf.append_at(offset, &payload));
        }
        // Forward at an offset that straddles the two received segments — the hardest
        // case, which the old path would coalesce.
        let fwd = buf.read(block_len / 2, block_len).unwrap();
        assert!(fwd.as_bytes().is_none(), "straddling read should stay segmented");
        let frame = encode_frame_vectored(&Message::PushBlock {
            object: ObjectId::from_name("fwd"),
            offset: block_len / 2,
            total_size: total,
            payload: fwd,
            complete: false,
        })
        .unwrap();
        assert_eq!(frame.segments.len(), 2, "both straddled views ride as references");
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "decode → append → read → encode must not memcpy payload bytes"
        );
        assert_eq!(copytrace::copies(), 0);
    }

    #[test]
    fn legacy_contiguous_encode_pays_the_two_copies() {
        // Documents what the vectored path saves: the legacy frame encoding memcpys
        // the payload into the body and the body into the frame.
        use hoplite_core::copytrace;
        let payload_len = 4 * GATHER_MIN_SEGMENT;
        let msg = Message::PushBlock {
            object: ObjectId::from_name("legacy"),
            offset: 0,
            total_size: payload_len as u64,
            payload: Payload::zeros(payload_len),
            complete: true,
        };
        copytrace::reset();
        encode_frame(&msg).unwrap();
        if cfg!(debug_assertions) {
            assert!(copytrace::bytes_copied() >= 2 * payload_len as u64);
        }
        copytrace::reset();
        encode_frame_vectored(&msg).unwrap();
        assert_eq!(copytrace::bytes_copied(), 0);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let decode = |v: &[u8]| decode_body(&Bytes::copy_from_slice(v));
        assert!(decode(&[]).is_err());
        assert!(decode(&[42]).is_err());
        assert!(decode(&[super::tags::PUSH_BLOCK, 1, 2]).is_err());
        // A valid message with trailing garbage is rejected too.
        let mut body =
            encode_body(&Message::DirDelete { object: ObjectId::from_name("x") }).unwrap();
        body.push(0);
        assert!(decode(&body).is_err());
        // Truncated node list length.
        let mut q = encode_body(&Message::DirQuery {
            object: ObjectId::from_name("q"),
            requester: NodeId(0),
            query_id: 1,
            exclude: vec![NodeId(1)],
        })
        .unwrap();
        q.truncate(q.len() - 2);
        assert!(decode(&q).is_err());
        // A payload length field of u64::MAX must come back Malformed, not panic
        // (checked end-offset arithmetic in the reader).
        let mut huge = encode_body(&Message::PushBlock {
            object: ObjectId::from_name("huge"),
            offset: 0,
            total_size: 8,
            payload: Payload::from_vec(vec![1; 8]),
            complete: true,
        })
        .unwrap();
        let len_at = huge.len() - 8 - 8; // length u64 sits just before the 8 payload bytes
        huge[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode(&huge).is_err());
    }

    /// Tag 23 belonged to the retired full-state `DirSnapshot`; it stays reserved, so
    /// a frame carrying it — here in its old layout, a chunk without the `done`
    /// byte — is an unknown tag to both decode entry points.
    #[test]
    fn retired_dir_snapshot_tag_is_rejected() {
        let mut body = encode_body(&Message::DirSnapshotChunk {
            shard: 0,
            epoch: 1,
            seq: 9,
            rank: 0,
            done: true,
            state: ShardSnapshot::default(),
        })
        .unwrap();
        body.remove(1 + 4 * 8);
        body[0] = 23;
        let err = decode_body(&Bytes::from(body.clone())).unwrap_err();
        assert!(err.to_string().contains("unknown frame tag 23"), "{err}");
        let mut stream = (body.len() as u32).to_be_bytes().to_vec();
        stream.extend_from_slice(&body);
        let err = FrameReader::new(std::io::Cursor::new(stream)).read_message().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    /// Serves a fixed byte stream in adversarially small chunks: every `read` returns
    /// at most `max_chunk` bytes (rng-sized when `max_chunk > 1`), so frame headers,
    /// bodies, and slab boundaries are straddled in every possible way.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        at: usize,
        rng: Rng,
        max_chunk: usize,
    }

    impl std::io::Read for ChunkedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.data.len() {
                return Ok(0);
            }
            let chunk = if self.max_chunk <= 1 {
                1
            } else {
                self.rng.range(1, self.max_chunk as u64 + 1) as usize
            };
            let n = chunk.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Property (seeded fuzzer): a [`FrameReader`] fed any message mix through any
    /// read chunking — 1-byte reads, short reads mid-header, frames straddling slab
    /// boundaries (tiny slabs force rolls constantly) — decodes exactly what
    /// [`read_frame`] decodes from the same byte stream.
    #[test]
    fn fuzz_frame_reader_matches_read_frame_under_adversarial_chunking() {
        let mut rng = Rng(0xF8A3_11D7);
        for round in 0..25u64 {
            let n_msgs = rng.range(1, 12) as usize;
            let msgs: Vec<Message> = (0..n_msgs).map(|_| rng.message()).collect();
            let mut stream = Vec::new();
            for m in &msgs {
                stream.extend_from_slice(&encode_frame(m).unwrap());
            }
            let mut cursor = std::io::Cursor::new(stream.clone());
            let baseline: Vec<Message> =
                (0..n_msgs).map(|_| read_frame(&mut cursor).unwrap()).collect();
            assert_eq!(baseline, msgs, "round {round}: read_frame baseline");
            for (slab_len, max_chunk) in
                [(64usize, 1usize), (97, 3), (1 << 10, 11), (1 << 16, 4096)]
            {
                let chunked =
                    ChunkedReader { data: &stream, at: 0, rng: Rng(rng.next_u64() | 1), max_chunk };
                let mut reader = FrameReader::with_slab_len(chunked, slab_len);
                let decoded: Vec<Message> = (0..n_msgs)
                    .map(|i| {
                        reader.read_message().unwrap_or_else(|e| {
                            panic!("round {round} slab {slab_len} chunk {max_chunk} msg {i}: {e}")
                        })
                    })
                    .collect();
                assert_eq!(decoded, msgs, "round {round} slab {slab_len} chunk {max_chunk}");
                // The stream ends at a frame boundary; the next read reports EOF.
                let err = reader.read_message().unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            }
        }
    }

    #[test]
    fn frame_reader_reuses_slabs_and_decodes_bulk_payloads_in_place() {
        use hoplite_core::copytrace;
        let block = 2 * GATHER_MIN_SEGMENT;
        let msgs: Vec<Message> = (0..8)
            .map(|i| Message::PushBlock {
                object: ObjectId::from_name("slab"),
                offset: (i * block) as u64,
                total_size: (8 * block) as u64,
                payload: Payload::from_vec(vec![i as u8 + 1; block]),
                complete: i == 7,
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        copytrace::reset();
        let mut reader = FrameReader::with_slab_len(std::io::Cursor::new(stream), 4 * block);
        for want in &msgs {
            let got = reader.read_message().unwrap();
            assert_eq!(&got, want);
            // `got` (and its payload view into the slab) drops here, unpinning the
            // slab so the pool can hand it out again on the next roll.
        }
        assert!(reader.take_slab_reuses() > 0, "pool should recycle unpinned slabs");
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "slab-reader decode must not memcpy payload bytes"
        );
    }

    /// Address range of a reader's current slab, for checking where payloads point
    /// without holding (and so pinning) the slab.
    fn slab_range<R>(reader: &FrameReader<R>) -> std::ops::Range<usize> {
        let start = reader.slab.as_ptr() as usize;
        start..start + reader.slab.len()
    }

    fn payload_addr(msg: &Message) -> usize {
        let (Message::DirQueryReply { result: QueryResult::Inline { payload }, .. }
        | Message::DirPutInline { payload, .. }
        | Message::PushBlock { payload, .. }) = msg
        else {
            panic!("message carries no payload: {msg:?}");
        };
        payload.as_bytes().expect("a contiguous payload").as_slice().as_ptr() as usize
    }

    /// Regression: a stream of 1 KiB inline objects, every decoded message held the
    /// way the store and the directory's inline cache hold them. Each small payload
    /// is copied out at decode, so held replies never pin a receive slab: the reader
    /// only rolls when a slab fills, and every roll after the first reuses a pooled
    /// slab instead of allocating (and zeroing) a fresh one.
    #[test]
    fn held_small_inline_payloads_never_pin_receive_slabs() {
        let msgs: Vec<Message> = (0..200u64)
            .map(|i| {
                let object = ObjectId::from_name(&format!("inline-{i}"));
                let payload = Payload::from_vec(vec![i as u8; 1024]);
                if i % 2 == 0 {
                    Message::DirQueryReply {
                        object,
                        query_id: i,
                        result: QueryResult::Inline { payload },
                    }
                } else {
                    Message::DirPutInline { object, holder: NodeId(1), payload }
                }
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut reader =
            FrameReader::with_slab_len(std::io::Cursor::new(stream), 4 * GATHER_MIN_SEGMENT);
        let mut slabs = vec![slab_range(&reader)];
        let mut held = Vec::new();
        for want in &msgs {
            let got = reader.read_message().unwrap();
            assert_eq!(&got, want);
            held.push(got);
            let current = slab_range(&reader);
            if slabs.last() != Some(&current) {
                slabs.push(current);
            }
        }
        let rolls = slabs.len() as u64 - 1;
        assert!(rolls >= 10, "the stream should fill the slab many times, rolled {rolls}");
        assert_eq!(reader.take_slab_reuses(), rolls - 1, "every roll after the first reuses");
        slabs.sort_by_key(|r| r.start);
        slabs.dedup();
        assert_eq!(slabs.len(), 2, "two slabs alternate: {slabs:?}");
        for msg in &held {
            let at = payload_addr(msg);
            assert!(!slabs.iter().any(|s| s.contains(&at)), "a held payload points into a slab");
        }
    }

    /// The decode-side threshold: a payload one byte under [`GATHER_MIN_SEGMENT`] is
    /// copied out of the slab (and tallied as a copy); a payload of exactly the
    /// threshold stays a shared view that pins the slab.
    #[test]
    fn payloads_below_the_gather_threshold_decode_as_owned_copies() {
        use hoplite_core::copytrace;
        let block = |len: usize| Message::PushBlock {
            object: ObjectId::from_name("threshold"),
            offset: 0,
            total_size: len as u64,
            payload: Payload::from_vec(vec![9; len]),
            complete: true,
        };
        let (small, large) = (block(GATHER_MIN_SEGMENT - 1), block(GATHER_MIN_SEGMENT));
        let mut stream = encode_frame(&small).unwrap();
        stream.extend_from_slice(&encode_frame(&large).unwrap());
        let mut reader = FrameReader::new(std::io::Cursor::new(stream));
        copytrace::reset();

        let got_small = reader.read_message().unwrap();
        assert_eq!(got_small, small);
        assert!(!slab_range(&reader).contains(&payload_addr(&got_small)));
        assert_eq!(std::sync::Arc::strong_count(&reader.slab), 1, "the copy does not pin");
        let copied = if cfg!(debug_assertions) { GATHER_MIN_SEGMENT as u64 - 1 } else { 0 };
        assert_eq!(copytrace::bytes_copied(), copied, "the copy is tallied (debug builds)");

        let got_large = reader.read_message().unwrap();
        assert_eq!(got_large, large);
        assert!(slab_range(&reader).contains(&payload_addr(&got_large)));
        assert_eq!(std::sync::Arc::strong_count(&reader.slab), 2, "the view pins the slab");
        assert_eq!(copytrace::bytes_copied(), copied, "the view is not a copy");
    }

    /// A length prefix above [`MAX_FRAME_LEN`] is rejected before any body buffer is
    /// allocated: a hostile `0xFFFF_FFFF` must not make the reader zero 4 GiB.
    #[test]
    fn hostile_frame_length_is_rejected_before_allocating() {
        for len in [u32::MAX, MAX_FRAME_LEN as u32 + 1] {
            let mut stream = len.to_be_bytes().to_vec();
            stream.extend_from_slice(&[0; 16]);
            let mut reader = FrameReader::new(std::io::Cursor::new(stream.clone()));
            let err = reader.read_message().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert_eq!(reader.slab.len(), DEFAULT_RECV_SLAB, "no slab was sized for the frame");
            let err = read_frame(&mut std::io::Cursor::new(stream)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }

    /// Counts syscall-shaped write calls and captures the byte stream, with a real
    /// gathering `write_vectored` (the std default would only take the first slice).
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                self.out.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cork_batches_control_bursts_into_one_vectored_write() {
        let controls: Vec<Message> =
            (0..10).map(|i| Message::DirAck { shard: i, epoch: 1, seq: i + 1 }).collect();
        let mut expected = Vec::new();
        for m in &controls {
            write_frame_vectored(&mut expected, m).unwrap();
        }
        let mut w = CountingWriter::default();
        let mut cork = Cork::new();
        for m in &controls {
            cork.write(&mut w, m).unwrap();
        }
        assert_eq!(w.calls, 0, "control frames are held until flush");
        cork.flush(&mut w).unwrap();
        assert_eq!(w.calls, 1, "the whole burst goes out as one vectored write");
        assert_eq!(w.out, expected, "corked stream must be byte-exact");
        assert_eq!(cork.take_corked_frames(), 10);
        assert_eq!(cork.take_corked_writes(), 1);
    }

    #[test]
    fn cork_flushes_ahead_of_bulk_frames_and_on_cap_overflow() {
        let bulk = Message::PushBlock {
            object: ObjectId::from_name("blk"),
            offset: 0,
            total_size: 2 * GATHER_MIN_SEGMENT as u64,
            payload: Payload::Bytes(Bytes::from(vec![5u8; 2 * GATHER_MIN_SEGMENT])),
            complete: true,
        };
        let ctl = Message::DirResynced { node: NodeId(1), incarnation: 0 };
        let mut expected = Vec::new();
        write_frame_vectored(&mut expected, &ctl).unwrap();
        write_frame_vectored(&mut expected, &ctl).unwrap();
        write_frame_vectored(&mut expected, &bulk).unwrap();
        let mut w = CountingWriter::default();
        let mut cork = Cork::new();
        cork.write(&mut w, &ctl).unwrap();
        cork.write(&mut w, &ctl).unwrap();
        cork.write(&mut w, &bulk).unwrap();
        assert!(!cork.has_pending(), "a bulk frame flushes the cork first");
        assert_eq!(w.calls, 2, "pending burst, then the bulk frame itself");
        assert_eq!(w.out, expected, "ordering is preserved across the implicit flush");
        // Overflowing the frame cap flushes implicitly, so a cork never holds an
        // unbounded backlog.
        let mut w2 = CountingWriter::default();
        for i in 0..(MAX_CORKED_FRAMES as u64 + 1) {
            cork.write(&mut w2, &Message::DirAck { shard: 0, epoch: 0, seq: i }).unwrap();
        }
        assert_eq!(w2.calls, 1);
        assert!(cork.has_pending(), "the overflow frame starts the next batch");
        cork.flush(&mut w2).unwrap();
    }
}
