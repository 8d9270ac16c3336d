//! Ceilings and layer probes.
//!
//! Ceilings are what the same bytes cost without Hoplite: a raw loopback-TCP round
//! trip, a raw loopback stream, or a memcpy. The benchmark samples one between ops,
//! so a noisy host inflates op and ceiling alike and their ratio stays put.
//!
//! Layer probes time one public function of a layer on inputs shaped like the
//! workload's: `ProgressBuffer` appends plus `to_payload`, `ReduceSpec::combine_into`,
//! the frame encoder and decoder, and `FrameReader`'s slab pool.

use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hoplite_core::prelude::*;
use hoplite_transport::framing::{
    decode_body, encode_frame_vectored, FrameReader, DEFAULT_RECV_SLAB,
};

const MIB: f64 = 1024.0 * 1024.0;

/// Two raw loopback connections to echo/sink threads: one for round trips of a fixed
/// message size, one for bulk streams.
pub struct Loopback {
    rtt: TcpStream,
    rtt_buf: Vec<u8>,
    bulk: TcpStream,
    chunk: Vec<u8>,
    servers: Vec<JoinHandle<std::io::Result<()>>>,
}

/// Send chunk of a bulk stream (one pipelining block).
const STREAM_CHUNK: usize = 4 * 1024 * 1024;

impl Loopback {
    /// Connect both probes; round trips move `msg_len` bytes each way.
    pub fn start(msg_len: usize) -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let rtt = TcpStream::connect(addr)?;
        let (rtt_peer, _) = listener.accept()?;
        let bulk = TcpStream::connect(addr)?;
        let (bulk_peer, _) = listener.accept()?;
        for s in [&rtt, &rtt_peer, &bulk, &bulk_peer] {
            s.set_nodelay(true)?;
        }
        let servers = vec![
            std::thread::spawn(move || echo(rtt_peer, msg_len)),
            std::thread::spawn(move || sink(bulk_peer)),
        ];
        Ok(Loopback {
            rtt,
            rtt_buf: vec![0x5a; msg_len],
            bulk,
            chunk: vec![0xc3; STREAM_CHUNK],
            servers,
        })
    }

    /// One round trip: send a message, wait for its echo.
    pub fn round_trip(&mut self) -> std::io::Result<Duration> {
        let t = Instant::now();
        self.rtt.write_all(&self.rtt_buf)?;
        self.rtt.read_exact(&mut self.rtt_buf)?;
        Ok(t.elapsed())
    }

    /// Stream `bytes` to the sink and wait for its one-byte acknowledgement.
    pub fn stream(&mut self, bytes: u64) -> std::io::Result<Duration> {
        let t = Instant::now();
        self.bulk.write_all(&bytes.to_le_bytes())?;
        let mut left = bytes as usize;
        while left > 0 {
            let n = left.min(self.chunk.len());
            self.bulk.write_all(&self.chunk[..n])?;
            left -= n;
        }
        let mut ack = [0u8; 1];
        self.bulk.read_exact(&mut ack)?;
        Ok(t.elapsed())
    }

    /// Close both connections and join the server threads.
    pub fn finish(self) -> std::io::Result<()> {
        let Loopback { rtt, bulk, servers, .. } = self;
        drop(rtt);
        drop(bulk);
        for s in servers {
            s.join().expect("loopback server thread panicked")?;
        }
        Ok(())
    }
}

/// Echo fixed-size messages until the client closes.
fn echo(mut s: TcpStream, msg_len: usize) -> std::io::Result<()> {
    let mut buf = vec![0u8; msg_len];
    loop {
        match s.read_exact(&mut buf) {
            Ok(()) => s.write_all(&buf)?,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// Read length-prefixed streams, acknowledging each with one byte.
fn sink(mut s: TcpStream) -> std::io::Result<()> {
    let mut scratch = vec![0u8; STREAM_CHUNK];
    loop {
        let mut len = [0u8; 8];
        match s.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        let mut left = u64::from_le_bytes(len) as usize;
        while left > 0 {
            let n = s.read(&mut scratch[..left.min(STREAM_CHUNK)])?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            left -= n;
        }
        s.write_all(&[1])?;
    }
}

/// Copy `src` into `dst` chunk by chunk (`dst` is reused across chunks).
pub fn memcpy(dst: &mut [u8], src: &[Bytes]) -> Duration {
    let t = Instant::now();
    for s in src {
        dst[..s.len()].copy_from_slice(s);
        black_box(&mut *dst);
    }
    t.elapsed()
}

/// Append `object` to a fresh `ProgressBuffer` in `block`-sized views, then take
/// the complete payload (which coalesces a multi-block buffer).
pub fn coalesce(object: &Bytes, block: usize) -> Duration {
    let t = Instant::now();
    let mut buf = ProgressBuffer::new(object.len() as u64, false);
    let mut off = 0;
    while off < object.len() {
        let end = (off + block).min(object.len());
        assert!(buf.append_at(off as u64, &Payload::Bytes(object.slice(off..end))), "in order");
        off = end;
    }
    black_box(buf.to_payload().expect("every block appended"));
    t.elapsed()
}

/// Fold every source block into an accumulator with `ReduceSpec::combine_into`,
/// `rounds` times. Returns the time and the bytes folded.
pub fn combine(sources: &[Bytes], rounds: usize) -> (Duration, u64) {
    let spec = ReduceSpec::sum_f32();
    let target = ObjectId::from_name("perfbench-combine-probe");
    let mut acc = vec![0u8; sources[0].len()];
    let blocks: Vec<Payload> = sources.iter().map(|s| Payload::Bytes(s.clone())).collect();
    let mut busy = Duration::ZERO;
    for _ in 0..rounds {
        acc.fill(0);
        let t = Instant::now();
        for b in &blocks {
            spec.combine_into(target, &mut acc, b).expect("equal-length f32 blocks");
        }
        busy += t.elapsed();
        black_box(&acc);
    }
    (busy, (rounds * sources.len() * acc.len()) as u64)
}

/// Time one `encode_frame_vectored` of `msg`.
pub fn encode(msg: &Message) -> Duration {
    let t = Instant::now();
    black_box(encode_frame_vectored(msg).expect("encodable message"));
    t.elapsed()
}

/// Time one `decode_body` of `msg`'s encoded body.
pub fn decode(msg: &Message) -> Duration {
    let frame = encode_frame_vectored(msg).expect("encodable message").to_contiguous();
    let body = Bytes::from(frame[4..].to_vec());
    let t = Instant::now();
    black_box(decode_body(&body).expect("decodable frame"));
    t.elapsed()
}

/// Feed `count` copies of `msg` through a `FrameReader` while holding every decoded
/// message, as the store holds received payloads. Each held frame pins its slab, so
/// every slab checkout the pool cannot serve by reuse is a fresh allocation. Returns
/// MiB of fresh slab per frame.
pub fn fresh_slab_mib_per_frame(msg: &Message, count: usize) -> f64 {
    let frame = encode_frame_vectored(msg).expect("encodable message").to_contiguous();
    let stream: Vec<u8> = frame.iter().copied().cycle().take(frame.len() * count).collect();
    let mut reader = FrameReader::new(Cursor::new(stream));
    let held: Vec<Message> =
        (0..count).map(|_| reader.read_message().expect("well-formed stream")).collect();
    let reuses = reader.take_slab_reuses() as usize;
    black_box(held);
    // One checkout per frame: the reader's bootstrap slab, then one roll per pinned
    // frame after it.
    (count.saturating_sub(reuses) * DEFAULT_RECV_SLAB) as f64 / count as f64 / MIB
}
