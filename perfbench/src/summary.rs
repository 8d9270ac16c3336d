//! Turn a run's tallies into the named metrics of the output.

use std::time::Duration;

use bytes::Bytes;
use hoplite_core::prelude::*;

use crate::probes::{self, Loopback};
use crate::report::Metric;
use crate::stats::{median, ratio_to_ceiling, tail};
use crate::trace::Tracer;
use crate::workload::{Kind, Rng, RunResult, Tally};

/// Layers whose spans run inside rounds, in output order, with their metric stems.
/// (The layer probes' spans go to the span file; the probes report their own
/// metrics.)
pub const LAYERS: [(&str, &str); 5] = [
    ("bench", "bench"),
    ("ceiling", "ceiling"),
    ("cluster::host", "cluster_host"),
    ("cluster::local", "cluster_local"),
    ("core::buffer", "core_buffer"),
];

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(kind: Kind, t: &Tally) -> Vec<Metric> {
    let op_ms = t.get("op_ms");
    let n = op_ms.len();
    let tail = tail(op_ms);
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    let rounds = t.get("setup_s").len();
    vec![
        Metric::new("setup_s", "s", median(t.get("setup_s")).unwrap_or(0.0), rounds)
            .with_note("median over rounds of cold start + warm-up"),
        Metric::new("op_p50_ms", "ms", median(op_ms).unwrap_or(0.0), n),
        Metric::new("op_tail_ms", "ms", tail.map_or(0.0, |t| t.value), n).with_note(
            tail.map_or(String::new(), |t| {
                format!("p{} ({} samples beyond)", t.percentile, t.beyond)
            }),
        ),
        Metric::new("ops_per_s", "1/s", ratio(n as f64, busy_s), n).with_note("closed loop"),
        Metric::new("peak_rss_mb", "MiB", median(t.get("peak_rss_mb")).unwrap_or(0.0), rounds)
            .with_note("median over rounds of VmHWM"),
        Metric::new(
            "op_p50_x_ceiling",
            "x",
            ratio_to_ceiling(op_ms, t.get("ceiling_ms")).unwrap_or(0.0),
            t.get("ceiling_ms").len(),
        )
        .with_note(kind.ceiling_name()),
    ]
}

/// The per-layer metrics of a traced run: counters and call latencies from its
/// traced rounds, span self times, tracing overhead, and the layer probes (whose
/// spans `probe_tracer` holds).
pub fn per_layer(kind: Kind, run: &RunResult, probe_tracer: &Tracer, seed: u64) -> Vec<Metric> {
    let t = &run.traced;
    let ops = t.total("counted_ops");
    let n_ops = ops as usize;
    let per_op = |name: &str| ratio(t.total(name), ops);
    let call = |name: &str| {
        let v = t.get(&format!("call.{name}"));
        Metric::new(&format!("host.{name}_ms_p50"), "ms", median(v).unwrap_or(0.0), v.len())
    };
    // reduce-chan's only Get is the Get of the reduce target.
    let get = if t.get("call.get").is_empty() {
        let v = t.get("call.reduce_result");
        Metric::new("host.get_ms_p50", "ms", median(v).unwrap_or(0.0), v.len())
            .with_note("Get of the reduce target")
    } else {
        call("get")
    };
    let reduce_note = match kind {
        Kind::ReduceChan => "",
        _ => "reduce probe after each traced round",
    };
    let p50_of = |name: &str| median(t.get(name)).unwrap_or(0.0);
    let mut out = vec![
        call("put"),
        get,
        call("delete"),
        call("reduce_accept").with_note(reduce_note),
        call("reduce_result").with_note(reduce_note),
        Metric::new(
            "directory.queries_per_op",
            "count",
            per_op("counter.directory_queries_served"),
            n_ops,
        ),
        Metric::new(
            "directory.registrations_per_op",
            "count",
            per_op("counter.directory_registrations"),
            n_ops,
        ),
        Metric::new(
            "directory.replicates_per_op",
            "count",
            per_op("counter.directory_replicates_sent"),
            n_ops,
        ),
        Metric::new(
            "directory.inline_hit_ratio",
            "ratio",
            ratio(
                t.total("counter.directory_inline_hits"),
                t.total("counter.directory_queries_served"),
            ),
            n_ops,
        ),
        Metric::new("node.messages_per_op", "count", per_op("counter.messages_sent"), n_ops),
        Metric::new(
            "node.wire_bytes_per_delivered_byte",
            "ratio",
            ratio(t.total("counter.data_bytes_sent"), t.total("delivered_bytes")),
            n_ops,
        )
        .with_note("data-plane bytes sent / bytes returned by Gets"),
        Metric::new("node.relay_pulls_per_op", "count", per_op("relay_pulls"), n_ops)
            .with_note("pulls served by nodes other than the op's source"),
        Metric::new(
            "node.reduce_blocks_per_op",
            "count",
            per_op("counter.reduce_blocks_sent"),
            n_ops,
        ),
        Metric::new(
            "buffer.get_segments_p50",
            "count",
            p50_of("get_segments"),
            t.get("get_segments").len(),
        ),
        Metric::new(
            "tcp.slab_reuse_per_msg",
            "ratio",
            ratio(t.total("counter.recv_slab_reuse"), t.total("counter.messages_sent")),
            n_ops,
        ),
        Metric::new(
            "tcp.corked_frames_per_op",
            "count",
            per_op("counter.corked_frames_per_write"),
            n_ops,
        ),
        Metric::new("proc.cpu_ms_per_op", "ms", per_op("op_cpu_s") * 1e3, n_ops)
            .with_note("utime + stime inside ops"),
        Metric::new(
            "proc.rss_growth_mb_per_op",
            "MiB",
            p50_of("rss_growth_mb_per_op"),
            t.get("rss_growth_mb_per_op").len(),
        )
        .with_note("median over rounds"),
    ];
    out.extend(layer_probes(kind, probe_tracer, seed));
    for (layer, stem) in LAYERS {
        let ms = t.self_ns.get(layer).copied().unwrap_or(0.0) / 1e6;
        out.push(
            Metric::new(&format!("self.{stem}_ms_per_op"), "ms", ratio(ms, ops), n_ops)
                .with_note(format!("self time of {layer} spans")),
        );
    }
    let traced = p50_of("op_ms");
    let untraced = median(run.untraced.get("op_ms")).unwrap_or(0.0);
    out.push(
        Metric::new(
            "trace.overhead_pct",
            "%",
            ratio(traced - untraced, untraced) * 100.0,
            t.get("op_ms").len(),
        )
        .with_note(format!("op p50 traced {traced:.4} ms vs untraced {untraced:.4} ms")),
    );
    out.push(Metric::new("trace.spans_per_op", "count", ratio(t.spans.len() as f64, ops), n_ops));
    out
}

/// Repetitions of each timed probe; the median is reported.
const PROBE_REPS: usize = 9;

/// Time the layer probes on inputs shaped like `kind`'s, each call in a span of its
/// layer.
fn layer_probes(kind: Kind, tr: &Tracer, seed: u64) -> Vec<Metric> {
    let mut rng = Rng::new(seed ^ 0x7072_6f62);
    let size = kind.object_bytes();
    let block = (HopliteConfig::default().block_size as usize).min(size);
    let object = Bytes::from(rng.bytes(size));
    let sample = |layer: &'static str, name: &'static str, f: &mut dyn FnMut() -> Duration| {
        let v: Vec<f64> =
            (0..PROBE_REPS).map(|_| ms(tr.span(None, 0, layer, name, |_| f()))).collect();
        median(&v).expect("probe reps > 0")
    };

    let coalesce_ms = sample("core::buffer", "coalesce", &mut || probes::coalesce(&object, block));

    // One f32 block per node, folded once per block of the object.
    let sources: Vec<Bytes> = (0..kind.nodes())
        .map(|_| {
            let v: Vec<u8> = (0..block / 4)
                .flat_map(|_| ((rng.next_u64() % 256) as f32).to_le_bytes())
                .collect();
            Bytes::from(v)
        })
        .collect();
    let blocks = size.div_ceil(block);
    let gib_s: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (busy, bytes) = tr.span(None, 0, "core::reduce", "combine_into", |_| {
                probes::combine(&sources, blocks)
            });
            bytes as f64 / GIB / busy.as_secs_f64()
        })
        .collect();

    let msg = frame_shape(kind, &object, block);
    let encode_ms = sample("transport::framing", "encode", &mut || probes::encode(&msg));
    let decode_ms = sample("transport::framing", "decode", &mut || probes::decode(&msg));
    let fresh = tr.span(None, 0, "transport::framing", "frame_reader", |_| {
        probes::fresh_slab_mib_per_frame(&msg, 16)
    });

    let mut lo = Loopback::start(1024).expect("loopback probe sockets");
    let rtt: Vec<f64> =
        (0..200).map(|_| ms(lo.round_trip().expect("loopback round trip"))).collect();
    let stream_bytes = 64u64 << 20;
    let gbps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let d = lo.stream(stream_bytes).expect("loopback stream");
            stream_bytes as f64 / GIB / d.as_secs_f64()
        })
        .collect();
    lo.finish().expect("loopback probe shutdown");

    let shape = frame_shape_name(kind);
    vec![
        Metric::new("buffer.coalesce_ms", "ms", coalesce_ms, PROBE_REPS)
            .with_note(format!("ProgressBuffer append + to_payload, {size} B in {block} B blocks")),
        Metric::new("reduce.combine_gib_s", "GiB/s", median(&gib_s).unwrap_or(0.0), PROBE_REPS)
            .with_note(format!("combine_into, {} x {block} B blocks", sources.len())),
        Metric::new("framing.encode_us", "us", encode_ms * 1e3, PROBE_REPS).with_note(shape),
        Metric::new("framing.decode_us", "us", decode_ms * 1e3, PROBE_REPS).with_note(shape),
        Metric::new("framing.fresh_slab_mib_per_frame", "MiB", fresh, 16)
            .with_note(format!("{shape}, payloads held")),
        Metric::new("tcp.loopback_rtt_us", "us", median(&rtt).unwrap_or(0.0) * 1e3, rtt.len())
            .with_note("raw socket, 1 KiB each way"),
        Metric::new("tcp.loopback_gib_s", "GiB/s", median(&gbps).unwrap_or(0.0), PROBE_REPS)
            .with_note("raw socket stream, 64 MiB"),
    ]
}

fn frame_shape_name(kind: Kind) -> &'static str {
    match kind {
        Kind::SmallTcp => "1 KiB inline DirQueryReply",
        Kind::BcastTcp => "4 MiB PushBlock",
        Kind::ReduceChan => "4 MiB ReduceBlock",
    }
}

/// The wire message that carries the workload's bytes.
fn frame_shape(kind: Kind, object: &Bytes, block: usize) -> Message {
    let payload = Payload::Bytes(object.slice(0..block));
    let object_id = ObjectId::from_name("perfbench-frame-probe");
    match kind {
        Kind::SmallTcp => Message::DirQueryReply {
            object: object_id,
            query_id: 1,
            result: QueryResult::Inline { payload },
        },
        Kind::BcastTcp => Message::PushBlock {
            object: object_id,
            offset: 0,
            total_size: object.len() as u64,
            payload,
            complete: false,
        },
        Kind::ReduceChan => Message::ReduceBlock {
            target: object_id,
            to_slot: 0,
            from_slot: 1,
            parent_epoch: 0,
            block_index: 0,
            object_size: object.len() as u64,
            payload,
        },
    }
}
