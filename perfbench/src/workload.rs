//! The three workloads and the round loop that measures them.
//!
//! A run is a fixed number of rounds. Each round cold-starts a `LocalCluster`, warms
//! it up (the timed set-up), then runs a fixed number of closed-loop ops through the
//! public `HopliteClient` calls and drops the cluster. Fixing the op count per
//! cluster keeps memory growth and the latency drift that comes with it identical
//! for a fast and a slow commit; repeating cold starts gives set-up time a median.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hoplite_cluster::{HopliteClient, LocalCluster, LocalFabric};
use hoplite_core::prelude::*;

use crate::probes::{self, Loopback};
use crate::sysinfo;
use crate::trace::{self_time_by_layer, SpanId, Tracer};
use crate::verify::check_segments;

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// Object size of the set-up warm-up: above the inline threshold, so every Get
/// pulls over the data plane and opens the edge it needs.
const WARM_BYTES: usize = 128 * KIB;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 3 nodes over TCP; put 1 KiB, get it from the next node, delete it.
    SmallTcp,
    /// 3 nodes over TCP; put 64 MiB, two nodes get it at once, delete it.
    BcastTcp,
    /// 4 nodes over channels; each puts 16 MiB of f32, sum-reduce, get, delete.
    ReduceChan,
}

impl Kind {
    /// Every workload, in output order.
    pub const ALL: [Kind; 3] = [Kind::SmallTcp, Kind::BcastTcp, Kind::ReduceChan];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallTcp => "small-tcp",
            Kind::BcastTcp => "bcast-tcp",
            Kind::ReduceChan => "reduce-chan",
        }
    }

    /// Nodes in the cluster.
    pub fn nodes(self) -> usize {
        match self {
            Kind::SmallTcp | Kind::BcastTcp => 3,
            Kind::ReduceChan => 4,
        }
    }

    fn fabric(self) -> LocalFabric {
        match self {
            Kind::SmallTcp | Kind::BcastTcp => LocalFabric::Tcp,
            Kind::ReduceChan => LocalFabric::Channels,
        }
    }

    /// Bytes of each object an op puts.
    pub fn object_bytes(self) -> usize {
        match self {
            Kind::SmallTcp => KIB,
            Kind::BcastTcp => 64 * MIB,
            Kind::ReduceChan => 16 * MIB,
        }
    }

    /// Cold starts per run.
    pub fn rounds(self) -> usize {
        match self {
            Kind::SmallTcp => 80,
            Kind::BcastTcp => 14,
            Kind::ReduceChan => 24,
        }
    }

    /// Ops per cold start. Small-tcp's count bounds its per-cluster memory growth.
    pub fn ops_per_round(self) -> usize {
        match self {
            Kind::SmallTcp => 40,
            Kind::BcastTcp => 5,
            Kind::ReduceChan => 16,
        }
    }

    /// What the interleaved ceiling measures.
    pub fn ceiling_name(self) -> &'static str {
        match self {
            Kind::SmallTcp => "raw loopback TCP round trip of 1 KiB, fastest of 5",
            Kind::BcastTcp => "raw loopback TCP stream of 64 MiB",
            Kind::ReduceChan => "memcpy of the 4 x 16 MiB inputs",
        }
    }
}

/// One op's inputs: the objects it puts (one per source node) and the bytes every
/// Get of its result must return.
struct InputSet {
    sources: Vec<Bytes>,
    expected: Bytes,
}

/// Precomputed inputs, cycled by op index. Built before any cluster starts, so
/// input generation is never part of set-up time.
pub struct Inputs {
    sets: Vec<InputSet>,
}

/// Deterministic generator for inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

impl Inputs {
    /// The inputs of `kind` for `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x7065_7266_6265_6e63);
        let len = kind.object_bytes();
        let sets = match kind {
            // Distinct bytes for neighbouring ops, so a Get that returned an earlier
            // op's object would fail verification.
            Kind::SmallTcp | Kind::BcastTcp => (0..if kind == Kind::SmallTcp { 64 } else { 2 })
                .map(|_| {
                    let b = Bytes::from(rng.bytes(len));
                    InputSet { sources: vec![b.clone()], expected: b }
                })
                .collect(),
            // Small whole numbers, so the f32 sum is exact in any reduce-tree order.
            Kind::ReduceChan => (0..2).map(|_| reduce_set(&mut rng, kind.nodes(), len)).collect(),
        };
        Inputs { sets }
    }

    fn set(&self, op: u64) -> &InputSet {
        &self.sets[op as usize % self.sets.len()]
    }
}

/// `nodes` f32 objects of `len` bytes holding small whole numbers, and their sum:
/// exact in f32 whatever order a reduce tree adds them in.
fn reduce_set(rng: &mut Rng, nodes: usize, len: usize) -> InputSet {
    let mut sum = vec![0f32; len / 4];
    let sources = (0..nodes)
        .map(|_| {
            let values = rng.bytes(len / 4);
            let mut raw = vec![0u8; len];
            for ((acc, &b), out) in sum.iter_mut().zip(&values).zip(raw.chunks_exact_mut(4)) {
                *acc += f32::from(b);
                out.copy_from_slice(&f32::from(b).to_le_bytes());
            }
            Bytes::from(raw)
        })
        .collect();
    let mut expected = vec![0u8; len];
    for (v, out) in sum.iter().zip(expected.chunks_exact_mut(4)) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    InputSet { sources, expected: Bytes::from(expected) }
}

/// Everything measured over a group of rounds (all rounds of an untraced run; the
/// traced or untraced half of a traced run).
#[derive(Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned wrong bytes.
    pub failed: u64,
    /// Samples by name: `op_ms` (wall time of each completed op), `setup_s` (cold
    /// start + warm-up of each round), `ceiling_ms` (interleaved ceiling samples),
    /// `get_segments` (segment count of each returned payload), one per round:
    /// `peak_rss_mb`, `rss_growth_mb_per_op`, `round_s` (cluster lifetime) and
    /// `steal_s` (host steal over it), and `call.<name>` (per-call latency, ms, of
    /// `put`, `get`, ...).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Totals by name: `delivered_bytes` (bytes returned by Gets), `relay_pulls`
    /// (pulls served by nodes other than the op's source), `op_cpu_s` (process CPU
    /// inside ops), `counted_ops` (ops those cover), and `counter.<field>` (node +
    /// transport counter deltas summed over nodes). All but `delivered_bytes` are
    /// kept in traced rounds only: they need a status read per op.
    pub totals: BTreeMap<String, f64>,
    /// Self time of each layer's spans, ns (traced rounds only).
    pub self_ns: BTreeMap<String, f64>,
    /// Spans recorded, as JSON lines (traced rounds only).
    pub spans: Vec<String>,
    /// First few failures, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn push(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.totals.entry(name.to_string()).or_default() += v;
    }

    /// Samples of `name` (empty when none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total of `name` (0 when nothing was counted).
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Serialize for the parent process: one line per sample series, total, layer
    /// self time, span and error.
    pub fn to_lines(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (k, v) in &self.samples {
            let vals: Vec<String> = v.iter().map(f64::to_string).collect();
            out.push_str(&format!("samples {k} {}\n", vals.join(" ")));
        }
        for (k, v) in &self.totals {
            out.push_str(&format!("total {k} {v}\n"));
        }
        for (k, v) in &self.self_ns {
            out.push_str(&format!("self {k} {v}\n"));
        }
        for s in &self.spans {
            out.push_str(&format!("span {s}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        out
    }

    /// Count a discarded round attempt: its ops, failures and errors only.
    fn absorb_attempt(&mut self, out: &str) -> std::io::Result<()> {
        let mut attempt = Tally::default();
        for line in out.lines() {
            attempt.absorb(line).map_err(std::io::Error::other)?;
        }
        self.attempted += attempt.attempted;
        self.failed += attempt.failed;
        self.errors.extend(attempt.errors);
        Ok(())
    }

    /// Host steal seconds over CPU-seconds of wall time, across the rounds held.
    pub fn steal_share(&self, cpus: f64) -> f64 {
        steal_share(&[self], cpus)
    }

    /// Fold one line of [`Tally::to_lines`] output into this tally.
    pub fn absorb(&mut self, line: &str) -> std::result::Result<(), String> {
        let bad = || format!("malformed round output: {line:?}");
        let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let (key, val) = rest.split_once(' ').unwrap_or((rest, ""));
        match tag {
            "attempted" => self.attempted += rest.parse::<u64>().map_err(|_| bad())?,
            "failed" => self.failed += rest.parse::<u64>().map_err(|_| bad())?,
            "samples" => {
                let vals =
                    val.split_whitespace().map(num).collect::<std::result::Result<Vec<_>, _>>()?;
                self.samples.entry(key.to_string()).or_default().extend(vals);
            }
            "total" => *self.totals.entry(key.to_string()).or_default() += num(val)?,
            "self" => *self.self_ns.entry(key.to_string()).or_default() += num(val)?,
            "span" => self.spans.push(rest.to_string()),
            "error" => self.errors.push(rest.to_string()),
            _ => return Err(bad()),
        }
        Ok(())
    }
}

/// Host steal seconds over CPU-seconds of round wall time, across `tallies`.
fn steal_share(tallies: &[&Tally], cpus: f64) -> f64 {
    let sum = |name| tallies.iter().flat_map(|t| t.get(name)).sum::<f64>();
    sum("steal_s") / (sum("round_s") * cpus).max(1e-9)
}

/// Wall-clock budget and tracing choice of one run.
pub struct RunSpec {
    /// The workload.
    pub kind: Kind,
    /// Seeds object names and payload bytes.
    pub seed: u64,
    /// Round attempts spoiled by host steal are run again only while the rounds
    /// still to come fit in this budget.
    pub budget: Duration,
    /// Alternate traced and untraced rounds.
    pub trace: bool,
    /// A round still running at this instant is killed and the run fails.
    pub deadline: Instant,
}

/// A round whose host steal exceeds this share of its CPU time (steal seconds over
/// round wall time times CPUs) ran while the hypervisor was running someone else,
/// and is run again while the time budget allows.
pub const MAX_STEAL_SHARE: f64 = 0.03;

/// The measured halves of a run: `untraced` always, `traced` in a traced run.
pub struct RunResult {
    /// Rounds kept without tracing.
    pub untraced: Tally,
    /// Rounds kept with spans and per-op counters.
    pub traced: Tally,
    /// Rounds kept.
    pub rounds: usize,
    /// Ops, failures and errors of the attempts discarded for host steal (their
    /// samples are dropped; their ops still count, since every op is verified).
    pub rejected: Tally,
    /// Round attempts discarded for host steal.
    pub rejected_rounds: usize,
}

impl RunResult {
    /// Ops attempted across every round attempt.
    pub fn attempted(&self) -> u64 {
        self.untraced.attempted + self.traced.attempted + self.rejected.attempted
    }

    /// Ops failed across every round attempt.
    pub fn failed(&self) -> u64 {
        self.untraced.failed + self.traced.failed + self.rejected.failed
    }

    /// Host steal seconds over CPU-seconds of wall time, across the kept rounds.
    pub fn kept_steal_share(&self, cpus: f64) -> f64 {
        steal_share(&[&self.untraced, &self.traced], cpus)
    }

    /// The first failures of every round attempt.
    pub fn errors(&self) -> impl Iterator<Item = &String> {
        self.untraced.errors.iter().chain(&self.traced.errors).chain(&self.rejected.errors)
    }
}

/// Run the workload's rounds, each in a fresh child process (`exe --round k`), so
/// every cold start also starts from a fresh allocator: no round inherits the
/// memory an earlier one freed, and rounds are independent samples.
///
/// Every planned round is kept exactly once, so a run always measures the same
/// ops. After one pass over the rounds, the round with the most host steal above
/// [`MAX_STEAL_SHARE`] is run again, for as long as another attempt fits in the time
/// budget; each round keeps its least-stolen attempt. Retrying at the end rather
/// than at once spreads the retries over the whole budget, so a burst of steal
/// that spoils the first pass can end before they run.
pub fn run(spec: &RunSpec, exe: &std::path::Path) -> std::io::Result<RunResult> {
    let mut result = RunResult {
        untraced: Tally::default(),
        traced: Tally::default(),
        rounds: 0,
        rejected: Tally::default(),
        rejected_rounds: 0,
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let started = Instant::now();
    let attempt = |round: usize| -> std::io::Result<(f64, String)> {
        let out = run_child(spec, exe, round, traced_round(spec, round))?;
        let mut tally = Tally::default();
        for line in out.lines() {
            tally.absorb(line).map_err(std::io::Error::other)?;
        }
        Ok((tally.steal_share(cpus), out))
    };
    let mut kept: Vec<(f64, String)> =
        (0..spec.kind.rounds()).map(attempt).collect::<std::io::Result<_>>()?;
    let per_attempt = started.elapsed() / spec.kind.rounds().max(1) as u32;
    while started.elapsed() + per_attempt < spec.budget {
        let worst = (0..kept.len())
            .filter(|&r| kept[r].0 > MAX_STEAL_SHARE)
            .max_by(|&a, &b| kept[a].0.total_cmp(&kept[b].0));
        let Some(round) = worst else { break };
        let again = attempt(round)?;
        let discarded = if again.0 < kept[round].0 {
            std::mem::replace(&mut kept[round], again)
        } else {
            again
        };
        result.rejected.absorb_attempt(&discarded.1)?;
        result.rejected_rounds += 1;
    }
    for (round, (_, out)) in kept.iter().enumerate() {
        let tally =
            if traced_round(spec, round) { &mut result.traced } else { &mut result.untraced };
        for line in out.lines() {
            tally.absorb(line).map_err(std::io::Error::other)?;
        }
        result.rounds += 1;
    }
    Ok(result)
}

/// In a traced run, odd rounds are traced and even rounds are not.
fn traced_round(spec: &RunSpec, round: usize) -> bool {
    spec.trace && round % 2 == 1
}

/// Run round `round` in a child process and return its output. The child is killed
/// (and reaped) if it outlives the run's deadline.
fn run_child(
    spec: &RunSpec,
    exe: &std::path::Path,
    round: usize,
    traced: bool,
) -> std::io::Result<String> {
    use std::process::{Command, Stdio};
    let mut child = Command::new(exe)
        .args(["--workload", spec.kind.name(), "--seed", &spec.seed.to_string()])
        .args(["--round", &round.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Drain stdout on a thread so a child that writes a lot never blocks on a full
    // pipe while this thread polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        std::io::Read::read_to_string(&mut stdout, &mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if Instant::now() >= spec.deadline {
            child.kill()?;
            child.wait()?;
            let _ = reader.join();
            return Err(std::io::Error::other(format!("round {round} overran the deadline")));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let out = reader.join().expect("stdout reader panicked")?;
    if !status.success() {
        return Err(std::io::Error::other(format!("round {round} exited with {status}")));
    }
    Ok(out)
}

/// Run one round in this process: generate the inputs, cold-start and warm up a
/// cluster (timed: set-up), run the round's ops with a ceiling sample after each,
/// and record everything in a [`Tally`].
pub fn run_round(kind: Kind, seed: u64, round: usize, traced: bool) -> std::io::Result<Tally> {
    let inputs = Inputs::generate(kind, seed);
    let tr = Tracer::new(traced);
    let mut tally = Tally::default();
    let mut ceiling = Ceiling::start(kind, &inputs)?;
    let first_op = (round * kind.ops_per_round()) as u64 + 1;
    let steal0 = sysinfo::host_steal_s();
    let t = Instant::now();
    let cluster = tr.span(None, 0, "cluster::local", "start", |_| {
        LocalCluster::with_fabric(kind.nodes(), HopliteConfig::default(), kind.fabric())
    });
    if let Err(e) = warm_up(&cluster, kind.nodes(), &format!("w{seed}-{round}")) {
        tally.attempted += kind.ops_per_round() as u64;
        tally.fail(format!("round {round} warm-up: {e}"));
        return Ok(tally);
    }
    tally.push("setup_s", t.elapsed().as_secs_f64());
    let rss0 = sysinfo::rss_mb().unwrap_or(0.0);
    let mut before = traced.then(|| Snapshot::read(&cluster, &tr, first_op));
    for op in first_op..first_op + kind.ops_per_round() as u64 {
        let cpu0 = sysinfo::process_cpu_s();
        let outcome = run_op(kind, &cluster, &inputs, seed, op, &tr, &mut tally);
        let cpu1 = sysinfo::process_cpu_s();
        tally.attempted += 1;
        match outcome {
            Ok(done) => {
                let mut verified = true;
                for (payload, expected) in &done.fetched {
                    let checked = tr.span(None, op, "core::buffer", "segments", |_| {
                        check_segments(payload, expected)
                    });
                    match checked {
                        Ok(n) => tally.push("get_segments", n as f64),
                        Err(e) => {
                            tally.fail(format!("op {op}: {e}"));
                            verified = false;
                            break;
                        }
                    }
                    tally.add("delivered_bytes", payload.len() as f64);
                }
                if verified {
                    tally.push("op_ms", done.ms);
                }
                if let Some(prev) = before.take() {
                    let now = Snapshot::read(&cluster, &tr, op);
                    now.fold_delta(&prev, done.source, &mut tally);
                    tally.add("op_cpu_s", cpu1.zip(cpu0).map_or(0.0, |(b, a)| b - a));
                    tally.add("counted_ops", 1.0);
                    before = Some(now);
                }
            }
            Err(e) => tally.fail(format!("op {op}: {e}")),
        }
        let sample = tr.span(None, op, "ceiling", "sample", |_| ceiling.sample())?;
        tally.push("ceiling_ms", sample.as_secs_f64() * 1e3);
    }
    let rss1 = sysinfo::rss_mb().unwrap_or(0.0);
    tally.push("rss_growth_mb_per_op", (rss1 - rss0) / kind.ops_per_round() as f64);
    tally.push("round_s", t.elapsed().as_secs_f64());
    tally.push("steal_s", sysinfo::host_steal_s().zip(steal0).map_or(0.0, |(b, a)| b - a));
    tally.push("peak_rss_mb", sysinfo::peak_rss_mb().unwrap_or(0.0));
    if traced && kind != Kind::ReduceChan {
        reduce_probe(kind, &cluster, seed, round, &tr, &mut tally);
    }
    drop(cluster);
    ceiling.finish()?;
    let spans = tr.spans();
    for (layer, ns) in self_time_by_layer(&spans) {
        tally.self_ns.insert(layer.to_string(), ns as f64);
    }
    tally.spans = spans.iter().map(|s| s.to_json(round)).collect();
    Ok(tally)
}

/// Sum-reduce one block-sized f32 object per node into a target at node 0 and Get
/// it: gives the reduce host calls samples on the workloads whose ops make none.
/// Runs after a traced round's ops, outside any op timer; the result is verified
/// and counted like an op.
fn reduce_probe(
    kind: Kind,
    cluster: &LocalCluster,
    seed: u64,
    round: usize,
    tr: &Tracer,
    tally: &mut Tally,
) {
    let len = kind.object_bytes().min(HopliteConfig::default().block_size as usize);
    let set = reduce_set(&mut Rng::new(seed ^ 0x7265_6475_6365 ^ round as u64), kind.nodes(), len);
    let name = |part: &str| {
        ObjectId::from_name(&format!("{}-{seed}-round{round}-probe-{part}", kind.name()))
    };
    let sources: Vec<ObjectId> = (0..kind.nodes()).map(|k| name(&format!("src{k}"))).collect();
    let target = name("sum");
    let root = cluster.client(0);
    let mut calls = Vec::new();
    let mut reduce = || -> Result<Payload> {
        for (k, &obj) in sources.iter().enumerate() {
            cluster.client(k).put(obj, Payload::Bytes(set.sources[k].clone()))?;
        }
        host_call(tr, None, 0, "reduce_accept", &mut calls, || {
            root.reduce(target, sources.clone(), None, ReduceSpec::sum_f32())
        })?;
        let got = host_call(tr, None, 0, "reduce_result", &mut calls, || root.get(target))?;
        for (k, &obj) in sources.iter().enumerate() {
            cluster.client(k).delete(obj)?;
        }
        root.delete(target)?;
        Ok(got)
    };
    let outcome = reduce().map_err(|e| e.to_string());
    tally.attempted += 1;
    match outcome.and_then(|got| check_segments(&got, &set.expected).map_err(|e| e.to_string())) {
        Ok(_) => calls.into_iter().for_each(|(call, ms)| tally.push(&format!("call.{call}"), ms)),
        Err(e) => tally.fail(format!("round {round} reduce probe: {e}")),
    }
}

/// Put one object per node, Get each from every other node, delete them: opens every
/// edge the workload uses and fills the connections' receive pools.
fn warm_up(cluster: &LocalCluster, n: usize, tag: &str) -> std::result::Result<(), String> {
    let data = Bytes::from(vec![0xa5u8; WARM_BYTES]);
    let objs: Vec<ObjectId> =
        (0..n).map(|a| ObjectId::from_name(&format!("{tag}-warm-{a}"))).collect();
    let err = |e: HopliteError| e.to_string();
    for (a, &obj) in objs.iter().enumerate() {
        cluster.client(a).put(obj, Payload::Bytes(data.clone())).map_err(err)?;
    }
    for (a, &obj) in objs.iter().enumerate() {
        for b in (0..n).filter(|&b| b != a) {
            let got = cluster.client(b).get(obj).map_err(err)?;
            check_segments(&got, &data).map_err(|e| e.to_string())?;
        }
    }
    for (a, &obj) in objs.iter().enumerate() {
        cluster.client(a).delete(obj).map_err(err)?;
    }
    Ok(())
}

/// A completed op: its wall time, the node that put its object(s), and every
/// payload a Get returned with the bytes it must hold.
struct OpDone {
    ms: f64,
    source: usize,
    fetched: Vec<(Payload, Bytes)>,
}

/// Time one client call inside a `cluster::host` span named `name`, and record
/// `(name, ms)` in `calls`.
fn host_call<R>(
    tr: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    name: &'static str,
    calls: &mut Vec<(&'static str, f64)>,
    f: impl FnOnce() -> R,
) -> R {
    tr.span(parent, op, "cluster::host", name, |_| {
        let t = Instant::now();
        let out = f();
        calls.push((name, t.elapsed().as_secs_f64() * 1e3));
        out
    })
}

fn run_op(
    kind: Kind,
    cluster: &LocalCluster,
    inputs: &Inputs,
    seed: u64,
    op: u64,
    tr: &Tracer,
    tally: &mut Tally,
) -> Result<OpDone> {
    let n = kind.nodes();
    let set = inputs.set(op);
    let name = |part: &str| ObjectId::from_name(&format!("{}-{seed}-{op}-{part}", kind.name()));
    let source = op as usize % n;
    let mut calls = Vec::new();
    let t = Instant::now();
    let fetched = tr.span(None, op, "bench", "op", |span| -> Result<Vec<(Payload, Bytes)>> {
        match kind {
            Kind::SmallTcp => {
                let obj = name("obj");
                let (src, dst) = (cluster.client(source), cluster.client((source + 1) % n));
                let payload = Payload::Bytes(set.sources[0].clone());
                host_call(tr, span, op, "put", &mut calls, || src.put(obj, payload))?;
                let got = host_call(tr, span, op, "get", &mut calls, || dst.get(obj))?;
                host_call(tr, span, op, "delete", &mut calls, || src.delete(obj))?;
                Ok(vec![(got, set.expected.clone())])
            }
            Kind::BcastTcp => {
                let obj = name("obj");
                let src = cluster.client(source);
                let payload = Payload::Bytes(set.sources[0].clone());
                host_call(tr, span, op, "put", &mut calls, || src.put(obj, payload))?;
                let receivers: Vec<HopliteClient> =
                    (1..n).map(|k| cluster.client((source + k) % n)).collect();
                let results: Vec<(Result<Payload>, Vec<_>)> = std::thread::scope(|s| {
                    let handles: Vec<_> = receivers
                        .iter()
                        .map(|c| {
                            s.spawn(move || {
                                let mut mine = Vec::new();
                                let got = host_call(tr, span, op, "get", &mut mine, || c.get(obj));
                                (got, mine)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("get thread panicked")).collect()
                });
                let mut fetched = Vec::new();
                for (got, mine) in results {
                    calls.extend(mine);
                    fetched.push((got?, set.expected.clone()));
                }
                host_call(tr, span, op, "delete", &mut calls, || src.delete(obj))?;
                Ok(fetched)
            }
            Kind::ReduceChan => {
                let root = cluster.client(source);
                let sources: Vec<ObjectId> = (0..n).map(|k| name(&format!("src{k}"))).collect();
                for (k, &obj) in sources.iter().enumerate() {
                    let payload = Payload::Bytes(set.sources[k].clone());
                    let c = cluster.client(k);
                    host_call(tr, span, op, "put", &mut calls, || c.put(obj, payload))?;
                }
                let target = name("sum");
                let spec = ReduceSpec::sum_f32();
                host_call(tr, span, op, "reduce_accept", &mut calls, || {
                    root.reduce(target, sources.clone(), None, spec)
                })?;
                let got =
                    host_call(tr, span, op, "reduce_result", &mut calls, || root.get(target))?;
                for (k, &obj) in sources.iter().enumerate() {
                    let c = cluster.client(k);
                    host_call(tr, span, op, "delete", &mut calls, || c.delete(obj))?;
                }
                host_call(tr, span, op, "delete", &mut calls, || root.delete(target))?;
                Ok(vec![(got, set.expected.clone())])
            }
        }
    })?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    for (call, ms) in calls {
        tally.push(&format!("call.{call}"), ms);
    }
    Ok(OpDone { ms, source, fetched })
}

/// Summed node counters (plus transport counters) and per-node pulls served.
struct Snapshot {
    totals: BTreeMap<&'static str, u64>,
    pulls: Vec<u64>,
}

impl Snapshot {
    fn read(cluster: &LocalCluster, tr: &Tracer, op: u64) -> Snapshot {
        tr.span(None, op, "cluster::local", "status", |_| {
            let nodes: Vec<NodeMetrics> =
                (0..cluster.len()).filter_map(|n| cluster.status(n)).map(|s| s.metrics).collect();
            let mut totals = BTreeMap::new();
            for m in nodes.iter().chain([&cluster.transport_metrics()]) {
                for (k, v) in m.fields() {
                    *totals.entry(k).or_insert(0) += v;
                }
            }
            Snapshot { totals, pulls: nodes.iter().map(|m| m.pulls_served).collect() }
        })
    }

    fn fold_delta(&self, before: &Snapshot, source: usize, tally: &mut Tally) {
        for (k, v) in &self.totals {
            let d = v.saturating_sub(before.totals.get(k).copied().unwrap_or(0));
            tally.add(&format!("counter.{k}"), d as f64);
        }
        for (node, (now, was)) in self.pulls.iter().zip(&before.pulls).enumerate() {
            if node != source {
                tally.add("relay_pulls", now.saturating_sub(*was) as f64);
            }
        }
    }
}

/// The interleaved ceiling of a workload.
enum Ceiling {
    RoundTrip(Loopback),
    Stream(Loopback, u64),
    Memcpy(Vec<u8>, Vec<Bytes>),
}

impl Ceiling {
    fn start(kind: Kind, inputs: &Inputs) -> std::io::Result<Ceiling> {
        Ok(match kind {
            Kind::SmallTcp => Ceiling::RoundTrip(Loopback::start(kind.object_bytes())?),
            Kind::BcastTcp => Ceiling::Stream(Loopback::start(1)?, kind.object_bytes() as u64),
            Kind::ReduceChan => {
                let src = inputs.sets[0].sources.clone();
                Ceiling::Memcpy(vec![0u8; kind.object_bytes()], src)
            }
        })
    }

    fn sample(&mut self) -> std::io::Result<Duration> {
        match self {
            // The fastest of a few: a round trip right after an op can queue behind
            // the op's leftover work, and the ceiling is the uncontended cost.
            Ceiling::RoundTrip(l) => (0..5)
                .map(|_| l.round_trip())
                .min_by_key(|r| *r.as_ref().unwrap_or(&Duration::MAX))
                .expect("five samples"),
            Ceiling::Stream(l, bytes) => l.stream(*bytes),
            Ceiling::Memcpy(dst, src) => Ok(probes::memcpy(dst, src)),
        }
    }

    fn finish(self) -> std::io::Result<()> {
        match self {
            Ceiling::RoundTrip(l) | Ceiling::Stream(l, _) => l.finish(),
            Ceiling::Memcpy(..) => Ok(()),
        }
    }
}
