//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, a diagnostics record, and as its last line one JSON result
//! object (see `report`). Exits non-zero on bad arguments or an internal error.
//!
//! Each round of the run executes in a child process of this same binary
//! (`--round <k>`), which prints its samples for the parent to aggregate.

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::report::{quote, result_line, table};
use perfbench::stats::tail;
use perfbench::summary::{end_to_end, per_layer};
use perfbench::sysinfo;
use perfbench::trace::Tracer;
use perfbench::workload::{run, run_round, Kind, RunSpec};

/// A run still going after this long is stuck: its round is killed and the run
/// fails without a result.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run only this round and print its samples.
    round: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <small-tcp|bcast-tcp|reduce-chan> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace, mut round) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--round" => round = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        round,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.round {
        Some(round) => run_round(args.kind, args.seed, round, args.trace).and_then(|tally| {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(tally.to_lines().as_bytes())?;
            stdout.flush()
        }),
        None => measure(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn measure(args: &Args) -> std::io::Result<()> {
    let wall = Instant::now();
    let (cpu0, steal0) = (sysinfo::children_cpu_s(), sysinfo::host_steal_s());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = RunSpec {
        kind: args.kind,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        deadline: wall + DEADLINE,
    };
    let result = run(&spec, &std::env::current_exe()?)?;
    let probe_tracer = Tracer::new(true);
    let metrics = if args.trace {
        per_layer(args.kind, &result, &probe_tracer, args.seed)
    } else {
        end_to_end(args.kind, &result.untraced)
    };
    let (u, t) = (&result.untraced, &result.traced);
    let (attempted, failed) = (result.attempted(), result.failed());
    for e in result.errors() {
        eprintln!("perfbench: FAILED {e}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        std::fs::create_dir_all(path.parent().expect("file in a directory"))?;
        // Probe spans ran in this process, after the rounds: they carry the round
        // number one past the last round.
        let probe_spans = probe_tracer.spans();
        let mut lines = t.spans.clone();
        lines.extend(probe_spans.iter().map(|s| s.to_json(result.rounds)));
        let lines = lines.join("\n") + "\n";
        std::fs::write(&path, lines)?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let delta = |a: Option<f64>, b: Option<f64>| b.zip(a).map_or(-1.0, |(b, a)| b - a);
    let op_tail = tail(u.get("op_ms"));
    print!("{}", table(&metrics));
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {}, \
         \"ops_per_round\": {}, \"rounds_rejected_for_steal\": {}, \"kept_rounds_steal_share\": {}, \
         \"ops_attempted\": {attempted}, \"ops_failed\": {failed}, \
         \"untraced_ops\": {}, \"traced_ops\": {}, \"setup_samples\": {}, \
         \"tail_percentile\": {}, \"tail_samples_beyond\": {}, \"ceiling\": {}, \"ceiling_samples\": {}, \
         \"rounds_cpu_s\": {}, \"host_steal_s\": {}, \"wall_s\": {}, \"cpus\": {}}}}}",
        quote(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        result.rounds,
        args.kind.ops_per_round(),
        result.rejected_rounds,
        result.kept_steal_share(cpus as f64),
        u.get("op_ms").len(),
        t.get("op_ms").len(),
        u.get("setup_s").len() + t.get("setup_s").len(),
        op_tail.map_or(0.0, |t| t.percentile),
        op_tail.map_or(0, |t| t.beyond),
        quote(args.kind.ceiling_name()),
        u.get("ceiling_ms").len() + t.get("ceiling_ms").len(),
        delta(cpu0, sysinfo::children_cpu_s()),
        delta(steal0, sysinfo::host_steal_s()),
        wall.elapsed().as_secs_f64(),
        cpus,
    );
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}
