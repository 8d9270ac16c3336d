//! Self-tests of the benchmark harness: the statistics it reports, the verifier it
//! trusts, and the output it prints.

use bytes::Bytes;
use hoplite_core::prelude::Payload;
use perfbench::report::{parse_result_line, result_line, Metric};
use perfbench::stats::{median, percentile, ratio_to_ceiling, tail};
use perfbench::trace::{self_time_by_layer, Span};
use perfbench::verify::{check_segments, Mismatch};
use perfbench::workload::{run_round, Kind, Tally};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_highest_percentile_with_ten_samples_beyond() {
    // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
    let t = tail(&ramp(1000)).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990.0, 10, 1000));
    // 200 samples: p99 has 2 beyond, p95 has 10.
    let t = tail(&ramp(200)).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
    // 48 samples: p90 has 4 beyond (rank 44), p75 has 12.
    let t = tail(&ramp(48)).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (75.0, 36.0, 12));
    // Order of the input does not matter.
    let mut shuffled = ramp(48);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), tail(&ramp(48)));
}

#[test]
fn tail_falls_back_to_the_median_when_too_few_samples() {
    let t = tail(&ramp(19)).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 9));
    assert!(tail(&[]).is_none());
}

#[test]
fn percentiles_use_nearest_rank() {
    let v = ramp(10);
    assert_eq!(median(&v), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(percentile(&v, 0.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn ceiling_ratio_divides_medians() {
    // Op medians 10 ms against a 2 ms ceiling: five ceilings per op, whatever the
    // outliers on either side.
    let ops = [9.0, 10.0, 10.0, 11.0, 500.0];
    let ceiling = [2.0, 2.0, 0.1, 2.5, 1.5];
    assert_eq!(ratio_to_ceiling(&ops, &ceiling), Some(5.0));
    // A host that slows op and ceiling alike leaves the ratio unchanged.
    let slow_ops: Vec<f64> = ops.iter().map(|v| v * 1.3).collect();
    let slow_ceiling: Vec<f64> = ceiling.iter().map(|v| v * 1.3).collect();
    let r = ratio_to_ceiling(&slow_ops, &slow_ceiling).unwrap();
    assert!((r - 5.0).abs() < 1e-12, "{r}");
    assert_eq!(ratio_to_ceiling(&ops, &[]), None);
    assert_eq!(ratio_to_ceiling(&ops, &[0.0]), None);
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn verification_walks_segments_and_catches_a_flipped_byte() {
    let want = pattern(10_000);
    let segmented = |bytes: &[u8]| {
        Payload::from_segments(vec![
            Bytes::copy_from_slice(&bytes[..4096]),
            Bytes::copy_from_slice(&bytes[4096..8192]),
            Bytes::copy_from_slice(&bytes[8192..]),
        ])
    };
    assert!(matches!(segmented(&want), Payload::Segments { .. }));
    assert_eq!(check_segments(&segmented(&want), &want), Ok(3));
    assert_eq!(check_segments(&Payload::from_vec(want.clone()), &want), Ok(1));

    let mut bad = want.clone();
    bad[5000] ^= 0x01;
    assert_eq!(
        check_segments(&segmented(&bad), &want),
        Err(Mismatch::Byte { offset: 5000, got: want[5000] ^ 0x01, want: want[5000] })
    );
    assert_eq!(
        check_segments(&Payload::from_vec(want[..9999].to_vec()), &want),
        Err(Mismatch::Length { got: 9999, want: 10_000 })
    );
    assert_eq!(check_segments(&Payload::synthetic(10_000), &want), Err(Mismatch::Synthetic));
}

#[test]
fn result_line_round_trips_through_the_parser() {
    let metrics = vec![
        Metric::new("op_p50_ms", "ms", 4.668699, 640),
        Metric::new("ops_per_s", "1/s", 184.16216669385847, 640),
        Metric::new("setup_s", "s", 0.050792631, 16),
        Metric::new("peak_rss_mb", "MiB", 745.0, 16),
    ];
    let line = result_line(true, 640, 0, &metrics);
    let parsed = parse_result_line(&line).unwrap();
    assert!(parsed.correct);
    assert_eq!((parsed.attempted, parsed.failed), (640, 0));
    assert_eq!(parsed.metrics.len(), metrics.len());
    for m in &metrics {
        // Every digit survives the trip.
        assert_eq!(parsed.metrics[&m.name], (m.value, m.unit.to_string()), "{}", m.name);
    }
    let failing = parse_result_line(&result_line(false, 7, 2, &metrics[..1])).unwrap();
    assert_eq!((failing.correct, failing.attempted, failing.failed), (false, 7, 2));
}

#[test]
fn parser_rejects_lines_outside_the_contract() {
    assert!(parse_result_line("{\"correct\": true}").is_err());
    assert!(parse_result_line(
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"extra\": 1}"
    )
    .is_err());
    assert!(parse_result_line(
        "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
    )
    .is_err());
    assert!(parse_result_line(
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}"
    )
    .is_err());
    assert!(parse_result_line(
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
    )
    .is_err());
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |id, parent, layer, start_ns, end_ns| Span {
        id,
        parent,
        op: 1,
        layer,
        name: "x",
        start_ns,
        end_ns,
    };
    // An op of 100 ns with two overlapping child calls covering 10..60 and 40..90.
    let spans = [
        span(1, None, "bench", 0, 100),
        span(2, Some(1), "cluster::host", 10, 60),
        span(3, Some(1), "cluster::host", 40, 90),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["bench"], 20);
    assert_eq!(by_layer["cluster::host"], 100);
}

#[test]
fn tally_survives_the_trip_between_processes() {
    let mut a = Tally::default();
    for line in "attempted 3\nfailed 1\nsamples op_ms 1.5 2.25 0.1\ntotal counter.messages_sent 12\nself bench 40\nerror op 2: length 1, want 2\n".lines() {
        a.absorb(line).unwrap();
    }
    let mut b = Tally::default();
    for line in a.to_lines().lines() {
        b.absorb(line).unwrap();
    }
    assert_eq!((b.attempted, b.failed), (3, 1));
    assert_eq!(b.get("op_ms"), &[1.5, 2.25, 0.1]);
    assert_eq!(b.total("counter.messages_sent"), 12.0);
    assert_eq!(b.self_ns["bench"], 40.0);
    assert_eq!(b.errors, vec!["op 2: length 1, want 2".to_string()]);
    assert!(b.absorb("nonsense").is_err());
}

#[test]
fn a_traced_small_tcp_round_verifies_every_op() {
    let t = run_round(Kind::SmallTcp, 7, 0, true).unwrap();
    let ops = Kind::SmallTcp.ops_per_round();
    // The round's ops plus the reduce probe of a traced round.
    assert_eq!((t.attempted, t.failed), (ops as u64 + 1, 0), "{:?}", t.errors);
    assert_eq!(t.get("call.reduce_accept").len(), 1);
    assert_eq!(t.get("call.reduce_result").len(), 1);
    assert_eq!(t.get("op_ms").len(), ops);
    assert_eq!(t.get("get_segments").len(), ops);
    assert_eq!(t.total("counted_ops"), ops as f64);
    assert_eq!(t.total("delivered_bytes"), (ops * Kind::SmallTcp.object_bytes()) as f64);
    assert!(t.total("counter.messages_sent") > 0.0);
    assert!(!t.spans.is_empty() && t.self_ns.contains_key("cluster::host"));
}
