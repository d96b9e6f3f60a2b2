//! The sweep dump: a write-only JSON record of a [`SweepResult`].
//!
//! `figures --out` writes one `sweep_*.json` per sweep beside the figures'
//! SVGs, which it renders from the same in-memory result; nothing in the
//! workspace reads a dump back. The layout is what `serde_json` produced
//! for the derived types (unit enum variants as strings, structs as
//! objects), so external scripts written against earlier dumps keep
//! working. Non-finite floats — a column no seed defined — are written as
//! `null`, since JSON has no NaN.

use crate::stats::{column, Column};
use crate::SweepResult;
use std::fmt::Write as _;

/// Version of the dump layout written by [`to_json`]. Bumped to 2 when the
/// per-system delay/hop percentile stats were added, to 3 when the
/// Byzantine columns plus the `fault_model`/`git_commit` provenance fields
/// arrived, to 4 when the congestion columns (queue-delay percentiles,
/// hot-link utilization, congestion drops) and the `Load` sweep landed,
/// and to 5 for an optional `daemon_latency` section, since removed.
pub const SCHEMA_VERSION: u64 = 5;

/// Every per-system statistic of a dump: its JSON key and the per-run
/// value its mean and confidence interval are taken over, in dump order.
pub const STATS: [(&str, Column); 33] = [
    ("throughput_bps", |r| r.throughput_bps),
    ("mean_delay_s", |r| r.mean_delay_s),
    ("energy_communication_j", |r| r.energy_communication_j),
    ("energy_construction_j", |r| r.energy_construction_j),
    ("energy_total_j", crate::energy_total_j),
    ("qos_delivery_ratio", |r| r.qos_delivery_ratio),
    ("delivery_ratio", |r| r.delivery_ratio),
    ("retransmissions", |r| r.retransmissions as f64),
    ("detections", |r| r.detections as f64),
    ("false_suspicions", |r| r.false_suspicions as f64),
    ("detection_latency_s", |r| r.mean_detection_latency_s),
    ("handovers", |r| r.handovers as f64),
    ("drop_no_access", |r| r.drop_no_access as f64),
    ("drop_no_route", |r| r.drop_no_route as f64),
    ("drop_hops", |r| r.drop_hops as f64),
    ("wrongful_evictions", |r| r.wrongful_evictions as f64),
    ("forged_acks", |r| r.forged_acks as f64),
    ("slander_events", |r| r.slander_events as f64),
    ("misroutes", |r| r.misroutes as f64),
    ("attackers_contained", |r| r.attackers_contained as f64),
    ("containment_time_s", |r| r.mean_containment_time_s),
    ("delay_p50_s", |r| r.delay_p50_s),
    ("delay_p95_s", |r| r.delay_p95_s),
    ("delay_p99_s", |r| r.delay_p99_s),
    ("deadline_miss_ratio", |r| r.deadline_miss_ratio),
    ("hop_p50", |r| r.hop_p50),
    ("hop_p99", |r| r.hop_p99),
    ("queue_delay_p50_s", |r| r.queue_delay_p50_s),
    ("queue_delay_p95_s", |r| r.queue_delay_p95_s),
    ("queue_delay_p99_s", |r| r.queue_delay_p99_s),
    ("queue_max_s", |r| r.queue_max_s),
    ("hot_link_utilization", |r| r.hot_link_utilization),
    ("congestion_drops", |r| r.congestion_drops as f64),
];

/// Serializes a sweep result as pretty-printed JSON.
pub fn to_json(result: &SweepResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"sweep\": \"{:?}\",", result.sweep);
    out.push_str("  \"points\": [\n");
    for (i, point) in result.points.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"x\": {},", fmt_f64(point.x));
        let _ = writeln!(out, "      \"axis\": {},", fmt_f64(point.axis));
        out.push_str("      \"systems\": [\n");
        for (j, runs) in point.runs.iter().enumerate() {
            out.push_str("        {\n");
            for (s, &(name, f)) in STATS.iter().enumerate() {
                let stat = column(runs, f);
                let comma = if s + 1 < STATS.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "          \"{name}\": {{ \"mean\": {}, \"ci95\": {}, \"n\": {} }}{comma}",
                    fmt_f64(stat.mean),
                    fmt_f64(stat.ci95),
                    stat.n
                );
            }
            let comma = if j + 1 < point.runs.len() { "," } else { "" };
            let _ = writeln!(out, "        }}{comma}");
        }
        out.push_str("      ]\n");
        let comma = if i + 1 < result.points.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    let seeds: Vec<String> = result.seeds.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));
    let _ = writeln!(out, "  \"scale\": {},", fmt_f64(result.scale));
    let _ = writeln!(out, "  \"fault_model\": \"{:?}\",", result.fault_model);
    let _ = writeln!(out, "  \"git_commit\": \"{}\"", result.git_commit);
    out.push('}');
    out
}

/// Shortest round-trip float representation; `null` for non-finite values
/// (JSON has no NaN/Infinity).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sweep, SweepPoint, SYSTEMS};
    use serde::Value;
    use wsan_sim::{FaultModel, RunSummary};

    fn sample() -> SweepResult {
        let run = |throughput_bps, mean_delay_s| RunSummary {
            throughput_bps,
            mean_delay_s,
            ..RunSummary::default()
        };
        let runs = vec![run(1234.5, 0.125), run(1300.25, 0.5)];
        SweepResult {
            sweep: Sweep::Faults,
            points: vec![
                SweepPoint { x: 2.0, axis: 2.0, runs: vec![runs.clone(); SYSTEMS.len()] },
                SweepPoint { x: 4.0, axis: 4.0, runs: vec![runs; SYSTEMS.len()] },
            ],
            seeds: vec![1, 2, 3],
            scale: 0.25,
            fault_model: FaultModel::Byzantine,
            git_commit: "deadbeef".to_string(),
        }
    }

    fn read_stat(value: &Value) -> (Option<f64>, Option<f64>, Option<u64>) {
        let f = |key| value.get(key).and_then(Value::as_f64);
        (f("mean"), f("ci95"), value.get("n").and_then(Value::as_u64))
    }

    #[test]
    fn dump_parses_with_the_serde_shim_and_carries_every_stat() {
        let original = sample();
        let dump = serde::json::from_str(&to_json(&original)).expect("the dump is JSON");
        assert_eq!(dump.get("sweep").and_then(Value::as_str), Some("Faults"));
        assert_eq!(dump.get("scale").and_then(Value::as_f64), Some(0.25));
        assert_eq!(dump.get("fault_model").and_then(Value::as_str), Some("Byzantine"));
        let seeds: Vec<u64> = dump
            .get("seeds")
            .and_then(Value::as_seq)
            .expect("seeds")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(seeds, original.seeds);
        // Every key of `STATS` is dumped exactly once per system, in order.
        let want_keys: Vec<&str> = STATS.iter().map(|&(k, _)| k).collect();
        let mut unique = want_keys.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), want_keys.len(), "a key repeats in STATS");
        let points = dump.get("points").and_then(Value::as_seq).expect("points");
        assert_eq!(points.len(), original.points.len());
        for (point, want) in points.iter().zip(&original.points) {
            assert_eq!(point.get("x").and_then(Value::as_f64), Some(want.x));
            assert_eq!(point.get("axis").and_then(Value::as_f64), Some(want.axis));
            let systems = point.get("systems").and_then(Value::as_seq).expect("systems");
            assert_eq!(systems.len(), want.runs.len());
            for (system, runs) in systems.iter().zip(&want.runs) {
                let fields = system.as_map().expect("a system is an object");
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, want_keys);
                for (name, f) in STATS {
                    let stat = column(runs, f);
                    let got = read_stat(system.get(name).expect("present"));
                    assert_eq!(got, (Some(stat.mean), Some(stat.ci95), Some(stat.n as u64)), "{name}");
                }
            }
        }
    }

    #[test]
    fn nan_serializes_as_null() {
        let mut result = sample();
        for run in &mut result.points[0].runs[0] {
            run.mean_containment_time_s = f64::NAN;
        }
        let dump = serde::json::from_str(&to_json(&result)).expect("the dump is JSON");
        let stat = &dump.get("points").and_then(Value::as_seq).expect("points")[0]
            .get("systems")
            .and_then(Value::as_seq)
            .expect("systems")[0]
            .get("containment_time_s")
            .cloned()
            .expect("present");
        assert_eq!(stat.get("mean"), Some(&Value::Null));
        assert_eq!(stat.get("ci95"), Some(&Value::Null));
        assert_eq!(stat.get("n").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn dumps_carry_the_schema_version() {
        let json = to_json(&sample());
        assert!(json.contains("\"schema_version\": 5"));
        assert!(json.contains("\"fault_model\": \"Byzantine\""));
        assert!(json.contains("\"git_commit\": \"deadbeef\""));
    }
}
