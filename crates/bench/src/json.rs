//! The sweep dump: a write-only JSON record of a [`SweepResult`].
//!
//! `figures --out` writes one `sweep_*.json` per sweep beside the figures'
//! SVGs, which it renders from the same in-memory result; nothing in the
//! workspace reads a dump back. The layout is what `serde_json` produced
//! for the derived types (unit enum variants as strings, structs as
//! objects), so external scripts written against earlier dumps keep
//! working. Non-finite floats — an aggregate no seed defined — are written
//! as `null`, since JSON has no NaN.

use crate::SweepResult;
use std::fmt::Write as _;
use wsan_sim::harness::AggregateSummary;
use wsan_sim::stats::CiStat;

/// Version of the dump layout written by [`to_json`]. Bumped to 2 when the
/// per-system delay/hop percentile stats were added, to 3 when the
/// Byzantine columns plus the `fault_model`/`git_commit` provenance fields
/// arrived, to 4 when the congestion columns (queue-delay percentiles,
/// hot-link utilization, congestion drops) and the `Load` sweep landed,
/// and to 5 for an optional `daemon_latency` section, since removed.
pub const SCHEMA_VERSION: u64 = 5;

/// Every per-system stat of a dump, by its JSON key, in dump order.
fn stats(agg: &AggregateSummary) -> [(&'static str, CiStat); 33] {
    [
        ("throughput_bps", agg.throughput_bps),
        ("mean_delay_s", agg.mean_delay_s),
        ("energy_communication_j", agg.energy_communication_j),
        ("energy_construction_j", agg.energy_construction_j),
        ("energy_total_j", agg.energy_total_j),
        ("qos_delivery_ratio", agg.qos_delivery_ratio),
        ("delivery_ratio", agg.delivery_ratio),
        ("retransmissions", agg.retransmissions),
        ("detections", agg.detections),
        ("false_suspicions", agg.false_suspicions),
        ("detection_latency_s", agg.detection_latency_s),
        ("handovers", agg.handovers),
        ("drop_no_access", agg.drop_no_access),
        ("drop_no_route", agg.drop_no_route),
        ("drop_hops", agg.drop_hops),
        ("wrongful_evictions", agg.wrongful_evictions),
        ("forged_acks", agg.forged_acks),
        ("slander_events", agg.slander_events),
        ("misroutes", agg.misroutes),
        ("attackers_contained", agg.attackers_contained),
        ("containment_time_s", agg.containment_time_s),
        ("delay_p50_s", agg.delay_p50_s),
        ("delay_p95_s", agg.delay_p95_s),
        ("delay_p99_s", agg.delay_p99_s),
        ("deadline_miss_ratio", agg.deadline_miss_ratio),
        ("hop_p50", agg.hop_p50),
        ("hop_p99", agg.hop_p99),
        ("queue_delay_p50_s", agg.queue_delay_p50_s),
        ("queue_delay_p95_s", agg.queue_delay_p95_s),
        ("queue_delay_p99_s", agg.queue_delay_p99_s),
        ("queue_max_s", agg.queue_max_s),
        ("hot_link_utilization", agg.hot_link_utilization),
        ("congestion_drops", agg.congestion_drops),
    ]
}

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
        for (j, agg) in point.systems.iter().enumerate() {
            out.push_str("        {\n");
            let stats = stats(agg);
            for (s, (name, stat)) in stats.iter().enumerate() {
                let comma = if s + 1 < stats.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "          \"{name}\": {{ \"mean\": {}, \"ci95\": {}, \"n\": {} }}{comma}",
                    fmt_f64(stat.mean),
                    fmt_f64(stat.ci95),
                    stat.n
                );
            }
            let comma = if j + 1 < point.systems.len() { "," } else { "" };
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
    use std::mem::size_of;
    use wsan_sim::harness::aggregate;
    use wsan_sim::{FaultModel, RunSummary};

    fn sample() -> SweepResult {
        let run = |throughput_bps, mean_delay_s| RunSummary {
            throughput_bps,
            mean_delay_s,
            ..RunSummary::default()
        };
        let agg = aggregate(&[run(1234.5, 0.125), run(1300.25, 0.5)]);
        SweepResult {
            sweep: Sweep::Faults,
            points: vec![
                SweepPoint { x: 2.0, axis: 2.0, systems: vec![agg; SYSTEMS.len()] },
                SweepPoint { x: 4.0, axis: 4.0, systems: vec![agg; SYSTEMS.len()] },
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
        let points = dump.get("points").and_then(Value::as_seq).expect("points");
        assert_eq!(points.len(), original.points.len());
        for (point, want) in points.iter().zip(&original.points) {
            assert_eq!(point.get("x").and_then(Value::as_f64), Some(want.x));
            assert_eq!(point.get("axis").and_then(Value::as_f64), Some(want.axis));
            let systems = point.get("systems").and_then(Value::as_seq).expect("systems");
            assert_eq!(systems.len(), want.systems.len());
            for (system, agg) in systems.iter().zip(&want.systems) {
                let fields = system.as_map().expect("a system is an object");
                let want = stats(agg);
                // Every `CiStat` field of the aggregate has a key.
                assert_eq!(want.len(), size_of::<AggregateSummary>() / size_of::<CiStat>());
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                let want_keys: Vec<&str> = want.iter().map(|(k, _)| *k).collect();
                assert_eq!(keys, want_keys);
                for (name, stat) in want {
                    let got = read_stat(system.get(name).expect("present"));
                    assert_eq!(got, (Some(stat.mean), Some(stat.ci95), Some(stat.n as u64)), "{name}");
                }
            }
        }
    }

    #[test]
    fn nan_serializes_as_null() {
        let mut result = sample();
        result.points[0].systems[0].containment_time_s =
            CiStat { mean: f64::NAN, ci95: f64::NAN, n: 0 };
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
