//! Crate-level tests: the probes are pass-through, every workload runs
//! at its smoke size and reproduces itself, and the metric tables match
//! `BENCHMARK.json`.

use crate::child::{self, Args};
use crate::metrics;
use crate::probe::{Probe, SimShim};
use crate::spans;
use crate::workloads::{Size, Workload};
use refer::{ReferConfig, ReferProtocol};
use refer_obs::{JsonlSink, SharedBuf};
use serde::Value;
use std::sync::{Mutex, MutexGuard};
use wsan_sim::flood::FloodProtocol;
use wsan_sim::{runner, Protocol, RunSummary, SimConfig, SimTime};

/// Probed runs record into process-wide state that `spans::collect`
/// drains; tests that make them take turns.
fn probing() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `protocol` on `SimConfig::smoke()` with a JSONL sink and returns
/// the summary and the trace bytes.
fn traced_smoke<P: Protocol>(protocol: &mut P) -> (RunSummary, Vec<u8>) {
    let buf = SharedBuf::new();
    let sink = JsonlSink::new(buf.clone());
    let (summary, _) = runner::run_with_sinks(SimConfig::smoke(), protocol, vec![Box::new(sink)]);
    (summary, buf.bytes())
}

#[test]
fn probe_and_span_ctx_are_pass_through_on_refer() {
    let _turn = probing();
    let (bare_summary, bare_trace) = traced_smoke(&mut ReferProtocol::new(ReferConfig::default()));
    drop(spans::collect());
    let refer = ReferProtocol::new(ReferConfig::default());
    let (summary, trace) = traced_smoke(&mut SimShim(Probe::new(refer, SimTime::ZERO)));
    let rec = spans::collect();
    assert_eq!(
        summary, bare_summary,
        "the probed summary is the bare one, bit for bit"
    );
    assert!(!bare_trace.is_empty());
    assert!(
        trace == bare_trace,
        "the probed JSONL trace is byte-identical"
    );
    assert!(rec.handler_calls() > 0, "the probe saw the hooks");
    assert!(
        rec.agg(spans::Span::CtxSend).calls > 0,
        "SpanCtx saw the driver calls"
    );
    assert!(rec.counter(spans::Counter::OracleQueries) > 0);
}

#[test]
fn hook_probe_is_pass_through_on_flood() {
    let _turn = probing();
    let (bare_summary, bare_trace) = traced_smoke(&mut FloodProtocol::new(4));
    let (summary, trace) = traced_smoke(&mut Probe::new(FloodProtocol::new(4), SimTime::ZERO));
    drop(spans::collect());
    assert_eq!(summary, bare_summary);
    assert!(
        trace == bare_trace,
        "the probed JSONL trace is byte-identical"
    );
}

fn smoke_args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 0.05,
        trace,
        size: Size::Smoke,
        min_reps: 3,
        detail: None,
    }
}

#[test]
fn every_workload_measures_end_to_end_at_smoke_size() {
    let _turn = probing();
    for workload in Workload::ALL {
        let measured = child::measure_end_to_end(&smoke_args(workload, false));
        // The allocation counter is process-wide and the other tests'
        // threads allocate meanwhile, so only here may it fail to repeat.
        let problems: Vec<&String> = measured
            .problems
            .iter()
            .filter(|p| !p.starts_with("allocation counts"))
            .collect();
        assert!(problems.is_empty(), "{}: {problems:?}", workload.name());
        assert_eq!(measured.failed, 0);
        assert!(measured.attempted >= 3);
        let names: Vec<&str> = measured.metrics.keys().map(String::as_str).collect();
        let mut declared: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        declared.sort_unstable();
        assert_eq!(
            names,
            declared,
            "{}: exactly the declared metrics",
            workload.name()
        );
        for (name, (value, _)) in &measured.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        assert!(measured.counts["events"] > 0);
    }
}

#[test]
fn a_traced_run_reports_every_declared_layer_metric() {
    let _turn = probing();
    // `paper_refer` enters the most layers; `engine_loop` the daemon's.
    for workload in [
        Workload::PaperRefer,
        Workload::EngineLoop,
        Workload::FloodLocalSharded,
    ] {
        let measured = child::measure_per_layer(&smoke_args(workload, true));
        assert!(
            measured.correct,
            "{}: {:?}",
            workload.name(),
            measured.problems
        );
        let mut declared: Vec<String> = metrics::per_layer()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        declared.sort_unstable();
        let names: Vec<String> = measured.metrics.keys().cloned().collect();
        assert_eq!(
            names,
            declared,
            "{}: exactly the declared metrics",
            workload.name()
        );
        let value = |name: &str| measured.metrics[name].0;
        assert!(value("trace.overhead_ratio") > 0.0);
        assert!(value("events") > 0.0);
        let stem = format!("{}.on_app_data", workload.handler_layer());
        assert!(value(&format!("{stem}.calls")) > 0.0, "{stem}");
        match workload {
            Workload::PaperRefer => {
                assert!(value("sim.ctx.send.calls") > 0.0);
                assert!(value("obs.sink.jsonl.overhead_ratio") > 0.0);
                assert!(value("delay_p99_ms") > 0.0);
            }
            Workload::EngineLoop => {
                assert!(value("proto.engine.handle_frame.calls") > 0.0);
                assert!(value("node.wire.bytes_per_datagram") > 100.0);
                assert_eq!(value("delay_p99_ms"), 0.0, "no simulated clock, no delay");
            }
            _ => {
                assert!(value("sim.shard.speedup_t2") > 0.0);
                assert!(value("sim.shard.t2_over_t1") > 0.0);
            }
        }
    }
}

#[test]
fn a_diverging_repetition_is_reported_as_failed() {
    // The outcome comparison is what `failed` counts: two seeds differ.
    let a = Workload::FloodLocal.run(1, Size::Smoke, false);
    let b = Workload::FloodLocal.run(2, Size::Smoke, false);
    assert_ne!(a, b);
    assert_eq!(a, Workload::FloodLocal.run(1, Size::Smoke, false));
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list, by
/// name (the order of the lists carries no meaning).
fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
    let mut out: Vec<_> = doc
        .get(key)
        .and_then(Value::as_seq)
        .expect("a list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    out.sort();
    out
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = serde::json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
    let mut end_to_end: Vec<_> = metrics::END_TO_END
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect();
    end_to_end.sort();
    assert_eq!(declared(&doc, "end_to_end"), end_to_end);
    let mut per_layer: Vec<_> = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, unit.to_string(), better.as_str().to_string()))
        .collect();
    per_layer.sort();
    assert_eq!(declared(&doc, "per_layer"), per_layer);
}
