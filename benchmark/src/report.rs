//! The files the benchmark writes and reads: the per-workload trace file,
//! the detail file a child hands to `run`, and JSON helpers. All JSON
//! goes through the workspace's `serde` shim (`Value` + compact codec).

use crate::child::{Args, Measured, Values};
use crate::spans::{Recorder, Span};
use crate::stats::Spread;
use crate::workloads::Workload;
use serde::Value;
use std::path::PathBuf;

pub fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn floats(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::F64(v)).collect())
}

/// `{name: {"value": v, "unit": u}}`, the shape of the result line's
/// `metrics`.
pub fn metrics_value(metrics: &Values) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(name, &(value, unit))| {
                let entry = map(vec![("value", Value::F64(value)), ("unit", text(unit))]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// One metric by name, with its unit and, for a host-time metric, the
/// repetitions behind it.
pub fn print_metric(name: &str, value: f64, unit: &str, spread: Option<&Spread>) {
    match spread {
        Some(s) => println!(
            "{name:<44} {value:>16.6} {unit:<6} min {:.6} q1 {:.6} median {:.6} q3 {:.6} n {}",
            s.min, s.q1, s.median, s.q3, s.n
        ),
        None => println!("{name:<44} {value:>16.6} {unit}"),
    }
}

/// Where traces and result files go: `benchmark/out/`, next to the
/// manifest this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The span names of a workload's trace file: handler spans under the
/// workload's protocol layer, driver calls under the driver that served
/// them, engine inputs and codec calls under their crates.
fn span_name(workload: Workload, span: Span) -> String {
    let layer = if span.is_handler() {
        workload.handler_layer()
    } else if span.is_ctx() {
        if workload == Workload::EngineLoop {
            "proto.ioctx"
        } else {
            "sim.ctx"
        }
    } else if matches!(span, Span::WireEncode | Span::WireDecode) {
        "node.wire"
    } else {
        "proto.engine"
    };
    crate::metrics::span_stem(layer, span)
}

/// Writes the traced run of `workload` to `out/<workload>.seed<N>.trace.json`:
/// per span name the call count, total and self time and the p50/p99 of
/// per-call self time, then the first raw spans (id, parent, start, end).
pub fn write_trace_file(
    workload: Workload,
    seed: u64,
    rec: &Recorder,
    traced_raw_s: f64,
    reference_scale: f64,
) -> std::io::Result<PathBuf> {
    let spans: Vec<Value> = Span::ALL
        .into_iter()
        .filter(|&s| rec.agg(s).calls > 0)
        .map(|s| {
            let agg = rec.agg(s);
            let quantile = |q: f64| Value::U64(agg.hist.quantile(q).unwrap_or(0));
            map(vec![
                ("name", Value::Str(span_name(workload, s))),
                ("calls", Value::U64(agg.calls)),
                ("total_ns", Value::U64(agg.total_ns)),
                ("self_ns", Value::U64(agg.self_ns)),
                ("self_p50_ns", quantile(0.50)),
                ("self_p99_ns", quantile(0.99)),
            ])
        })
        .collect();
    let raw: Vec<Value> = rec
        .raw()
        .iter()
        .map(|r| {
            map(vec![
                ("id", Value::U64(u64::from(r.id))),
                (
                    "parent",
                    r.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                ),
                ("name", Value::Str(span_name(workload, r.span))),
                ("start_ns", Value::U64(r.start_ns)),
                ("end_ns", Value::U64(r.end_ns)),
            ])
        })
        .collect();
    let doc = map(vec![
        ("workload", text(workload.name())),
        ("seed", Value::U64(seed)),
        // Span times are as the clock read them; multiply by the scale
        // for seconds on the reference host.
        ("traced_wall_s", Value::F64(traced_raw_s)),
        ("reference_scale", Value::F64(reference_scale)),
        ("root_ns", Value::U64(rec.root_ns())),
        ("spans", Value::Seq(spans)),
        ("raw_spans", Value::Seq(raw)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.seed{seed}.trace.json", workload.name()));
    std::fs::write(&path, serde::json::to_string(&doc))?;
    Ok(path)
}

/// Everything `run` needs from one child beyond the result line.
pub fn detail_value(args: &Args, measured: &Measured) -> Value {
    map(vec![
        ("workload", text(args.workload.name())),
        ("seed", Value::U64(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(measured.correct)),
        ("attempted", Value::U64(measured.attempted)),
        ("failed", Value::U64(measured.failed)),
        ("metrics", metrics_value(&measured.metrics)),
        (
            "samples",
            Value::Map(
                measured
                    .samples
                    .iter()
                    .map(|(name, v)| (name.to_string(), floats(v)))
                    .collect(),
            ),
        ),
        (
            "counts",
            Value::Map(
                measured
                    .counts
                    .iter()
                    .map(|(name, &v)| (name.clone(), Value::U64(v)))
                    .collect(),
            ),
        ),
        (
            "problems",
            Value::Seq(measured.problems.iter().map(|p| text(p)).collect()),
        ),
    ])
}
