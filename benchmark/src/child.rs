//! One workload in one process: the command `BENCHMARK.json` names.
//!
//! `--trace 0` measures the end-to-end metrics with the probes off: the
//! set-up timed several times, one untimed probed run (it warms the
//! process up, counts the events and is the reference every repetition
//! must reproduce), then timed bare repetitions for `--seconds`, the
//! calibration kernel between each two. Host times are reported scaled
//! to the reference host's speed (`host::reference_scale`). `--trace 1`
//! measures the per-layer metrics: a few bare repetitions, one probed
//! repetition whose spans are aggregated and written to `out/`, and the
//! micro-loops.
//!
//! An operation of the benchmark is one timed repetition: a whole run
//! whose outcome is compared with the reference bit for bit. `attempted`
//! counts them and `failed` those that differed. Packets the simulated
//! network loses are the simulator's results, not failures of the
//! program; `delivery_ratio` reports them.

use crate::metrics::{self, span_stem};
use crate::spans::{self, Counter, Recorder, Span};
use crate::stats::Spread;
use crate::workloads::{self, Outcome, Size, Workload};
use crate::{alloc, engine_loop, host, micro, report};
use refer::{ReferConfig, ReferProtocol};
use refer_obs::JsonlSink;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use wsan_sim::{runner, RunSummary};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Timed repetitions to make at the least, however short `seconds`.
    pub min_reps: usize,
    /// Where to write the detail file `run` merges (repetition samples
    /// and exact counts, which the result line has no room for).
    pub detail: Option<PathBuf>,
}

/// `name → (value, unit)`, in name order.
pub type Values = BTreeMap<String, (f64, &'static str)>;

/// What a run measured, before it is printed.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Repetition samples behind the host-time metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts: events, allocations, the outcome's own counts.
    pub counts: BTreeMap<String, u64>,
    pub problems: Vec<String>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// [`timed`], with the calibration kernel before and after and the time
/// scaled to the reference host's speed (see [`host::reference_scale`]).
fn timed_scaled<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let before = host::calibrate();
    let (wall, result) = timed(f);
    (
        wall * host::reference_scale(before, host::calibrate()),
        result,
    )
}

/// The exact number of handler invocations of a run: protocol hooks on
/// the simulator, `EngineCore::handle` calls on `engine_loop`.
fn events_of(workload: Workload, rec: &Recorder, outcome: &Outcome) -> u64 {
    match workload {
        Workload::EngineLoop => outcome.count("handles").unwrap_or(0),
        _ => rec.handler_calls(),
    }
}

fn check_outcome(workload: Workload, outcome: &Outcome, problems: &mut Vec<String>) {
    if workload == Workload::EngineLoop {
        if let Err(e) = engine_loop::check(outcome) {
            problems.push(format!("engine_loop: {e}"));
        }
    }
    if let (Some(fires), Some(expected)) = (outcome.count("fires"), outcome.count("fires_expected"))
    {
        if fires != expected {
            problems.push(format!("timers: {fires} fired, {expected} were due"));
        }
    }
    let ratio = outcome.delivery_ratio();
    if !(ratio > 0.0 && ratio <= 1.0) {
        problems.push(format!("delivery ratio {ratio} is not in (0, 1]"));
    }
}

/// The end-to-end measurement (`--trace 0`).
pub fn measure_end_to_end(args: &Args) -> Measured {
    let (w, seed, size) = (args.workload, args.seed, args.size);
    let mut problems = Vec::new();

    // Set-up, several times: until half a second is spent, five times at
    // the least (the million-node world takes a third of a second).
    let mut setups = Vec::new();
    let calib_before = host::calibrate();
    let setup_clock = Instant::now();
    while setups.len() < 5 || (setup_clock.elapsed().as_secs_f64() < 0.5 && setups.len() < 200) {
        setups.push(timed(|| w.setup(seed, size)).0);
    }
    let setup_scale = host::reference_scale(calib_before, host::calibrate());

    // The reference: probed, untimed. It fills caches and lazy statics,
    // and its event count is the denominator of the per-event metrics.
    let reference = w.run(seed, size, true);
    let rec = spans::collect();
    let events = events_of(w, &rec, &reference);
    check_outcome(w, &reference, &mut problems);
    if events == 0 {
        problems.push("the reference run handled no event".to_string());
    }

    // Timed repetitions, the calibration kernel between each two: a
    // repetition's time is scaled by the kernel's time right before and
    // after it, which takes the host's slow phases out (see `host`).
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut failed = 0u64;
    let clock = Instant::now();
    let mut calibs = vec![host::calibrate()];
    while walls.len() < args.min_reps || clock.elapsed().as_secs_f64() < args.seconds {
        let (a0, _) = alloc::snapshot();
        let (wall, outcome) = timed(|| w.run(seed, size, false));
        let (a1, _) = alloc::snapshot();
        calibs.push(host::calibrate());
        raw_walls.push(wall);
        walls
            .push(wall * host::reference_scale(calibs[calibs.len() - 2], calibs[calibs.len() - 1]));
        allocs.push(a1 - a0);
        if outcome != reference {
            failed += 1;
            problems.push(format!(
                "repetition {} differs from the probed reference run: {:?} vs {:?}",
                walls.len(),
                outcome.counts,
                reference.counts
            ));
        }
    }

    // Allocations repeat exactly once the process is warm; the first
    // repetition may still pay for a lazy static. On the two-thread
    // workload the count may depend on the interleaving: then the
    // minimum is reported and the run says so.
    let alloc_min = allocs.iter().copied().min().unwrap_or(0);
    let alloc_exact = allocs.iter().skip(1).all(|&a| a == allocs[1]);
    if !alloc_exact {
        if w.worker_threads() == 1 {
            problems.push(format!(
                "allocation counts differ between repetitions: {allocs:?}"
            ));
        } else {
            println!("# allocs_per_event: counts vary with thread interleaving ({allocs:?}); minimum reported");
        }
    }

    let wall = Spread::of(&walls);
    let setups: Vec<f64> = setups.iter().map(|t| t * setup_scale).collect();
    let setup = Spread::of(&setups);
    let events_f = events.max(1) as f64;
    let mut m = Values::new();
    m.insert("events_per_s".into(), (events_f / wall.min, "1/s"));
    m.insert("wall_s".into(), (wall.min, "s"));
    m.insert("setup_s".into(), (setup.median, "s"));
    m.insert(
        "peak_rss_mb".into(),
        (host::peak_rss_mib().unwrap_or(0.0), "MiB"),
    );
    m.insert(
        "allocs_per_event".into(),
        (alloc_min as f64 / events_f, "count"),
    );
    m.insert(
        "delivery_ratio".into(),
        (reference.delivery_ratio(), "ratio"),
    );

    let mut counts: BTreeMap<String, u64> = reference
        .counts
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    counts.insert("events".into(), events);
    counts.insert("allocs".into(), alloc_min);
    counts.insert(
        "offered".into(),
        reference
            .count("offered")
            .unwrap_or(rec.counter(Counter::Offered)),
    );
    let mut samples = BTreeMap::new();
    samples.insert("wall_s", walls.clone());
    samples.insert(
        "events_per_s",
        walls.iter().map(|&t| events_f / t).collect(),
    );
    samples.insert("setup_s", setups);
    samples.insert("wall_unscaled_s", raw_walls);
    samples.insert("host.calib_ns", calibs);

    Measured {
        correct: problems.is_empty(),
        attempted: walls.len() as u64,
        failed,
        metrics: m,
        samples,
        counts,
        problems,
    }
}

/// `<stem>.ns` (mean self time per call, scaled like the run it came
/// from) and `<stem>.calls` for every span of `spans` that was entered.
fn span_metrics(m: &mut Values, layer: &str, rec: &Recorder, scale: f64, spans: &[Span]) {
    for &span in spans {
        let agg = rec.agg(span);
        if agg.calls == 0 {
            continue;
        }
        let stem = span_stem(layer, span);
        m.insert(
            format!("{stem}.ns"),
            (scale * agg.self_ns as f64 / agg.calls as f64, "ns"),
        );
        m.insert(format!("{stem}.calls"), (agg.calls as f64, "count"));
    }
}

fn simulated_metrics(m: &mut Values, summary: &RunSummary, offered: u64) {
    let delivered = summary.delivery_ratio * offered as f64;
    m.insert("delay_p99_ms".into(), (summary.delay_p99_s * 1e3, "ms"));
    // Undelivered packets miss the deadline too.
    m.insert(
        "deadline_miss_ratio".into(),
        (1.0 - summary.qos_delivery_ratio, "ratio"),
    );
    m.insert(
        "energy_j_per_packet".into(),
        (summary.energy_communication_j / delivered, "J"),
    );
}

/// The per-layer measurement (`--trace 1`).
pub fn measure_per_layer(args: &Args) -> Measured {
    let (w, seed, size) = (args.workload, args.seed, args.size);
    let mut problems = Vec::new();
    let mut m = Values::new();
    m.insert("host.calib_ns".into(), (host::calibrate(), "ns"));

    // Untraced: one warm-up, then at least three timed repetitions.
    let reference = w.run(seed, size, false);
    check_outcome(w, &reference, &mut problems);
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let clock = Instant::now();
    while walls.len() < 3 || clock.elapsed().as_secs_f64() < 0.3 * args.seconds {
        let (wall, outcome) = timed_scaled(|| w.run(seed, size, false));
        walls.push(wall);
        if outcome != reference {
            failed += 1;
            problems.push(format!(
                "repetition {} differs from the first run",
                walls.len()
            ));
        }
    }
    let untraced = Spread::of(&walls).min;

    // Traced: the same repetition with the probes on.
    drop(spans::collect());
    let before = host::calibrate();
    let (traced_raw, probed) = timed(|| w.run(seed, size, true));
    let scale = host::reference_scale(before, host::calibrate());
    let traced = traced_raw * scale;
    let rec = spans::collect();
    if probed != reference {
        failed += 1;
        problems.push("the probed run differs from the bare run".to_string());
    }
    let events = events_of(w, &rec, &probed);
    let offered = probed
        .count("offered")
        .unwrap_or(rec.counter(Counter::Offered));
    m.insert("trace.overhead_ratio".into(), (traced / untraced, "ratio"));
    m.insert("events".into(), (events as f64, "count"));
    // Everything the run did outside the spans: queue pops, dispatch,
    // the radio, mobility and traffic drivers (the loop and its queue on
    // `engine_loop`). Handler time is divided by the threads that ran
    // handlers side by side.
    let in_spans = rec.root_ns() as f64 / w.worker_threads() as f64;
    let outside = (traced_raw * 1e9 - in_spans).max(0.0) * scale;
    m.insert(
        "sim.engine.self_ns".into(),
        (outside / events.max(1) as f64, "ns"),
    );

    span_metrics(&mut m, w.handler_layer(), &rec, scale, &metrics::HOOKS);
    match w {
        Workload::PaperRefer => {
            span_metrics(&mut m, "sim.ctx", &rec, scale, &metrics::CTX_SPANS);
            let casts = rec.agg(Span::CtxBroadcast).calls.max(1) as f64;
            m.insert(
                "sim.ctx.broadcast.receivers".into(),
                (
                    rec.counter(Counter::BroadcastReceivers) as f64 / casts,
                    "count",
                ),
            );
            m.insert(
                "sim.ctx.oracle.calls".into(),
                (rec.counter(Counter::OracleQueries) as f64, "count"),
            );
        }
        Workload::EngineLoop => {
            span_metrics(&mut m, "proto.engine", &rec, scale, &metrics::ENGINE_SPANS);
            span_metrics(&mut m, "node.wire", &rec, scale, &metrics::WIRE_SPANS);
            let inputs: u64 = metrics::ENGINE_SPANS
                .iter()
                .map(|&s| rec.agg(s).calls)
                .sum();
            m.insert(
                "proto.engine.outputs_per_input".into(),
                (
                    rec.counter(Counter::EngineOutputs) as f64 / inputs.max(1) as f64,
                    "count",
                ),
            );
            let datagrams = rec.agg(Span::WireEncode).calls.max(1) as f64;
            m.insert(
                "node.wire.bytes_per_datagram".into(),
                (rec.counter(Counter::WireBytes) as f64 / datagrams, "count"),
            );
        }
        _ => {}
    }
    if w.has_simulated_network() {
        if let Some(summary) = &probed.summary {
            simulated_metrics(&mut m, summary, offered);
        }
    }

    match w {
        Workload::PaperRefer => {
            // The same run with the JSONL sink encoding every event into
            // the void: what `trace record` costs over an untraced run.
            let cfg = workloads::paper_config(seed, size);
            let sink = JsonlSink::new(std::io::sink());
            let mut refer = ReferProtocol::new(ReferConfig::default());
            let (sunk, (summary, _)) =
                timed_scaled(|| runner::run_with_sinks(cfg, &mut refer, vec![Box::new(sink)]));
            if Some(&summary) != reference.summary.as_ref() {
                problems.push("the run with a JSONL sink differs from the bare run".to_string());
            }
            m.insert(
                "obs.sink.jsonl.overhead_ratio".into(),
                (sunk / untraced, "ratio"),
            );
        }
        Workload::FloodLocalSharded => {
            // The same inputs on the serial engine and on one worker
            // thread. The engines define distinct schedules, so only the
            // one-thread run must reproduce the two-thread outcome.
            let serial = (0..2)
                .map(|_| timed_scaled(|| Workload::FloodLocal.run(seed, size, false)).0)
                .fold(f64::INFINITY, f64::min);
            let one = workloads::flood_sharded_config(seed, size, 1);
            let mut t1 = f64::INFINITY;
            for _ in 0..2 {
                let mut flood = wsan_sim::flood::FloodProtocol::new(4);
                let (wall, summary) =
                    timed_scaled(|| wsan_sim::run_engine(one.clone(), &mut flood));
                t1 = t1.min(wall);
                if Some(&summary) != reference.summary.as_ref() {
                    problems.push("sharded(1) differs from sharded(2)".to_string());
                }
            }
            m.insert("sim.shard.speedup_t2".into(), (serial / untraced, "ratio"));
            m.insert("sim.shard.t2_over_t1".into(), (untraced / t1, "ratio"));
        }
        _ => {}
    }

    for metric in micro::run_all(seed, size) {
        m.insert(metric.name, (metric.value, metric.unit));
    }

    if let Err(e) = report::write_trace_file(w, seed, &rec, traced_raw, scale) {
        problems.push(format!("cannot write the trace file: {e}"));
    }

    // Every declared metric is reported: a layer this workload never
    // enters reads 0.
    for (name, unit, _) in metrics::per_layer() {
        m.entry(name).or_insert((0.0, unit));
    }
    for (_, (value, _)) in m.iter_mut() {
        if !value.is_finite() {
            *value = 0.0;
        }
    }

    let mut counts = BTreeMap::new();
    counts.insert("events".to_string(), events);
    Measured {
        correct: problems.is_empty(),
        attempted: walls.len() as u64 + 1,
        failed,
        metrics: m,
        samples: BTreeMap::from([("wall_s", walls)]),
        counts,
        problems,
    }
}

/// Runs the workload, prints every metric by name and unit, and ends
/// with the one-line JSON result.
pub fn run(args: &Args) -> ExitCode {
    if args.workload.single_cpu() {
        match host::pin_to_one_cpu() {
            Some(cpu) => println!("# pinned to cpu {cpu}"),
            None => println!("# could not pin to one cpu: barrier hand-overs cross cpus"),
        }
    }
    let measured = if args.trace {
        measure_per_layer(args)
    } else {
        measure_end_to_end(args)
    };
    println!(
        "# {} seed {} trace {} — {} repetitions",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        measured.attempted
    );
    for (name, &(value, unit)) in &measured.metrics {
        let samples = measured.samples.get(name.as_str()).filter(|s| s.len() > 1);
        report::print_metric(name, value, unit, samples.map(|s| Spread::of(s)).as_ref());
    }
    // Beside the scaled times, what the clock read and the kernel took.
    for name in ["wall_unscaled_s", "host.calib_ns"] {
        if let Some(samples) = measured.samples.get(name).filter(|s| s.len() > 1) {
            let s = Spread::of(samples);
            println!(
                "# {name}: min {:.6} median {:.6} n {}",
                s.min, s.median, s.n
            );
        }
    }
    for problem in &measured.problems {
        println!("# INCORRECT: {problem}");
    }
    if let Some(path) = &args.detail {
        if let Err(e) = std::fs::write(
            path,
            serde::json::to_string(&report::detail_value(args, &measured)),
        ) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = report::map(vec![
        ("correct", Value::Bool(measured.correct)),
        ("attempted", Value::U64(measured.attempted)),
        ("failed", Value::U64(measured.failed)),
        ("metrics", report::metrics_value(&measured.metrics)),
    ]);
    println!("{}", serde::json::to_string(&line));
    if measured.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
