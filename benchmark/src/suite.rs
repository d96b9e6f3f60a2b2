//! `run`, `compare` and `selfcheck`: every workload in one command.
//!
//! `run` spawns one child process per workload and round (so that peak
//! memory is per workload), interleaving the workloads round-robin so
//! that host drift spreads evenly over them, then one traced child per
//! workload. It merges the rounds — the minimum over all timed
//! repetitions for host-time metrics, with median and quartiles beside
//! it — prints every metric with its unit and writes one result file.

use crate::host;
use crate::metrics::{self, END_TO_END};
use crate::report::{self, floats, map, text};
use crate::stats::{verdict, Spread, Verdict};
use crate::workloads::Workload;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const ROUNDS: usize = 3;

pub struct RunArgs {
    pub seed: u64,
    /// Measuring time per workload, split over the rounds.
    pub seconds: f64,
    pub smoke: bool,
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde::json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// `metric → bound` from the `BENCHMARK.json` beside `benchmark/`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = read_json(&manifest_dir().join("../BENCHMARK.json"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("end_to_end entry without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The best calibration figure the builder recorded on the reference
/// host (`baseline.json`; `BENCHMARK.json` has no key to hold it).
fn recorded_calibration() -> Option<f64> {
    read_json(&manifest_dir().join("baseline.json"))
        .ok()?
        .get("calib_ns_best")?
        .as_f64()
}

/// Runs one child and returns its detail document.
fn child(
    workload: Workload,
    args: &RunArgs,
    seconds: f64,
    trace: bool,
    tag: &str,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let detail = dir.join(format!("detail.{}.{tag}.json", workload.name()));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--min-reps", "3"])
        .arg("--detail")
        .arg(&detail)
        .stdout(std::process::Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn the {} child: {e}", workload.name()))?;
    let doc = read_json(&detail)?;
    // The detail file is the child's hand-over, not a result.
    let _ = std::fs::remove_file(&detail);
    if !status.success() {
        let problems = doc
            .get("problems")
            .map(serde::json::to_string)
            .unwrap_or_default();
        return Err(format!(
            "{} failed its correctness checks: {problems}",
            workload.name()
        ));
    }
    Ok(doc)
}

fn samples_of(doc: &Value, name: &str) -> Vec<f64> {
    doc.get("samples")
        .and_then(|s| s.get(name))
        .and_then(Value::as_seq)
        .map(|seq| seq.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn metric_of(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Merges the rounds of one workload into its `end_to_end` section.
fn merge_rounds(
    workload: Workload,
    rounds: &[Value],
    problems: &mut Vec<String>,
) -> (Value, Value, usize) {
    let pooled =
        |name: &str| -> Vec<f64> { rounds.iter().flat_map(|r| samples_of(r, name)).collect() };
    let walls = pooled("wall_s");
    let mut fields = Vec::new();
    for def in &END_TO_END {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|r| metric_of(r, def.name))
            .collect();
        let mut entry = vec![
            ("unit", text(def.unit)),
            ("better", text(def.better.as_str())),
        ];
        let value = if metrics::is_host_time(def.name) {
            let spread = Spread::of(&pooled(def.name));
            let value = match def.name {
                "events_per_s" => spread.max,
                "setup_s" => spread.median,
                _ => spread.min,
            };
            entry.extend([
                ("min", Value::F64(spread.min)),
                ("q1", Value::F64(spread.q1)),
                ("median", Value::F64(spread.median)),
                ("q3", Value::F64(spread.q3)),
                ("max", Value::F64(spread.max)),
                ("n", Value::U64(spread.n as u64)),
            ]);
            value
        } else if def.name == "peak_rss_mb" {
            per_round.iter().copied().fold(0.0, f64::max)
        } else {
            // Exact metrics: every round must read the same.
            let first = per_round[0];
            let exact = per_round.iter().all(|v| v.to_bits() == first.to_bits());
            // The two-thread workload's allocation count may vary.
            let interleaved = def.name == "allocs_per_event" && workload.worker_threads() > 1;
            if !exact && !interleaved {
                problems.push(format!(
                    "{}: {} differs between rounds: {per_round:?}",
                    workload.name(),
                    def.name
                ));
            }
            per_round.iter().copied().fold(f64::INFINITY, f64::min)
        };
        entry.insert(0, ("value", Value::F64(value)));
        fields.push((def.name, map(entry)));
    }
    let counts = rounds[0].get("counts").cloned().unwrap_or(Value::Null);
    for round in &rounds[1..] {
        let theirs = round.get("counts").cloned().unwrap_or(Value::Null);
        let same = match (&counts, &theirs) {
            (Value::Map(a), Value::Map(b)) => a.iter().zip(b).all(|(x, y)| {
                // The two-thread workload's allocation count may vary.
                x == y || (x.0 == "allocs" && workload.worker_threads() > 1)
            }),
            _ => false,
        };
        if !same {
            problems.push(format!(
                "{}: exact counts differ between rounds",
                workload.name()
            ));
        }
    }
    (map(fields), counts, walls.len())
}

/// Runs every workload and writes the result file; returns its path.
pub fn run_set(args: &RunArgs, label: &str, out: Option<&Path>) -> Result<PathBuf, String> {
    let bounds = declared_bounds()?;
    let stamp = host::Stamp::take();
    let mut calib = Vec::new();
    let mut rounds: Vec<Vec<Value>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        calib.push(host::calibrate());
        for (slot, &workload) in Workload::ALL.iter().enumerate() {
            eprintln!("round {}/{ROUNDS}: {}", round + 1, workload.name());
            let tag = format!("{label}.r{round}");
            rounds[slot].push(child(
                workload,
                args,
                args.seconds / ROUNDS as f64,
                false,
                &tag,
            )?);
        }
    }
    let mut problems = Vec::new();
    let mut workloads = Vec::new();
    for (slot, &workload) in Workload::ALL.iter().enumerate() {
        eprintln!("traced: {}", workload.name());
        let traced = child(
            workload,
            args,
            args.seconds,
            true,
            &format!("{label}.traced"),
        )?;
        let (end_to_end, counts, reps) = merge_rounds(workload, &rounds[slot], &mut problems);
        let unscaled = rounds[slot]
            .iter()
            .flat_map(|r| samples_of(r, "wall_unscaled_s"))
            .fold(f64::INFINITY, f64::min);
        workloads.push((
            workload.name(),
            map(vec![
                ("repetitions", Value::U64(reps as u64)),
                ("wall_unscaled_s_min", Value::F64(unscaled)),
                ("end_to_end", end_to_end),
                ("counts", counts),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }
    let calib_min = calib.iter().copied().fold(f64::INFINITY, f64::min);
    let recorded = recorded_calibration();
    let noisy = recorded.is_some_and(|best| calib_min > 1.10 * best);
    let doc = map(vec![
        ("schema", Value::U64(1)),
        (
            "host",
            map(vec![
                ("commit", text(&stamp.commit)),
                ("nproc", Value::U64(stamp.nproc as u64)),
                ("cpu_model", text(&stamp.cpu_model)),
                ("rustc", text(&stamp.rustc)),
            ]),
        ),
        ("seed", Value::U64(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("rounds", Value::U64(ROUNDS as u64)),
        ("host.calib_ns", floats(&calib)),
        ("host.calib_ns_min", Value::F64(calib_min)),
        (
            "host.calib_ns_recorded_best",
            recorded.map_or(Value::Null, Value::F64),
        ),
        ("noisy_host", Value::Bool(noisy)),
        (
            "bounds",
            Value::Map(
                bounds
                    .into_iter()
                    .map(|(k, b)| (k, Value::F64(b)))
                    .collect(),
            ),
        ),
        ("workloads", map(workloads)),
    ]);
    print_set(&doc);
    let path = match out {
        Some(path) => path.to_path_buf(),
        None => report::out_dir().join(format!("result.{label}.json")),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, serde::json::to_string(&doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    if noisy {
        println!(
            "noisy_host: calibration minimum {calib_min:.0} ns is over 10% above the recorded best"
        );
    }
    if problems.is_empty() {
        Ok(path)
    } else {
        Err(problems.join("\n"))
    }
}

fn fields(v: &Value) -> &[(String, Value)] {
    v.as_map().unwrap_or(&[])
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Prints every metric of a result set by name, with its unit.
fn print_set(doc: &Value) {
    let host = doc.get("host");
    let field = |key: &str| {
        host.and_then(|h| h.get(key))
            .and_then(Value::as_str)
            .unwrap_or("?")
    };
    println!(
        "commit {} · {} × {} · {} · calibration {:.0} ns",
        field("commit"),
        host.and_then(|h| h.get("nproc"))
            .and_then(Value::as_u64)
            .unwrap_or(0),
        field("cpu_model"),
        field("rustc"),
        num(doc, "host.calib_ns_min"),
    );
    for (name, w) in doc.get("workloads").map(fields).unwrap_or(&[]) {
        println!(
            "\n== {name} ({} timed repetitions)",
            w.get("repetitions").and_then(Value::as_u64).unwrap_or(0)
        );
        for (metric, m) in w.get("end_to_end").map(fields).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            report::print_metric(metric, num(m, "value"), unit, spread_of(m).as_ref());
        }
        // A layer the workload never enters reads 0 and is left out.
        for (metric, m) in w.get("per_layer").map(fields).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            if num(m, "value") != 0.0 {
                report::print_metric(metric, num(m, "value"), unit, None);
            }
        }
    }
}

pub fn run(args: &RunArgs, out: Option<&Path>) -> ExitCode {
    match run_set(args, "run", out) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark FAILED:\n{e}");
            ExitCode::FAILURE
        }
    }
}

fn spread_of(m: &Value) -> Option<Spread> {
    m.get("n")?;
    Some(Spread {
        min: num(m, "min"),
        q1: num(m, "q1"),
        median: num(m, "median"),
        q3: num(m, "q3"),
        max: num(m, "max"),
        n: num(m, "n") as usize,
    })
}

/// One row per (workload, end-to-end metric) and per exact count.
/// Returns `(rows that moved beyond their bound, counts that changed)`.
pub fn compare_docs(a: &Value, b: &Value) -> (usize, usize) {
    let (mut moved, mut changed) = (0, 0);
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound"
    );
    for (name, wa) in a.get("workloads").map(fields).unwrap_or(&[]) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<22} missing from B");
            moved += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                wa.get("end_to_end").and_then(|e| e.get(def.name)),
                wb.get("end_to_end").and_then(|e| e.get(def.name)),
            ) else {
                continue;
            };
            let bound = a
                .get("bounds")
                .map_or(f64::NAN, |bounds| num(bounds, def.name));
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let (sa, sb) = (spread_of(ma), spread_of(mb));
            let v = verdict(va, sa.as_ref(), vb, sb.as_ref(), def.better, bound);
            if matches!(v, Verdict::Better | Verdict::Worse) {
                moved += 1;
            }
            println!(
                "{name:<22} {:<18} {va:>14.6} {vb:>14.6} {:>8.2} {bound:>6.2}  {}",
                def.name,
                100.0 * crate::stats::worse_by(va, vb, def.better),
                v.as_str()
            );
        }
        for (count, ca) in wa.get("counts").map(fields).unwrap_or(&[]) {
            let cb = wb.get("counts").and_then(|c| c.get(count));
            let threads_vary = count == "allocs"
                && Workload::from_name(name).is_some_and(|w| w.worker_threads() > 1);
            let same = cb == Some(ca) || threads_vary;
            if !same {
                changed += 1;
            }
            println!(
                "{name:<22} {:<18} {:>14} {:>14} {:>8} {:>6}  {}",
                format!("count:{count}"),
                ca.as_u64().unwrap_or(0),
                cb.and_then(Value::as_u64).unwrap_or(0),
                "",
                "exact",
                if same { "unchanged" } else { "CHANGED" }
            );
        }
    }
    (moved, changed)
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let docs = read_json(a).and_then(|a| read_json(b).map(|b| (a, b)));
    match docs {
        Ok((a, b)) => {
            let (moved, changed) = compare_docs(&a, &b);
            println!("{moved} metrics moved beyond their bound, {changed} exact counts changed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// For each (workload, host-time metric) of three or more result sets:
/// the reported values, their largest set-to-set difference, and the
/// bound that follows from it. This is how the bounds in
/// `BENCHMARK.json` were fixed; the metric's bound is its largest row.
pub fn bounds(paths: &[PathBuf]) -> ExitCode {
    let docs: Result<Vec<Value>, String> = paths.iter().map(|p| read_json(p)).collect();
    let docs = match docs {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:<22} {:<14} {:>8}  values", "workload", "metric", "bound");
    for workload in Workload::ALL {
        for def in END_TO_END.iter().filter(|d| metrics::is_host_time(d.name)) {
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|doc| {
                    doc.get("workloads")?
                        .get(workload.name())?
                        .get("end_to_end")?
                        .get(def.name)
                })
                .map(|m| num(m, "value"))
                .collect();
            println!(
                "{:<22} {:<14} {:>8.3}  {values:?}",
                workload.name(),
                def.name,
                crate::stats::host_time_bound(&values)
            );
        }
    }
    ExitCode::SUCCESS
}

/// Two full sets of the same commit must agree: no metric beyond its
/// bound, every exact count identical.
pub fn selfcheck(args: &RunArgs) -> ExitCode {
    let sets = run_set(args, "selfcheck.a", None)
        .and_then(|a| run_set(args, "selfcheck.b", None).map(|b| (a, b)));
    let (a, b) = match sets {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("benchmark FAILED:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    let (a, b) = match read_json(&a).and_then(|a| read_json(&b).map(|b| (a, b))) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (moved, changed) = compare_docs(&a, &b);
    if moved == 0 && changed == 0 {
        println!("selfcheck PASSED: two sets of the same commit agree within the bounds");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED: {moved} metrics moved beyond their bound, {changed} exact counts changed");
        ExitCode::FAILURE
    }
}
