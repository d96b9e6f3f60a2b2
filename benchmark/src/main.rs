//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! refer-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (BENCHMARK.json's command)
//! refer-benchmark run [--seed N] [--seconds S] [--out FILE] [--smoke]  all six, one result file
//! refer-benchmark compare A.json B.json                               apply the bounds to two result files
//! refer-benchmark selfcheck [--seed N] [--seconds S] [--smoke]         run two sets and compare them
//! refer-benchmark bounds A.json B.json C.json...                      the bounds three or more sets imply
//! ```

mod alloc;
mod child;
mod engine_loop;
mod host;
mod metrics;
mod micro;
mod probe;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Size, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage:
  refer-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  refer-benchmark run [--seed N] [--seconds S] [--out FILE] [--smoke]
  refer-benchmark compare A.json B.json
  refer-benchmark selfcheck [--seed N] [--seconds S] [--smoke]
  refer-benchmark bounds A.json B.json C.json...
workloads: paper_refer fabric_all2all flood_local flood_local_sharded timers_1m engine_loop";

/// `--flag value` pairs and bare flags, in any order.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Removes `--name VALUE` and parses the value.
    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.args.remove(at + 1);
        self.args.remove(at);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {raw:?}"))
    }

    fn take_bool(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(at) => {
                self.args.remove(at);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown flag {unknown:?}")),
            None => Ok(self.args),
        }
    }
}

fn seconds(flags: &mut Flags, default: f64) -> Result<f64, String> {
    match flags.take::<f64>("--seconds")? {
        Some(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => Ok(s),
        Some(s) => Err(format!("--seconds must be in (0, 3600], got {s}")),
        None => Ok(default),
    }
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let mut flags = Flags { args };
    let smoke = flags.take_bool("--smoke");
    let seed = flags.take::<u64>("--seed")?.unwrap_or(1);
    if let Some(name) = flags.take::<String>("--workload")? {
        let workload =
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let trace = match flags.take::<u8>("--trace")? {
            Some(0) | None => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
        };
        let args = child::Args {
            workload,
            seed,
            seconds: seconds(&mut flags, 10.0)?,
            trace,
            size: if smoke { Size::Smoke } else { Size::Full },
            min_reps: flags
                .take("--min-reps")?
                .unwrap_or(if smoke { 3 } else { 9 }),
            detail: flags.take::<PathBuf>("--detail")?,
        };
        if let Some(stray) = flags.finish()?.first() {
            return Err(format!("unexpected argument {stray:?}"));
        }
        return Ok(child::run(&args));
    }
    let secs = seconds(&mut flags, 18.0)?;
    let out = flags.take::<PathBuf>("--out")?;
    let rest = flags.finish()?;
    let set = suite::RunArgs {
        seed,
        seconds: secs,
        smoke,
    };
    match rest.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["run"] => Ok(suite::run(&set, out.as_deref())),
        ["selfcheck"] => Ok(suite::selfcheck(&set)),
        ["compare", a, b] => Ok(suite::compare(a.as_ref(), b.as_ref())),
        ["bounds", _, _, ..] => Ok(suite::bounds(
            &rest[1..].iter().map(PathBuf::from).collect::<Vec<_>>(),
        )),
        _ => Err("expected --workload, run, compare, selfcheck or bounds".to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
