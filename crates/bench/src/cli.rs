//! The one flag parser of the workspace CLIs.
//!
//! `figures`, `compare` and the obs crate's `trace` declare one [`Command`]
//! table per (sub)command: its positionals and its flags, written as its
//! usage line shows them. [`Command::parse`] splits an argument list by
//! that table, rejecting a flag the command does not read with
//! `unknown argument "--x"` and a flag without its value with
//! `--x needs a value`; [`Args`] then hands out typed values.
//!
//! The scenario flags ([`SIZE`], [`SHARED`] and `--seed`) have one reader,
//! [`ScenarioFlags::read`], which also builds the [`SimConfig`] they
//! describe once and ends in [`SimConfig::check`]. A binary prints every
//! `Err` of these with its usage ([`exit_usage`]) and exits 2, so a value
//! that parses but that the scenario rejects is diagnosed, not a panic.

use crate::base_config;
use std::str::FromStr;
use wsan_sim::{FaultModel, RoutingStrategy, SimConfig, TrafficPattern};

/// The scenario-size flags `compare` and `trace` read (`trace verify`
/// counts seeds instead of taking `--seed`).
pub const SIZE: &[&str] = &["--scale F", "--sensors N", "--faults N", "--mobility M/S"];

/// The scenario knobs `figures`, `compare`, `trace record` and `trace
/// verify` all read.
pub const SHARED: &[&str] = &[
    "--fault-model oracle|discovered|byzantine",
    "--attacker-fraction F",
    "--link-pdr P",
    "--workload paper|all2all|hotspot",
    "--routing shortest|regular",
    "--offered-load PPS",
];

/// One command's arguments, as its usage line shows them and as
/// [`parse`](Command::parse) accepts them.
#[derive(Debug)]
pub struct Command {
    /// The command as typed, with its mode switch if it has one
    /// (`trace verify --sharded`).
    pub name: &'static str,
    /// Its positional arguments as the usage line shows them; empty when
    /// it takes none, and then [`parse`](Command::parse) rejects any.
    pub positional: &'static str,
    /// Its flags in groups: `--name META` takes a value, a bare `--name`
    /// is a switch.
    pub flags: &'static [&'static [&'static str]],
}

impl Command {
    fn specs(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    /// Splits `args` (without the command's own words) into positionals
    /// and the flags this command reads.
    pub fn parse(&self, args: impl IntoIterator<Item = impl Into<String>>) -> Result<Args, String> {
        let mut parsed = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if self.positional.is_empty() {
                    return Err(format!("unknown argument {arg:?}"));
                }
                parsed.positional.push(arg);
                continue;
            };
            let spec = self
                .specs()
                .find(|spec| spec.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            let value = if spec.contains(' ') {
                it.next().ok_or_else(|| format!("{arg} needs a value"))?
            } else {
                String::new()
            };
            parsed.flags.push((name.to_string(), value));
        }
        Ok(parsed)
    }

    /// The usage line, wrapped at 80 columns.
    pub fn usage(&self) -> String {
        let mut out = format!("{} {}", self.name, self.positional).trim_end().to_string();
        let mut width = out.len();
        // A mode switch is already part of the name.
        for spec in self.specs().filter(|spec| !self.name.split(' ').any(|w| w == *spec)) {
            if width + spec.len() + 3 > 80 {
                out.push_str("\n   ");
                width = 3;
            }
            out.push_str(&format!(" [{spec}]"));
            width += spec.len() + 3;
        }
        out
    }
}

/// Prints `error: {message}` and the usage of `commands` to stderr, then
/// exits with the usage status 2.
pub fn exit_usage(message: &str, commands: &[&Command]) -> ! {
    eprintln!("error: {message}\nusage:");
    for command in commands {
        eprintln!("  {}", command.usage().replace('\n', "\n  "));
    }
    std::process::exit(2)
}

/// A flag's value: `None` when it was not given, `Err` naming the flag
/// when it does not read.
pub type Value<T> = Result<Option<T>, String>;

/// One parsed argument list: positionals and the flags given, in order.
#[derive(Debug)]
pub struct Args {
    /// The arguments that are not flags or flag values, in order.
    pub positional: Vec<String>,
    /// `(name without --, value)`; a switch has an empty value.
    flags: Vec<(String, String)>,
}

impl Args {
    /// The last value given for `--name`, read by `read`.
    pub fn value<T>(&self, name: &str, read: impl Fn(&str) -> Result<T, String>) -> Value<T> {
        let last = self.flags.iter().rev().find(|(given, _)| given == name);
        last.map(|(_, raw)| read(raw)).transpose()
    }

    /// [`value`](Args::value) read by `T`'s `FromStr`.
    pub fn get<T: FromStr>(&self, name: &str) -> Value<T> {
        self.value(name, |raw| raw.parse().map_err(|_| format!("--{name}: cannot parse {raw:?}")))
    }

    /// [`get`](Args::get) for a comma-separated list.
    pub fn list<T: FromStr>(&self, name: &str) -> Value<Vec<T>> {
        self.value(name, |raw| {
            let item = |s: &str| s.parse().map_err(|_| format!("--{name}: cannot parse {s:?}"));
            raw.split(',').map(item).collect()
        })
    }

    /// The `--name` value among `options`; the error names `what` it
    /// reads and lists the accepted names.
    pub fn choice<T: Copy>(&self, name: &str, what: &str, options: &[(&str, T)]) -> Value<T> {
        self.value(name, |raw| {
            let found = options.iter().find(|(option, _)| *option == raw).map(|&(_, value)| value);
            found.ok_or_else(|| {
                let names: Vec<&str> = options.iter().map(|&(option, _)| option).collect();
                format!("unknown {what} {raw:?} (expected {})", names.join("|"))
            })
        })
    }

    /// True when the switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(given, _)| given == name)
    }

}

/// The scenario one CLI run describes.
#[derive(Debug, Clone)]
pub struct ScenarioFlags {
    /// Duration scale of [`base_config`] (`--scale`), in (0, 10^6].
    pub scale: f64,
    /// [`base_config`]`(scale)` with the seed and every scenario flag given
    /// written over it; every other field keeps the base scenario's value.
    pub config: SimConfig,
}

impl ScenarioFlags {
    /// Reads the scenario flags of `args` over the tool's default `scale`
    /// and `seed`, and checks the config they build. `Err` names the flag
    /// or the config field at fault.
    pub fn read(args: &Args, scale: f64, seed: u64) -> Result<Self, String> {
        let positive = |&x: &f64| x > 0.0 && x <= MAX_SCALE;
        let scale = bounded(args, "scale", "in (0, 1000000]", positive)?.unwrap_or(scale);
        let mut cfg = base_config(scale);
        cfg.seed = args.get("seed")?.unwrap_or(seed);
        let sensors = bounded(args, "sensors", "at most 1048576", |&n| n <= MAX_SENSORS)?;
        set(&mut cfg.sensors, sensors);
        set(&mut cfg.faults.count, args.get("faults")?);
        set(&mut cfg.mobility.max_speed, args.get("mobility")?);
        set(&mut cfg.faults.model, args.choice("fault-model", "fault model", &FAULT_MODELS)?);
        let unit = |x: &f64| (0.0..=1.0).contains(x);
        let fraction = bounded(args, "attacker-fraction", "in [0, 1]", unit)?;
        set(&mut cfg.faults.byzantine.attacker_fraction, fraction);
        set(&mut cfg.radio.link_pdr, bounded(args, "link-pdr", "in [0, 1]", unit)?);
        let workloads = ["paper", "all2all", "hotspot"]
            .map(|name| (name, TrafficPattern::parse(name).expect("a known workload")));
        set(&mut cfg.traffic.pattern, args.choice("workload", "workload", &workloads)?);
        set(&mut cfg.routing, args.choice("routing", "routing strategy", &ROUTINGS)?);
        let rate = |x: &f64| x.is_finite() && *x >= 0.0;
        let offered = bounded(args, "offered-load", "finite and non-negative", rate)?;
        set(&mut cfg.traffic.offered_pps, offered);
        cfg.check()?;
        Ok(ScenarioFlags { scale, config: cfg })
    }
}

/// The most sensors a scenario may have: 2^20, just above the million
/// sensors of the largest deployment any benchmark workload runs.
pub const MAX_SENSORS: usize = 1 << 20;

/// The largest `--scale`: a billion simulated seconds, which
/// `SimDuration`'s microseconds still hold.
const MAX_SCALE: f64 = 1e6;

const FAULT_MODELS: [(&str, FaultModel); 3] = [
    ("oracle", FaultModel::Oracle),
    ("discovered", FaultModel::Discovered),
    ("byzantine", FaultModel::Byzantine),
];

const ROUTINGS: [(&str, RoutingStrategy); 2] =
    [("shortest", RoutingStrategy::Shortest), ("regular", RoutingStrategy::Regular)];

/// Writes a given flag's value over `field`.
fn set<T>(field: &mut T, given: Option<T>) {
    if let Some(value) = given {
        *field = value;
    }
}

/// The `--name` number, which `ok` must accept; `range` says which ones
/// it does, and the error quotes the value as given.
fn bounded<T: FromStr>(args: &Args, name: &str, range: &str, ok: fn(&T) -> bool) -> Value<T> {
    match args.get::<T>(name)? {
        Some(x) if !ok(&x) => {
            let raw = args.value(name, |raw| Ok(raw.to_string()))?.unwrap_or_default();
            Err(format!("--{name} must be {range}, got {raw}"))
        }
        x => Ok(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOL: Command = Command {
        name: "tool",
        positional: "",
        flags: &[SIZE, SHARED, &["--seed N", "--threads T"]],
    };

    fn read(args: &[&str]) -> Result<ScenarioFlags, String> {
        ScenarioFlags::read(&TOOL.parse(args.iter().copied())?, 0.05, 1)
    }

    #[test]
    fn owns_exactly_the_shared_flags() {
        let args = ["--fault-model", "byzantine", "--routing", "regular", "--threads", "4"];
        let args = TOOL.parse(args).expect("every flag is in the table");
        let sf = ScenarioFlags::read(&args, 0.05, 1).expect("a valid scenario");
        assert_eq!(sf.config.faults.model, FaultModel::Byzantine);
        assert_eq!(sf.config.routing, RoutingStrategy::Regular);
        // Tool-specific flags stay the tool's to read.
        assert_eq!(args.get::<usize>("threads"), Ok(Some(4)));
        // A flag outside the table is rejected before anything reads it.
        let unknown = |arg: &str| Err(format!("unknown argument {arg:?}"));
        assert_eq!(TOOL.parse(["--bogus"]).map(|_| ()), unknown("--bogus"));
        assert_eq!(TOOL.parse(["x"]).map(|_| ()), unknown("x"));
    }

    #[test]
    fn malformed_values_keep_their_pinned_wording() {
        let cases: [(&[&str], &str); 10] = [
            (
                &["--fault-model", "nonsense"],
                "unknown fault model \"nonsense\" (expected oracle|discovered|byzantine)",
            ),
            (
                &["--workload", "nonsense"],
                "unknown workload \"nonsense\" (expected paper|all2all|hotspot)",
            ),
            (
                &["--routing", "nonsense"],
                "unknown routing strategy \"nonsense\" (expected shortest|regular)",
            ),
            (&["--offered-load", "-1"], "--offered-load must be finite and non-negative, got -1"),
            (&["--attacker-fraction", "2"], "--attacker-fraction must be in [0, 1], got 2"),
            (&["--link-pdr"], "--link-pdr needs a value"),
            (&["--seed", "1,a"], "--seed: cannot parse \"1,a\""),
            (&["--scale", "nan"], "--scale must be in (0, 1000000], got nan"),
            (&["--sensors", "2000000"], "--sensors must be at most 1048576, got 2000000"),
            (&["--sensors", "0"], "`sensors` must be at least 1"),
        ];
        for (args, wanted) in cases {
            assert_eq!(read(args).map(|_| ()), Err(wanted.to_string()), "{args:?}");
        }
    }

    #[test]
    fn apply_only_touches_given_knobs() {
        let defaults = base_config(0.05);
        assert_eq!(read(&[]).expect("the defaults are valid").config, defaults);

        let sf = read(&["--link-pdr", "0.25", "--link-pdr", "0.5"]).expect("valid");
        let mut want = defaults.clone();
        want.radio.link_pdr = 0.5;
        assert_eq!(sf.config, want, "the last value wins");
    }

    #[test]
    fn usage_comes_from_the_table() {
        let usage = TOOL.usage();
        assert!(usage.starts_with("tool [--scale F] [--sensors N]"), "{usage}");
        assert!(usage.lines().all(|line| line.len() <= 80), "{usage}");
        for spec in TOOL.specs() {
            assert!(usage.contains(&format!("[{spec}]")), "{spec} missing from {usage}");
        }
    }
}
