//! Shared scenario-flag parsing for the workspace CLIs.
//!
//! `figures`, `compare` and the obs crate's `trace` all accept the same
//! scenario knobs — `--fault-model`, `--workload`,
//! `--routing`, `--offered-load`, `--attacker-fraction`, `--link-pdr` —
//! with the same validation and the same exit-2-on-garbage contract.
//! [`ScenarioFlags`] is that surface in one place: a binary feeds it its
//! raw argument stream ([`ScenarioFlags::accept`]) or its parsed flag map
//! ([`ScenarioFlags::apply_map`]), and it consumes the flags it owns,
//! leaving tool-specific flags to the caller.

use crate::{
    parse_fault_model, parse_offered_load, parse_routing, parse_unit_interval, parse_workload,
};
use wsan_sim::{FaultModel, RoutingStrategy, SimConfig, TrafficPattern};

/// The flag names (without `--`) owned by [`ScenarioFlags`].
pub const SCENARIO_FLAGS: [&str; 6] = [
    "fault-model",
    "attacker-fraction",
    "link-pdr",
    "workload",
    "routing",
    "offered-load",
];

/// The scenario knobs every CLI shares, with which ones were explicitly
/// given (so [`apply`](ScenarioFlags::apply) can leave untouched config
/// fields at the tool's own defaults).
#[derive(Debug, Clone)]
pub struct ScenarioFlags {
    /// Failure-knowledge model (`--fault-model`).
    pub fault_model: FaultModel,
    /// Compromised sensor fraction under Byzantine (`--attacker-fraction`).
    pub attacker_fraction: f64,
    /// Uniform extra per-link loss probability (`--link-pdr`).
    pub link_pdr: f64,
    /// Workload shape (`--workload`).
    pub workload: TrafficPattern,
    /// Kautz next-hop strategy; `None` keeps the tool's own default.
    pub routing: Option<RoutingStrategy>,
    /// Aggregate offered load, packets/second (`--offered-load`).
    pub offered_pps: f64,
    given: Vec<&'static str>,
}

impl Default for ScenarioFlags {
    fn default() -> Self {
        ScenarioFlags {
            fault_model: FaultModel::default(),
            attacker_fraction: 0.0,
            link_pdr: 0.0,
            workload: TrafficPattern::Paper,
            routing: None,
            offered_pps: 0.0,
            given: Vec::new(),
        }
    }
}

impl ScenarioFlags {
    /// Consumes `arg` (and its value from `rest`) when it is a shared
    /// scenario flag. `Ok(true)` means handled; `Ok(false)` hands the
    /// argument back to the caller's own parser; `Err` is a malformed
    /// value the caller must surface with its exit-2 usage path.
    pub fn accept<I, S>(&mut self, arg: &str, rest: &mut I) -> Result<bool, String>
    where
        I: Iterator<Item = S>,
        S: AsRef<str>,
    {
        let stripped = arg.strip_prefix("--");
        let Some(&name) = SCENARIO_FLAGS.iter().find(|f| Some(**f) == stripped) else {
            return Ok(false);
        };
        let value = rest.next().ok_or_else(|| format!("--{name} needs a value"))?;
        self.set(name, value.as_ref())?;
        Ok(true)
    }

    /// Map-style entry point for CLIs that pre-split `--flag value` pairs:
    /// applies every shared flag `get` has a value for.
    pub fn apply_map<'v>(
        &mut self,
        get: impl Fn(&str) -> Option<&'v str>,
    ) -> Result<(), String> {
        for name in SCENARIO_FLAGS {
            if let Some(raw) = get(name) {
                self.set(name, raw)?;
            }
        }
        Ok(())
    }

    fn set(&mut self, name: &'static str, raw: &str) -> Result<(), String> {
        match name {
            "fault-model" => self.fault_model = parse_fault_model(raw)?,
            "attacker-fraction" => {
                self.attacker_fraction = parse_unit_interval("--attacker-fraction", raw)?;
            }
            "link-pdr" => self.link_pdr = parse_unit_interval("--link-pdr", raw)?,
            "workload" => self.workload = parse_workload(raw)?,
            "routing" => self.routing = Some(parse_routing(raw)?),
            "offered-load" => self.offered_pps = parse_offered_load(raw)?,
            _ => unreachable!("set is only called with names from SCENARIO_FLAGS"),
        }
        if !self.given.contains(&name) {
            self.given.push(name);
        }
        Ok(())
    }

    /// True when the named flag (without `--`) was explicitly given.
    pub fn given(&self, name: &str) -> bool {
        self.given.contains(&name)
    }

    /// Writes the explicitly-given knobs into `cfg`, leaving everything
    /// else at whatever the caller configured.
    pub fn apply(&self, cfg: &mut SimConfig) {
        if self.given("fault-model") {
            cfg.faults.model = self.fault_model;
        }
        if self.given("attacker-fraction") {
            cfg.faults.byzantine.attacker_fraction = self.attacker_fraction;
        }
        if self.given("link-pdr") {
            cfg.radio.link_pdr = self.link_pdr;
        }
        if self.given("workload") {
            cfg.traffic.pattern = self.workload;
        }
        if self.given("offered-load") {
            cfg.traffic.offered_pps = self.offered_pps;
        }
        if let Some(routing) = self.routing {
            cfg.routing = routing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_config;

    fn accept(sf: &mut ScenarioFlags, args: &[&str]) -> Result<bool, String> {
        let mut it = args[1..].iter().copied();
        sf.accept(args[0], &mut it)
    }

    #[test]
    fn owns_exactly_the_shared_flags() {
        let mut sf = ScenarioFlags::default();
        assert_eq!(accept(&mut sf, &["--fault-model", "byzantine"]), Ok(true));
        assert_eq!(sf.fault_model, FaultModel::Byzantine);
        assert_eq!(accept(&mut sf, &["--routing", "regular"]), Ok(true));
        assert_eq!(sf.routing, Some(RoutingStrategy::Regular));
        // Tool-specific flags are handed back untouched.
        assert_eq!(accept(&mut sf, &["--scale", "0.2"]), Ok(false));
        assert_eq!(accept(&mut sf, &["positional"]), Ok(false));
    }

    #[test]
    fn malformed_values_keep_their_pinned_wording() {
        let mut sf = ScenarioFlags::default();
        assert_eq!(
            accept(&mut sf, &["--fault-model", "nonsense"]),
            Err("unknown fault model \"nonsense\" (expected oracle|discovered|byzantine)".into())
        );
        assert_eq!(
            accept(&mut sf, &["--workload", "nonsense"]),
            Err("unknown workload \"nonsense\" (expected paper|all2all|hotspot)"
                .into())
        );
        assert_eq!(
            accept(&mut sf, &["--routing", "nonsense"]),
            Err("unknown routing strategy \"nonsense\" (expected shortest|regular)".into())
        );
        assert_eq!(
            accept(&mut sf, &["--offered-load", "-1"]),
            Err("--offered-load must be finite and non-negative, got -1".into())
        );
        assert_eq!(
            accept(&mut sf, &["--attacker-fraction", "2"]),
            Err("--attacker-fraction must be in [0, 1], got 2".into())
        );
        assert_eq!(
            accept(&mut sf, &["--link-pdr"]),
            Err("--link-pdr needs a value".into())
        );
    }

    #[test]
    fn apply_only_touches_given_knobs() {
        let mut cfg = base_config(0.05);
        let defaults = cfg.clone();
        ScenarioFlags::default().apply(&mut cfg);
        assert_eq!(cfg.faults.model, defaults.faults.model);
        assert_eq!(cfg.routing, defaults.routing);

        let mut sf = ScenarioFlags::default();
        sf.apply_map(|name| (name == "link-pdr").then_some("0.25")).unwrap();
        assert!(sf.given("link-pdr") && !sf.given("workload"));
        sf.apply(&mut cfg);
        assert_eq!(cfg.radio.link_pdr, 0.25);
        assert_eq!(cfg.traffic.pattern, defaults.traffic.pattern);
    }
}
