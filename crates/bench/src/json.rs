//! Hand-rolled JSON round-trip for [`SweepResult`].
//!
//! The build environment cannot fetch `serde_json`, and the only JSON this
//! crate needs is the sweep dump exchanged between the `figures` and
//! `plots` binaries. The layout matches what `serde_json` produced for the
//! derived types (unit enum variants as strings, structs as objects), so
//! previously written dumps keep loading. Non-finite floats serialize as
//! `null` and load back as NaN, mirroring `serde_json`'s lossy behavior.

use crate::{Sweep, SweepPoint, SweepResult};
use std::fmt::Write as _;
use wsan_sim::harness::AggregateSummary;
use wsan_sim::stats::CiStat;
use wsan_sim::FaultModel;

/// Version of the dump layout written by [`to_json`]. Bumped to 2 when the
/// per-system delay/hop percentile stats were added, to 3 when the
/// Byzantine columns plus the `fault_model`/`git_commit` provenance fields
/// arrived, to 4 when the congestion columns (queue-delay percentiles,
/// hot-link utilization, congestion drops) and the `Load` sweep landed,
/// and to 5 for an optional `daemon_latency` section, since removed
/// (unknown top-level keys are ignored, so a dump carrying one still
/// loads); dumps without the field are treated as version 1 and keep
/// loading, and every field added since version 1 loads as its default
/// when absent.
pub const SCHEMA_VERSION: u64 = 5;

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
            let stats = [
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
            ];
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

/// Parses a sweep result from JSON produced by [`to_json`] (or by the
/// earlier serde_json-based dumps with the same schema).
pub fn from_json(input: &str) -> Result<SweepResult, String> {
    let value = Parser::new(input).parse()?;
    let obj = value.as_object("top level")?;
    // Dumps written before the field existed are version 1.
    let version = if obj.iter().any(|(k, _)| k == "schema_version") {
        obj.get_f64("schema_version")? as u64
    } else {
        1
    };
    if version > SCHEMA_VERSION {
        return Err(format!(
            "dump schema_version {version} is newer than supported {SCHEMA_VERSION}"
        ));
    }
    let sweep = match obj.get_str("sweep")? {
        "Mobility" => Sweep::Mobility,
        "Faults" => Sweep::Faults,
        "Size" => Sweep::Size,
        "Attackers" => Sweep::Attackers,
        "Load" => Sweep::Load,
        other => return Err(format!("unknown sweep variant {other:?}")),
    };
    // Provenance fields arrived with schema version 3; older dumps carry
    // neither and predate the Byzantine model entirely.
    let fault_model = if obj.iter().any(|(k, _)| k == "fault_model") {
        match obj.get_str("fault_model")? {
            "Oracle" => FaultModel::Oracle,
            "Discovered" => FaultModel::Discovered,
            "Byzantine" => FaultModel::Byzantine,
            other => return Err(format!("unknown fault model {other:?}")),
        }
    } else {
        FaultModel::default()
    };
    let git_commit = if obj.iter().any(|(k, _)| k == "git_commit") {
        obj.get_str("git_commit")?.to_string()
    } else {
        "unknown".to_string()
    };
    let mut points = Vec::new();
    for point in obj.get_array("points")? {
        let pobj = point.as_object("point")?;
        let mut systems = Vec::new();
        for system in pobj.get_array("systems")? {
            let sobj = system.as_object("system aggregate")?;
            systems.push(AggregateSummary {
                throughput_bps: sobj.get_ci("throughput_bps")?,
                mean_delay_s: sobj.get_ci("mean_delay_s")?,
                energy_communication_j: sobj.get_ci("energy_communication_j")?,
                energy_construction_j: sobj.get_ci("energy_construction_j")?,
                energy_total_j: sobj.get_ci("energy_total_j")?,
                qos_delivery_ratio: sobj.get_ci("qos_delivery_ratio")?,
                delivery_ratio: sobj.get_ci("delivery_ratio")?,
                // Robustness metrics were added after early dumps were
                // written; absent fields load as zero stats.
                retransmissions: sobj.get_ci_or_default("retransmissions")?,
                detections: sobj.get_ci_or_default("detections")?,
                false_suspicions: sobj.get_ci_or_default("false_suspicions")?,
                detection_latency_s: sobj.get_ci_or_default("detection_latency_s")?,
                handovers: sobj.get_ci_or_default("handovers")?,
                drop_no_access: sobj.get_ci_or_default("drop_no_access")?,
                drop_no_route: sobj.get_ci_or_default("drop_no_route")?,
                drop_hops: sobj.get_ci_or_default("drop_hops")?,
                // Byzantine columns arrived with schema version 3.
                wrongful_evictions: sobj.get_ci_or_default("wrongful_evictions")?,
                forged_acks: sobj.get_ci_or_default("forged_acks")?,
                slander_events: sobj.get_ci_or_default("slander_events")?,
                misroutes: sobj.get_ci_or_default("misroutes")?,
                attackers_contained: sobj.get_ci_or_default("attackers_contained")?,
                containment_time_s: sobj.get_ci_or_default("containment_time_s")?,
                // Percentile stats arrived with schema version 2.
                delay_p50_s: sobj.get_ci_or_default("delay_p50_s")?,
                delay_p95_s: sobj.get_ci_or_default("delay_p95_s")?,
                delay_p99_s: sobj.get_ci_or_default("delay_p99_s")?,
                deadline_miss_ratio: sobj.get_ci_or_default("deadline_miss_ratio")?,
                hop_p50: sobj.get_ci_or_default("hop_p50")?,
                hop_p99: sobj.get_ci_or_default("hop_p99")?,
                // Congestion columns arrived with schema version 4.
                queue_delay_p50_s: sobj.get_ci_or_default("queue_delay_p50_s")?,
                queue_delay_p95_s: sobj.get_ci_or_default("queue_delay_p95_s")?,
                queue_delay_p99_s: sobj.get_ci_or_default("queue_delay_p99_s")?,
                queue_max_s: sobj.get_ci_or_default("queue_max_s")?,
                hot_link_utilization: sobj.get_ci_or_default("hot_link_utilization")?,
                congestion_drops: sobj.get_ci_or_default("congestion_drops")?,
            });
        }
        points.push(SweepPoint {
            x: pobj.get_f64("x")?,
            axis: pobj.get_f64("axis")?,
            systems,
        });
    }
    let seeds = obj
        .get_array("seeds")?
        .iter()
        .map(|v| v.as_f64("seed").map(|f| f as u64))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(SweepResult {
        sweep,
        points,
        seeds,
        scale: obj.get_f64("scale")?,
        fault_model,
        git_commit,
    })
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

/// Minimal JSON value tree.
enum Value {
    Null,
    // The payload is only inspected by tests; the sweep schema has no bools.
    #[cfg_attr(not(test), allow(dead_code))]
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(format!("expected object for {what}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Number(x) => Ok(*x),
            // serde_json wrote NaN as null; accept it back as NaN.
            Value::Null => Ok(f64::NAN),
            _ => Err(format!("expected number for {what}")),
        }
    }
}

/// Typed field access on object field lists.
trait ObjectExt {
    fn get(&self, key: &str) -> Result<&Value, String>;
    fn get_str(&self, key: &str) -> Result<&str, String>;
    fn get_f64(&self, key: &str) -> Result<f64, String>;
    fn get_array(&self, key: &str) -> Result<&Vec<Value>, String>;
    fn get_ci(&self, key: &str) -> Result<CiStat, String>;
    /// Like [`ObjectExt::get_ci`] but a missing field yields the default
    /// (all-zero) stat, so dumps written before the field existed still
    /// load. A present-but-malformed field is still an error.
    fn get_ci_or_default(&self, key: &str) -> Result<CiStat, String>;
}

impl ObjectExt for Vec<(String, Value)> {
    fn get(&self, key: &str) -> Result<&Value, String> {
        self.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn get_str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Value::String(s) => Ok(s),
            _ => Err(format!("field {key:?} is not a string")),
        }
    }

    fn get_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)?.as_f64(key)
    }

    fn get_array(&self, key: &str) -> Result<&Vec<Value>, String> {
        match self.get(key)? {
            Value::Array(items) => Ok(items),
            _ => Err(format!("field {key:?} is not an array")),
        }
    }

    fn get_ci(&self, key: &str) -> Result<CiStat, String> {
        let obj = self.get(key)?.as_object(key)?;
        Ok(CiStat {
            mean: obj.get_f64("mean")?,
            ci95: obj.get_f64("ci95")?,
            n: obj.get_f64("n")? as usize,
        })
    }

    fn get_ci_or_default(&self, key: &str) -> Result<CiStat, String> {
        if self.iter().any(|(k, _)| k == key) {
            self.get_ci(key)
        } else {
            Ok(CiStat::default())
        }
    }
}

/// Recursive-descent JSON parser (objects, arrays, strings with escapes,
/// numbers, booleans, null).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("expected {text:?} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u{code:04x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 code point verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a value at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SYSTEMS;

    fn sample() -> SweepResult {
        let agg = AggregateSummary {
            throughput_bps: CiStat { mean: 1234.5, ci95: 10.25, n: 3 },
            mean_delay_s: CiStat { mean: 0.125, ci95: 0.0, n: 3 },
            energy_communication_j: CiStat { mean: 55.0, ci95: 5.5, n: 3 },
            energy_construction_j: CiStat { mean: 7.75, ci95: 0.5, n: 3 },
            energy_total_j: CiStat { mean: 62.75, ci95: 6.0, n: 3 },
            qos_delivery_ratio: CiStat { mean: 0.9, ci95: 0.05, n: 3 },
            delivery_ratio: CiStat { mean: 0.95, ci95: 0.025, n: 3 },
            retransmissions: CiStat { mean: 12.0, ci95: 2.0, n: 3 },
            detections: CiStat { mean: 4.0, ci95: 1.0, n: 3 },
            false_suspicions: CiStat { mean: 0.5, ci95: 0.25, n: 3 },
            detection_latency_s: CiStat { mean: 1.5, ci95: 0.5, n: 3 },
            handovers: CiStat { mean: 2.0, ci95: 0.5, n: 3 },
            drop_no_access: CiStat { mean: 1.0, ci95: 0.0, n: 3 },
            drop_no_route: CiStat { mean: 3.0, ci95: 1.0, n: 3 },
            drop_hops: CiStat { mean: 0.0, ci95: 0.0, n: 3 },
            wrongful_evictions: CiStat { mean: 1.0, ci95: 0.5, n: 3 },
            forged_acks: CiStat { mean: 6.0, ci95: 1.0, n: 3 },
            slander_events: CiStat { mean: 2.0, ci95: 0.5, n: 3 },
            misroutes: CiStat { mean: 4.0, ci95: 1.0, n: 3 },
            attackers_contained: CiStat { mean: 2.0, ci95: 0.0, n: 3 },
            containment_time_s: CiStat { mean: 1.5, ci95: 0.25, n: 3 },
            delay_p50_s: CiStat { mean: 0.08, ci95: 0.01, n: 3 },
            delay_p95_s: CiStat { mean: 0.2, ci95: 0.02, n: 3 },
            delay_p99_s: CiStat { mean: 0.35, ci95: 0.05, n: 3 },
            deadline_miss_ratio: CiStat { mean: 0.1, ci95: 0.02, n: 3 },
            hop_p50: CiStat { mean: 3.0, ci95: 0.5, n: 3 },
            hop_p99: CiStat { mean: 7.0, ci95: 1.0, n: 3 },
            queue_delay_p50_s: CiStat { mean: 0.002, ci95: 0.0, n: 3 },
            queue_delay_p95_s: CiStat { mean: 0.02, ci95: 0.005, n: 3 },
            queue_delay_p99_s: CiStat { mean: 0.0625, ci95: 0.01, n: 3 },
            queue_max_s: CiStat { mean: 0.25, ci95: 0.0, n: 3 },
            hot_link_utilization: CiStat { mean: 0.5, ci95: 0.05, n: 3 },
            congestion_drops: CiStat { mean: 5.0, ci95: 1.0, n: 3 },
        };
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

    #[test]
    fn round_trips_exactly() {
        let original = sample();
        let json = to_json(&original);
        let parsed = from_json(&json).expect("parses");
        assert_eq!(parsed.sweep, original.sweep);
        assert_eq!(parsed.seeds, original.seeds);
        assert_eq!(parsed.scale, original.scale);
        assert_eq!(parsed.fault_model, original.fault_model);
        assert_eq!(parsed.git_commit, original.git_commit);
        assert_eq!(parsed.points.len(), original.points.len());
        for (a, b) in parsed.points.iter().zip(&original.points) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.axis, b.axis);
            assert_eq!(a.systems, b.systems);
        }
    }

    #[test]
    fn nan_serializes_as_null_and_loads_as_nan() {
        let mut result = sample();
        result.points[0].systems[0].mean_delay_s.mean = f64::NAN;
        let json = to_json(&result);
        assert!(json.contains("null"));
        let parsed = from_json(&json).expect("parses");
        assert!(parsed.points[0].systems[0].mean_delay_s.mean.is_nan());
    }

    #[test]
    fn loads_dumps_written_before_the_robustness_fields_existed() {
        // A pre-robustness dump: only the original seven stats per system.
        let json = r#"{
          "sweep": "Faults",
          "points": [
            { "x": 2.0, "axis": 2.0, "systems": [
              { "throughput_bps": { "mean": 1.0, "ci95": 0.0, "n": 2 },
                "mean_delay_s": { "mean": 0.1, "ci95": 0.0, "n": 2 },
                "energy_communication_j": { "mean": 5.0, "ci95": 0.0, "n": 2 },
                "energy_construction_j": { "mean": 1.0, "ci95": 0.0, "n": 2 },
                "energy_total_j": { "mean": 6.0, "ci95": 0.0, "n": 2 },
                "qos_delivery_ratio": { "mean": 0.9, "ci95": 0.0, "n": 2 },
                "delivery_ratio": { "mean": 0.95, "ci95": 0.0, "n": 2 } }
            ] }
          ],
          "seeds": [1, 2],
          "scale": 1.0
        }"#;
        let parsed = from_json(json).expect("old dumps still load");
        let agg = &parsed.points[0].systems[0];
        assert_eq!(agg.throughput_bps.mean, 1.0);
        assert_eq!(agg.retransmissions, CiStat::default());
        assert_eq!(agg.handovers, CiStat::default());
        assert_eq!(agg.delay_p99_s, CiStat::default());
        assert_eq!(agg.deadline_miss_ratio, CiStat::default());
        // Version-3 and version-4 additions default too.
        assert_eq!(agg.wrongful_evictions, CiStat::default());
        assert_eq!(agg.containment_time_s, CiStat::default());
        assert_eq!(agg.queue_delay_p99_s, CiStat::default());
        assert_eq!(agg.hot_link_utilization, CiStat::default());
        assert_eq!(agg.congestion_drops, CiStat::default());
        assert_eq!(parsed.fault_model, FaultModel::default());
        assert_eq!(parsed.git_commit, "unknown");
    }

    #[test]
    fn dumps_carry_the_schema_version() {
        let json = to_json(&sample());
        assert!(json.contains("\"schema_version\": 5"));
        assert!(json.contains("\"fault_model\": \"Byzantine\""));
        assert!(json.contains("\"git_commit\": \"deadbeef\""));
        from_json(&json).expect("current dumps load");
    }

    #[test]
    fn rejects_dumps_from_a_newer_schema() {
        let json = to_json(&sample()).replace("\"schema_version\": 5", "\"schema_version\": 99");
        let err = from_json(&json).expect_err("newer schema must not load silently");
        assert!(err.contains("schema_version 99"));
    }

    #[test]
    fn older_schema_versions_without_daemon_latency_still_load() {
        // Rewriting the stamp on today's layout must not break loading.
        let json = to_json(&sample()).replace("\"schema_version\": 5", "\"schema_version\": 4");
        from_json(&json).expect("version-4 dumps keep loading");
        let json = to_json(&sample()).replace("\"schema_version\": 5", "\"schema_version\": 2");
        from_json(&json).expect("version-2 dumps keep loading");
        // So does a version-5 dump carrying the retired section: top-level
        // keys the loader does not know are ignored.
        let extra = to_json(&sample())
            .replacen('{', "{\n  \"daemon_latency\": { \"nodes\": 19 },", 1);
        from_json(&extra).expect("unknown sections do not stop a dump loading");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_json("").is_err());
        assert!(from_json("{").is_err());
        assert!(from_json("{\"sweep\": \"Bogus\", \"points\": [], \"seeds\": [], \"scale\": 1.0}").is_err());
        assert!(from_json("[1, 2, 3]").is_err());
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let value = Parser::new(" { \"a\\n\\u0041\" : [ true , false , null , -1.5e2 ] } ")
            .parse()
            .expect("parses");
        let obj = value.as_object("top").expect("object");
        assert_eq!(obj[0].0, "a\nA");
        match &obj[0].1 {
            Value::Array(items) => {
                assert_eq!(items.len(), 4);
                assert!(matches!(items[0], Value::Bool(true)));
                assert!(matches!(items[2], Value::Null));
                assert!(matches!(items[3], Value::Number(x) if x == -150.0));
            }
            _ => panic!("expected array"),
        }
    }
}
