//! JSONL codec for [`TraceEvent`] built on the vendored `serde` shim.
//!
//! Events are externally tagged — `{"Hop":{"at":12500,"packet":7,...}}` —
//! one per line, matching what `serde_json` would produce for the enum.
//! Times are serialized as integer microseconds (lossless u64), the
//! reason and account enums as the names their own `as_str` gives, read
//! back by a lookup over their `ALL`. The simulator's types live in
//! another crate, so the conversions are free functions here rather than
//! trait impls.

use serde::json::{self, Writer};
use serde::{Error, Value};
use std::path::Path;
use wsan_sim::trace::TraceEvent;
use wsan_sim::{DataId, DropReason, EnergyAccount, HopReason, NodeId, SimTime};

fn write_node(w: &mut Writer, key: &str, n: NodeId) {
    w.key(key).u64(u64::from(n.0));
}

fn write_nodes(w: &mut Writer, key: &str, nodes: &[NodeId]) {
    w.key(key).begin_array();
    for n in nodes {
        w.u64(u64::from(n.0));
    }
    w.end_array();
}

/// Appends an event's JSONL line (no trailing newline) to `out`, streamed
/// field by field — no tree, no per-key allocation — so a sink can encode
/// every event of a run into one reused buffer.
pub fn write_jsonl_line(event: &TraceEvent, out: &mut Vec<u8>) {
    let w = &mut Writer::new(out);
    w.begin_object().key(event.kind()).begin_object();
    // Every variant leads with its timestamp.
    w.key("at").u64(event.at().as_micros());
    match *event {
        TraceEvent::PacketOrigin { packet, origin, measured, .. } => {
            w.key("packet").u64(packet.0);
            write_node(w, "origin", origin);
            w.key("measured").bool(measured);
        }
        TraceEvent::PacketDest { packet, dest, .. } => {
            w.key("packet").u64(packet.0);
            write_node(w, "dest", dest);
        }
        TraceEvent::Hop { packet, from, to, reason, queue_s, .. } => {
            w.key("packet").u64(packet.0);
            write_node(w, "from", from);
            write_node(w, "to", to);
            w.key("reason").str(reason.as_str());
            w.key("queue_s").f64(queue_s);
        }
        TraceEvent::Send { from, to, size_bits, account, .. } => {
            write_node(w, "from", from);
            write_node(w, "to", to);
            w.key("size_bits").u64(u64::from(size_bits));
            w.key("account").str(account.as_str());
        }
        TraceEvent::SendFailed { from, to, .. } => {
            write_node(w, "from", from);
            write_node(w, "to", to);
        }
        TraceEvent::QueueDrop { from, .. } => write_node(w, "from", from),
        TraceEvent::Broadcast { from, receivers, account, .. } => {
            write_node(w, "from", from);
            w.key("receivers").u64(receivers as u64);
            w.key("account").str(account.as_str());
        }
        TraceEvent::Delivered { packet, node, delay_s, hops, .. } => {
            w.key("packet").u64(packet.0);
            write_node(w, "node", node);
            w.key("delay_s").f64(delay_s);
            w.key("hops").u64(u64::from(hops));
        }
        TraceEvent::Dropped { packet, reason, .. } => {
            w.key("packet").u64(packet.0);
            w.key("reason").str(reason.as_str());
        }
        TraceEvent::FaultRotation { ref failed, ref recovered, .. } => {
            write_nodes(w, "failed", failed);
            write_nodes(w, "recovered", recovered);
        }
        TraceEvent::Retransmit { from, to, attempt, .. } => {
            write_node(w, "from", from);
            write_node(w, "to", to);
            w.key("attempt").u64(u64::from(attempt));
        }
        TraceEvent::Suspected { node, .. } => write_node(w, "node", node),
    }
    w.end_object().end_object();
}

fn get<'v>(body: &'v Value, key: &str) -> Result<&'v Value, Error> {
    body.get(key).ok_or_else(|| Error::msg(format!("missing field {key:?}")))
}

fn get_time(body: &Value) -> Result<SimTime, Error> {
    let us = get(body, "at")?.as_u64().ok_or_else(|| Error::msg("at: expected micros"))?;
    Ok(SimTime::from_micros(us))
}

fn get_node(body: &Value, key: &str) -> Result<NodeId, Error> {
    let raw = get(body, key)?
        .as_u64()
        .ok_or_else(|| Error::msg(format!("{key}: expected node id")))?;
    u32::try_from(raw).map(NodeId).map_err(Error::msg)
}

fn get_packet(body: &Value) -> Result<DataId, Error> {
    get(body, "packet")?
        .as_u64()
        .map(DataId)
        .ok_or_else(|| Error::msg("packet: expected id"))
}

fn get_u64(body: &Value, key: &str) -> Result<u64, Error> {
    get(body, key)?
        .as_u64()
        .ok_or_else(|| Error::msg(format!("{key}: expected integer")))
}

fn get_f64(body: &Value, key: &str) -> Result<f64, Error> {
    get(body, key)?
        .as_f64()
        .ok_or_else(|| Error::msg(format!("{key}: expected float")))
}

fn get_str<'v>(body: &'v Value, key: &str) -> Result<&'v str, Error> {
    get(body, key)?
        .as_str()
        .ok_or_else(|| Error::msg(format!("{key}: expected string")))
}

/// The variant of `all` that the string field `key` names; `what` names
/// the enum in the error.
fn get_named<T: Copy>(
    body: &Value,
    key: &str,
    all: &[T],
    name: fn(T) -> &'static str,
    what: &str,
) -> Result<T, Error> {
    let s = get_str(body, key)?;
    all.iter()
        .copied()
        .find(|&v| name(v) == s)
        .ok_or_else(|| Error::msg(format!("unknown {what} {s:?}")))
}

fn get_account(body: &Value) -> Result<EnergyAccount, Error> {
    get_named(body, "account", &EnergyAccount::ALL, EnergyAccount::as_str, "energy account")
}

fn get_nodes(body: &Value, key: &str) -> Result<Vec<NodeId>, Error> {
    get(body, key)?
        .as_seq()
        .ok_or_else(|| Error::msg(format!("{key}: expected sequence")))?
        .iter()
        .map(|v| {
            let raw = v.as_u64().ok_or_else(|| Error::msg("expected node id"))?;
            u32::try_from(raw).map(NodeId).map_err(Error::msg)
        })
        .collect()
}

/// Rebuilds an event from its externally tagged [`Value`] tree.
pub fn event_from_value(value: &Value) -> Result<TraceEvent, Error> {
    let fields = value.as_map().ok_or_else(|| Error::msg("expected a tagged map"))?;
    let [(tag, body)] = fields else {
        return Err(Error::msg("expected exactly one variant tag"));
    };
    let event = match tag.as_str() {
        "PacketOrigin" => TraceEvent::PacketOrigin {
            at: get_time(body)?,
            packet: get_packet(body)?,
            origin: get_node(body, "origin")?,
            measured: get(body, "measured")?
                .as_bool()
                .ok_or_else(|| Error::msg("measured: expected bool"))?,
        },
        "PacketDest" => TraceEvent::PacketDest {
            at: get_time(body)?,
            packet: get_packet(body)?,
            dest: get_node(body, "dest")?,
        },
        "Hop" => TraceEvent::Hop {
            at: get_time(body)?,
            packet: get_packet(body)?,
            from: get_node(body, "from")?,
            to: get_node(body, "to")?,
            reason: get_named(body, "reason", &HopReason::ALL, HopReason::as_str, "hop reason")?,
            queue_s: get_f64(body, "queue_s")?,
        },
        "Send" => TraceEvent::Send {
            at: get_time(body)?,
            from: get_node(body, "from")?,
            to: get_node(body, "to")?,
            size_bits: u32::try_from(get_u64(body, "size_bits")?).map_err(Error::msg)?,
            account: get_account(body)?,
        },
        "SendFailed" => TraceEvent::SendFailed {
            at: get_time(body)?,
            from: get_node(body, "from")?,
            to: get_node(body, "to")?,
        },
        "QueueDrop" => {
            TraceEvent::QueueDrop { at: get_time(body)?, from: get_node(body, "from")? }
        }
        "Broadcast" => TraceEvent::Broadcast {
            at: get_time(body)?,
            from: get_node(body, "from")?,
            receivers: usize::try_from(get_u64(body, "receivers")?).map_err(Error::msg)?,
            account: get_account(body)?,
        },
        "Delivered" => TraceEvent::Delivered {
            at: get_time(body)?,
            packet: get_packet(body)?,
            node: get_node(body, "node")?,
            delay_s: get_f64(body, "delay_s")?,
            hops: u32::try_from(get_u64(body, "hops")?).map_err(Error::msg)?,
        },
        "Dropped" => TraceEvent::Dropped {
            at: get_time(body)?,
            packet: get_packet(body)?,
            reason: get_named(body, "reason", &DropReason::ALL, DropReason::as_str, "drop reason")?,
        },
        "FaultRotation" => TraceEvent::FaultRotation {
            at: get_time(body)?,
            failed: get_nodes(body, "failed")?,
            recovered: get_nodes(body, "recovered")?,
        },
        "Retransmit" => TraceEvent::Retransmit {
            at: get_time(body)?,
            from: get_node(body, "from")?,
            to: get_node(body, "to")?,
            attempt: u32::try_from(get_u64(body, "attempt")?).map_err(Error::msg)?,
        },
        "Suspected" => {
            TraceEvent::Suspected { at: get_time(body)?, node: get_node(body, "node")? }
        }
        other => return Err(Error::msg(format!("unknown event kind {other:?}"))),
    };
    Ok(event)
}

/// Encodes an event as one JSONL line (no trailing newline).
pub fn to_jsonl_line(event: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(128);
    write_jsonl_line(event, &mut line);
    String::from_utf8(line).expect("the JSON writer emits UTF-8")
}

/// Parses one JSONL line back into an event.
pub fn from_jsonl_line(line: &str) -> Result<TraceEvent, Error> {
    event_from_value(&json::from_str(line.trim())?)
}

/// Reads a JSONL trace file: its events in file order. Blank lines are
/// skipped; the first line that does not decode fails the whole file,
/// named as `path:line`, so no tool folds a corrupt trace.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let path = path.display();
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| from_jsonl_line(line).map_err(|e| format!("{path}:{}: {}", i + 1, e.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(fields: Vec<(&str, Value)>) -> Value {
        Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn time(at: SimTime) -> Value {
        Value::U64(at.as_micros())
    }

    fn node(n: NodeId) -> Value {
        Value::U64(u64::from(n.0))
    }

    fn packet(p: DataId) -> Value {
        Value::U64(p.0)
    }

    fn f64_value(x: f64) -> Value {
        Value::F64(x)
    }

    /// The oracle: the tree-built encoder `write_jsonl_line` replaced.
    fn event_to_value(event: &TraceEvent) -> Value {
        let body = match event {
            TraceEvent::PacketOrigin { at, packet: p, origin, measured } => map(vec![
                ("at", time(*at)),
                ("packet", packet(*p)),
                ("origin", node(*origin)),
                ("measured", Value::Bool(*measured)),
            ]),
            TraceEvent::PacketDest { at, packet: p, dest } => map(vec![
                ("at", time(*at)),
                ("packet", packet(*p)),
                ("dest", node(*dest)),
            ]),
            TraceEvent::Hop { at, packet: p, from, to, reason, queue_s } => map(vec![
                ("at", time(*at)),
                ("packet", packet(*p)),
                ("from", node(*from)),
                ("to", node(*to)),
                ("reason", Value::Str(reason.as_str().to_string())),
                ("queue_s", f64_value(*queue_s)),
            ]),
            TraceEvent::Send { at, from, to, size_bits, account } => map(vec![
                ("at", time(*at)),
                ("from", node(*from)),
                ("to", node(*to)),
                ("size_bits", Value::U64(u64::from(*size_bits))),
                ("account", Value::Str(account.as_str().to_string())),
            ]),
            TraceEvent::SendFailed { at, from, to } => {
                map(vec![("at", time(*at)), ("from", node(*from)), ("to", node(*to))])
            }
            TraceEvent::QueueDrop { at, from } => {
                map(vec![("at", time(*at)), ("from", node(*from))])
            }
            TraceEvent::Broadcast { at, from, receivers, account } => map(vec![
                ("at", time(*at)),
                ("from", node(*from)),
                ("receivers", Value::U64(*receivers as u64)),
                ("account", Value::Str(account.as_str().to_string())),
            ]),
            TraceEvent::Delivered { at, packet: p, node: n, delay_s, hops } => map(vec![
                ("at", time(*at)),
                ("packet", packet(*p)),
                ("node", node(*n)),
                ("delay_s", f64_value(*delay_s)),
                ("hops", Value::U64(u64::from(*hops))),
            ]),
            TraceEvent::Dropped { at, packet: p, reason } => map(vec![
                ("at", time(*at)),
                ("packet", packet(*p)),
                ("reason", Value::Str(reason.as_str().to_string())),
            ]),
            TraceEvent::FaultRotation { at, failed, recovered } => map(vec![
                ("at", time(*at)),
                ("failed", Value::Seq(failed.iter().map(|&n| node(n)).collect())),
                ("recovered", Value::Seq(recovered.iter().map(|&n| node(n)).collect())),
            ]),
            TraceEvent::Retransmit { at, from, to, attempt } => map(vec![
                ("at", time(*at)),
                ("from", node(*from)),
                ("to", node(*to)),
                ("attempt", Value::U64(u64::from(*attempt))),
            ]),
            TraceEvent::Suspected { at, node: n } => {
                map(vec![("at", time(*at)), ("node", node(*n))])
            }
        };
        Value::Map(vec![(event.kind().to_string(), body)])
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// One instance of every variant, exercising every field type.
    fn every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PacketOrigin {
                at: t(1),
                packet: DataId(u64::MAX),
                origin: NodeId(3),
                measured: true,
            },
            TraceEvent::PacketDest { at: t(1), packet: DataId(42), dest: NodeId(19) },
            TraceEvent::Hop {
                at: t(2),
                packet: DataId(7),
                from: NodeId(1),
                to: NodeId(2),
                reason: HopReason::Detour,
                queue_s: 0.0125,
            },
            TraceEvent::Send {
                at: t(3),
                from: NodeId(4),
                to: NodeId(5),
                size_bits: 4096,
                account: EnergyAccount::Communication,
            },
            TraceEvent::SendFailed { at: t(4), from: NodeId(6), to: NodeId(7) },
            TraceEvent::QueueDrop { at: t(5), from: NodeId(8) },
            TraceEvent::Broadcast {
                at: t(6),
                from: NodeId(9),
                receivers: 17,
                account: EnergyAccount::Construction,
            },
            TraceEvent::Delivered {
                at: t(7),
                packet: DataId(11),
                node: NodeId(10),
                delay_s: 0.25,
                hops: 6,
            },
            TraceEvent::Dropped { at: t(8), packet: DataId(12), reason: DropReason::NoRoute },
            TraceEvent::FaultRotation {
                at: t(9),
                failed: vec![NodeId(1), NodeId(2)],
                recovered: vec![],
            },
            TraceEvent::Retransmit { at: t(10), from: NodeId(3), to: NodeId(4), attempt: 2 },
            TraceEvent::Suspected { at: t(11), node: NodeId(5) },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        let mut reused = Vec::new();
        for event in every_variant() {
            let line = to_jsonl_line(&event);
            assert_eq!(line, json::to_string(&event_to_value(&event)), "streamed ≡ tree-built");
            reused.clear();
            write_jsonl_line(&event, &mut reused);
            assert_eq!(reused, line.as_bytes(), "a reused buffer holds exactly the line");
            assert!(!line.contains('\n'), "JSONL must be single-line: {line}");
            let back = from_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    /// Every name of the three enums the codec writes reads back as its
    /// variant, through the same fields a trace line carries.
    #[test]
    fn every_reason_and_account_round_trips() {
        let (at, packet, from, to) = (t(1), DataId(1), NodeId(1), NodeId(2));
        let mut events = Vec::new();
        for reason in HopReason::ALL {
            events.push(TraceEvent::Hop { at, packet, from, to, reason, queue_s: 0.0 });
        }
        for reason in DropReason::ALL {
            events.push(TraceEvent::Dropped { at, packet, reason });
        }
        for account in EnergyAccount::ALL {
            events.push(TraceEvent::Send { at, from, to, size_bits: 8, account });
            events.push(TraceEvent::Broadcast { at, from, receivers: 3, account });
        }
        for event in events {
            let line = to_jsonl_line(&event);
            assert_eq!(from_jsonl_line(&line).expect("parses"), event, "{line}");
        }
        let unknown = r#"{"Dropped":{"at":1,"packet":1,"reason":"lost"}}"#;
        let err = from_jsonl_line(unknown).expect_err("an unknown name is an error");
        assert_eq!(err.0, r#"unknown drop reason "lost""#);
    }

    #[test]
    fn lines_are_externally_tagged() {
        let line = to_jsonl_line(&TraceEvent::QueueDrop { at: t(42), from: NodeId(9) });
        assert_eq!(line, r#"{"QueueDrop":{"at":42,"from":9}}"#);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(from_jsonl_line(r#"{"Nope":{"at":1}}"#).is_err());
        assert!(from_jsonl_line(r#"{"QueueDrop":{"from":9}}"#).is_err());
        assert!(from_jsonl_line("not json").is_err());
        assert!(from_jsonl_line(r#"{"Hop":{"at":1},"Send":{"at":2}}"#).is_err());
        // Nesting past the JSON layer's cap is an error, not a stack overflow.
        assert!(from_jsonl_line(&"[".repeat(60_000)).is_err());
        let deep = format!(r#"{{"QueueDrop":{{"at":42,"from":9,"x":{}}}}}"#, "[".repeat(60_000));
        assert!(from_jsonl_line(&deep).is_err());
    }
}
