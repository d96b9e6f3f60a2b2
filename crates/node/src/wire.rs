//! Datagram codec for inter-daemon frames: canonical JSON (the same
//! `serde`-shim JSON layer the trace JSONL uses) wrapped in the
//! `refer-obs` length-prefixed binary framing.
//!
//! A datagram carries one envelope: the destination node plus the exact
//! [`Message`] the receiving protocol hook sees. Every [`ReferMsg`]
//! variant is encodable — a cluster normally only puts `Data` frames on
//! the wire (construction is replayed locally, maintenance is quiescent
//! under the Oracle model with zero faults), but the codec refuses to be
//! the reason a control frame can't travel.
//!
//! Both directions run once per hop, so neither builds a tree: the
//! encoder streams through [`Writer`] straight into the frame, the
//! decoder pulls from the borrowed datagram with [`Reader`]. The decoder
//! reads JSON, not just this encoder's output — keys in any order and
//! escaped, whitespace, unknown keys skipped, the first of duplicate keys
//! winning, integral floats as integers, a `null` battery as NaN — which
//! is what `wire_oracle.rs` holds it to, against the tree-based codec it
//! replaced.

use kautz::KautzId;
use refer::{DataFrame, ReferMsg};
use refer_obs::{split_frame, write_frame_with, FrameError, SplitFrame};
use serde::json::{Reader, Writer};
use serde::Error;
use wsan_sim::{DataId, EnergyAccount, Message, NodeId};

fn write_kid(w: &mut Writer, kid: &KautzId) {
    w.begin_object().key("digits").begin_array();
    for &digit in kid.digits() {
        w.u64(u64::from(digit));
    }
    w.end_array().key("degree").u64(u64::from(kid.degree())).end_object();
}

fn write_payload(w: &mut Writer, msg: &ReferMsg) {
    let unit = |w: &mut Writer, tag: &str| {
        w.key(tag).null();
    };
    w.begin_object();
    match msg {
        ReferMsg::Ctrl => unit(w, "Ctrl"),
        ReferMsg::Assignment => unit(w, "Assignment"),
        ReferMsg::PathQuery { qid, ttl, target, path } => {
            w.key("PathQuery").begin_object();
            w.key("qid").u64(*qid);
            w.key("ttl").u64(u64::from(*ttl));
            w.key("target").u64(u64::from(target.0));
            w.key("path").begin_array();
            for &(n, battery) in path {
                w.begin_array().u64(u64::from(n.0)).f64(battery).end_array();
            }
            w.end_array().end_object();
        }
        ReferMsg::PathAssign { assignments, hop } => {
            w.key("PathAssign").begin_object();
            w.key("assignments").begin_array();
            for (n, kid) in assignments {
                w.begin_array().u64(u64::from(n.0));
                write_kid(w, kid);
                w.end_array();
            }
            w.end_array();
            w.key("hop").u64(*hop as u64).end_object();
        }
        ReferMsg::StartStage2 { qid, target } => {
            w.key("StartStage2").begin_object();
            w.key("qid").u64(*qid);
            w.key("target").u64(u64::from(target.0)).end_object();
        }
        ReferMsg::CellReady => unit(w, "CellReady"),
        ReferMsg::Beacon => unit(w, "Beacon"),
        ReferMsg::Gossip { accused } => {
            w.key("Gossip").begin_object().key("accused").begin_array();
            for n in accused {
                w.u64(u64::from(n.0));
            }
            w.end_array().end_object();
        }
        ReferMsg::Probe => unit(w, "Probe"),
        ReferMsg::Replace => unit(w, "Replace"),
        ReferMsg::ReplaceNotice => unit(w, "ReplaceNotice"),
        ReferMsg::Data(frame) => {
            w.key("Data").begin_object();
            w.key("data").u64(frame.data.0);
            w.key("dest_cell").u64(frame.dest_cell as u64);
            w.key("dest_kid");
            write_kid(w, &frame.dest_kid);
            if let Some(forced) = frame.forced {
                w.key("forced").u64(u64::from(forced));
            }
            w.key("appended").u64(u64::from(frame.appended));
            w.key("hops").u64(u64::from(frame.hops)).end_object();
        }
    }
    w.end_object();
}

/// Encodes one datagram: a length-prefixed frame holding the canonical
/// JSON encoding of `(to, created_us, msg)`. `created_us` is the cluster
/// clock (microseconds on the shared epoch) at which the application
/// packet inside a `Data` payload was created — it rides the envelope so
/// the delivering daemon can account end-to-end delay without a
/// rendezvous; zero for control payloads.
pub fn encode_datagram(to: NodeId, created_us: u64, msg: &Message<ReferMsg>) -> Vec<u8> {
    // A `Data` datagram, all but the only kind a cluster sends, is ~225
    // bytes: one allocation carries header and payload.
    let mut out = Vec::with_capacity(256);
    write_frame_with(&mut out, |out| {
        let mut w = Writer::new(out);
        w.begin_object();
        w.key("to").u64(u64::from(to.0));
        w.key("created_us").u64(created_us);
        w.key("from").u64(u64::from(msg.from.0));
        w.key("size_bits").u64(u64::from(msg.size_bits));
        w.key("account").str(refer_obs::account_str(msg.account));
        w.key("broadcast").bool(msg.broadcast);
        w.key("payload");
        write_payload(&mut w, &msg.payload);
        w.end_object();
    });
    out
}

fn need<T>(field: Option<T>, key: &str) -> Result<T, Error> {
    field.ok_or_else(|| Error::msg(format!("missing field {key:?}")))
}

fn read_u8(r: &mut Reader, what: &str) -> Result<u8, Error> {
    let raw = r.read_u64()?;
    u8::try_from(raw).map_err(|_| Error::msg(format!("{what} out of u8 range: {raw}")))
}

fn read_node(r: &mut Reader, what: &str) -> Result<NodeId, Error> {
    let raw = r.read_u64()?;
    u32::try_from(raw)
        .map(NodeId)
        .map_err(|_| Error::msg(format!("{what} out of NodeId range: {raw}")))
}

fn read_seq<T>(
    r: &mut Reader,
    mut item: impl FnMut(&mut Reader) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let mut items = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Reads a `[a, b]` array of exactly two elements.
fn read_pair<A, B>(
    r: &mut Reader,
    what: &str,
    first: impl FnOnce(&mut Reader) -> Result<A, Error>,
    second: impl FnOnce(&mut Reader) -> Result<B, Error>,
) -> Result<(A, B), Error> {
    let not_a_pair = || Error::msg(format!("{what} is not a 2-element sequence"));
    r.begin_array()?;
    if !r.next_element()? {
        return Err(not_a_pair());
    }
    let a = first(r)?;
    if !r.next_element()? {
        return Err(not_a_pair());
    }
    let b = second(r)?;
    if r.next_element()? {
        return Err(not_a_pair());
    }
    Ok((a, b))
}

fn read_kid(r: &mut Reader) -> Result<KautzId, Error> {
    let (mut digits, mut degree) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "digits" if digits.is_none() => {
                // Into a fixed word: a hostile length is refused at the
                // first digit a KID cannot hold, with nothing allocated.
                let (mut word, mut len) = ([0; KautzId::MAX_K], 0);
                r.begin_array()?;
                while r.next_element()? {
                    let digit = read_u8(r, "KID digit")?;
                    *word.get_mut(len).ok_or_else(|| {
                        Error::msg(format!("KID longer than {} digits", KautzId::MAX_K))
                    })? = digit;
                    len += 1;
                }
                digits = Some((word, len));
            }
            "degree" if degree.is_none() => degree = Some(read_u8(r, "field \"degree\"")?),
            _ => r.skip_value()?,
        }
    }
    let (word, len) = need(digits, "digits")?;
    KautzId::from_slice(&word[..len], need(degree, "degree")?)
        .map_err(|e| Error::msg(format!("invalid KID on the wire: {e}")))
}

fn read_frame(r: &mut Reader) -> Result<DataFrame, Error> {
    let (mut data, mut dest_cell, mut dest_kid) = (None, None, None);
    let (mut forced, mut appended, mut hops) = (None, None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "data" if data.is_none() => data = Some(DataId(r.read_u64()?)),
            "dest_cell" if dest_cell.is_none() => dest_cell = Some(r.read_u64()? as usize),
            "dest_kid" if dest_kid.is_none() => dest_kid = Some(read_kid(r)?),
            "forced" if forced.is_none() => forced = Some(read_u8(r, "field \"forced\"")?),
            "appended" if appended.is_none() => {
                appended = Some(read_u8(r, "field \"appended\"")?);
            }
            "hops" if hops.is_none() => hops = Some(read_u8(r, "field \"hops\"")?),
            _ => r.skip_value()?,
        }
    }
    Ok(DataFrame {
        data: need(data, "data")?,
        dest_cell: need(dest_cell, "dest_cell")?,
        dest_kid: need(dest_kid, "dest_kid")?,
        forced,
        appended: need(appended, "appended")?,
        hops: need(hops, "hops")?,
    })
}

fn read_path_query(r: &mut Reader) -> Result<ReferMsg, Error> {
    let (mut qid, mut ttl, mut target, mut path) = (None, None, None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "qid" if qid.is_none() => qid = Some(r.read_u64()?),
            "ttl" if ttl.is_none() => ttl = Some(read_u8(r, "field \"ttl\"")?),
            "target" if target.is_none() => target = Some(read_node(r, "field \"target\"")?),
            "path" if path.is_none() => {
                let entry = |r: &mut Reader| {
                    read_pair(r, "path entry", |r| read_node(r, "path node"), |r| r.read_f64())
                };
                path = Some(read_seq(r, entry)?);
            }
            _ => r.skip_value()?,
        }
    }
    Ok(ReferMsg::PathQuery {
        qid: need(qid, "qid")?,
        ttl: need(ttl, "ttl")?,
        target: need(target, "target")?,
        path: need(path, "path")?,
    })
}

fn read_path_assign(r: &mut Reader) -> Result<ReferMsg, Error> {
    let (mut assignments, mut hop) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "assignments" if assignments.is_none() => {
                let entry = |r: &mut Reader| {
                    read_pair(r, "assignment entry", |r| read_node(r, "assignment node"), read_kid)
                };
                assignments = Some(read_seq(r, entry)?);
            }
            "hop" if hop.is_none() => hop = Some(r.read_u64()? as usize),
            _ => r.skip_value()?,
        }
    }
    Ok(ReferMsg::PathAssign {
        assignments: need(assignments, "assignments")?,
        hop: need(hop, "hop")?,
    })
}

fn read_start_stage2(r: &mut Reader) -> Result<ReferMsg, Error> {
    let (mut qid, mut target) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "qid" if qid.is_none() => qid = Some(r.read_u64()?),
            "target" if target.is_none() => target = Some(read_node(r, "field \"target\"")?),
            _ => r.skip_value()?,
        }
    }
    Ok(ReferMsg::StartStage2 { qid: need(qid, "qid")?, target: need(target, "target")? })
}

fn read_gossip(r: &mut Reader) -> Result<ReferMsg, Error> {
    let mut accused = None;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "accused" if accused.is_none() => {
                accused = Some(read_seq(r, |r| read_node(r, "accused node"))?);
            }
            _ => r.skip_value()?,
        }
    }
    Ok(ReferMsg::Gossip { accused: need(accused, "accused")? })
}

/// Reads the externally tagged payload: an object of exactly one key, the
/// variant's name. A unit variant's body is whatever follows the tag.
fn read_payload(r: &mut Reader) -> Result<ReferMsg, Error> {
    let one_tag = || Error::msg("payload must have exactly one variant tag");
    r.begin_object()?;
    let tag = r.next_key()?.ok_or_else(one_tag)?;
    let unit = |r: &mut Reader, msg| r.skip_value().map(|()| msg);
    let msg = match &*tag {
        "Ctrl" => unit(r, ReferMsg::Ctrl),
        "Assignment" => unit(r, ReferMsg::Assignment),
        "PathQuery" => read_path_query(r),
        "PathAssign" => read_path_assign(r),
        "StartStage2" => read_start_stage2(r),
        "CellReady" => unit(r, ReferMsg::CellReady),
        "Beacon" => unit(r, ReferMsg::Beacon),
        "Gossip" => read_gossip(r),
        "Probe" => unit(r, ReferMsg::Probe),
        "Replace" => unit(r, ReferMsg::Replace),
        "ReplaceNotice" => unit(r, ReferMsg::ReplaceNotice),
        "Data" => read_frame(r).map(ReferMsg::Data),
        other => Err(Error::msg(format!("unknown payload variant {other:?}"))),
    }?;
    if r.next_key()?.is_some() {
        return Err(one_tag());
    }
    Ok(msg)
}

/// Decodes one datagram produced by [`encode_datagram`].
pub fn decode_datagram(bytes: &[u8]) -> Result<(NodeId, u64, Message<ReferMsg>), Error> {
    let payload = match split_frame(bytes) {
        Ok(Some(SplitFrame { payload, rest: [] })) => payload,
        Ok(Some(_)) => return Err(Error::msg("trailing bytes after frame in datagram")),
        Ok(None) => return Err(Error::msg("truncated datagram: incomplete frame")),
        Err(FrameError::Oversize { declared }) => {
            return Err(Error::msg(format!("oversize frame on the wire: {declared} bytes")))
        }
    };
    let (mut to, mut created_us, mut from, mut size_bits) = (None, None, None, None);
    let (mut account, mut broadcast, mut msg) = (None, None, None);
    let r = &mut Reader::from_bytes(payload)?;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "to" if to.is_none() => to = Some(read_node(r, "field \"to\"")?),
            "created_us" if created_us.is_none() => created_us = Some(r.read_u64()?),
            "from" if from.is_none() => from = Some(read_node(r, "field \"from\"")?),
            "size_bits" if size_bits.is_none() => {
                let raw = r.read_u64()?;
                size_bits = Some(
                    u32::try_from(raw).map_err(|_| Error::msg("size_bits out of u32 range"))?,
                );
            }
            "account" if account.is_none() => {
                account = Some(match &*r.read_str()? {
                    "construction" => EnergyAccount::Construction,
                    "communication" => EnergyAccount::Communication,
                    other => return Err(Error::msg(format!("unknown energy account {other:?}"))),
                });
            }
            "broadcast" if broadcast.is_none() => broadcast = Some(r.read_bool()?),
            "payload" if msg.is_none() => msg = Some(read_payload(r)?),
            _ => r.skip_value()?,
        }
    }
    r.end()?;
    let msg = Message {
        from: need(from, "from")?,
        size_bits: need(size_bits, "size_bits")?,
        account: need(account, "account")?,
        broadcast: need(broadcast, "broadcast")?,
        payload: need(msg, "payload")?,
    };
    Ok((need(to, "to")?, need(created_us, "created_us")?, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: ReferMsg) -> Message<ReferMsg> {
        Message {
            from: NodeId(7),
            size_bits: 1024,
            account: EnergyAccount::Communication,
            broadcast: false,
            payload,
        }
    }

    fn round_trip(payload: ReferMsg) -> (NodeId, u64, Message<ReferMsg>) {
        let wire = encode_datagram(NodeId(3), 12_345, &msg(payload));
        decode_datagram(&wire).expect("decode")
    }

    #[test]
    fn data_frame_round_trips() {
        let frame = DataFrame {
            data: DataId(0x0000_0005_0000_002a),
            dest_cell: 2,
            dest_kid: KautzId::new(vec![0, 1, 2], 2).unwrap(),
            forced: Some(1),
            appended: 3,
            hops: 9,
        };
        let (to, created_us, got) = round_trip(ReferMsg::Data(frame.clone()));
        assert_eq!(to, NodeId(3));
        assert_eq!(created_us, 12_345);
        assert_eq!(got.from, NodeId(7));
        assert_eq!(got.size_bits, 1024);
        assert_eq!(got.account, EnergyAccount::Communication);
        assert!(!got.broadcast);
        match got.payload {
            ReferMsg::Data(d) => {
                assert_eq!(d.data, frame.data);
                assert_eq!(d.dest_cell, frame.dest_cell);
                assert_eq!(d.dest_kid, frame.dest_kid);
                assert_eq!(d.forced, frame.forced);
                assert_eq!(d.appended, frame.appended);
                assert_eq!(d.hops, frame.hops);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn every_control_variant_round_trips() {
        let kid = |digits: Vec<u8>| KautzId::new(digits, 2).unwrap();
        let variants = vec![
            ReferMsg::Ctrl,
            ReferMsg::Assignment,
            ReferMsg::PathQuery {
                qid: 42,
                ttl: 3,
                target: NodeId(9),
                path: vec![(NodeId(1), 95.5), (NodeId(2), 80.25)],
            },
            ReferMsg::PathAssign {
                assignments: vec![(NodeId(4), kid(vec![0, 1])), (NodeId(5), kid(vec![1, 2]))],
                hop: 1,
            },
            ReferMsg::StartStage2 { qid: 7, target: NodeId(11) },
            ReferMsg::CellReady,
            ReferMsg::Beacon,
            ReferMsg::Gossip { accused: vec![NodeId(3), NodeId(8)] },
            ReferMsg::Probe,
            ReferMsg::Replace,
            ReferMsg::ReplaceNotice,
        ];
        for payload in variants {
            let tag = format!("{payload:?}");
            let (_, _, got) = round_trip(payload);
            // ReferMsg has no PartialEq; the Debug form is a faithful
            // structural fingerprint for these variants.
            assert_eq!(format!("{:?}", got.payload), tag);
        }
    }

    #[test]
    fn corrupt_datagrams_are_rejected_not_panicked() {
        assert!(decode_datagram(&[]).is_err());
        assert!(decode_datagram(&[1, 2, 3]).is_err());
        let mut wire = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        wire.truncate(wire.len() - 1);
        assert!(decode_datagram(&wire).is_err());
        let mut trailing = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        trailing.push(0);
        assert!(decode_datagram(&trailing).is_err());
    }

    /// The remote abort: before the shim's reader capped nesting, one
    /// datagram of `[` overflowed the daemon's stack. Any frame nested
    /// deeper than the cap, whatever its size, must come back as `Err` —
    /// checked on a 2 MiB stack, the smallest a thread here gets.
    #[test]
    fn deeply_nested_frames_are_rejected_not_recursed() {
        let frame = |json: String| refer_obs::encode_frame(json.as_bytes());
        let beacon = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        let envelope = std::str::from_utf8(&beacon[4..]).expect("utf8").to_string();
        let nested = |open: &str, close: &str, n: usize| {
            format!("{{\"junk\":{}{},{}", open.repeat(n), close.repeat(n), &envelope[1..])
        };
        let hostile = vec![
            frame("[".repeat(60_000)),
            frame("{\"a\":".repeat(10_000)),
            frame(format!("{{\"junk\":{}", "[".repeat(60_000))),
            frame(nested("[", "]", 30_000)),
            frame(nested("{\"k\":[", "]}", 100)),
            frame(envelope.replace("null", &format!("{}null{}", "[".repeat(200), "]".repeat(200)))),
        ];
        let shallow = frame(nested("[", "]", 100));
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for wire in &hostile {
                    assert!(wire.len() <= 64 * 1024 + 4, "fits the daemon's receive buffer");
                    assert!(decode_datagram(wire).is_err());
                }
                decode_datagram(&shallow).expect("nesting under the cap in a skipped key decodes");
            })
            .expect("spawn")
            .join()
            .expect("no overflow, no panic");
    }
}
