//! Datagram codec for inter-daemon frames: one canonical binary image
//! per message, and a decoder that accepts that image and nothing else.
//!
//! A datagram carries one envelope: the destination node plus the exact
//! [`Message`] the receiving protocol hook sees. Every [`ReferMsg`]
//! variant is encodable — a cluster normally only puts `Data` frames on
//! the wire (construction is replayed locally, maintenance is quiescent
//! under the Oracle model with zero faults), but the codec refuses to be
//! the reason a control frame can't travel.
//!
//! The layout (DESIGN.md §15), field by field:
//!
//! | field | bytes |
//! |---|---|
//! | format | one byte, [`FORMAT`] |
//! | `to`, `created_us`, `from`, `size_bits` | minimal unsigned LEB128 varints |
//! | flags | one byte: bit 0 `account == Communication`, bit 1 `broadcast`, the rest 0 |
//! | payload tag | one byte, from the table below |
//! | payload | the variant's fields in declaration order |
//!
//! | payload tag | `ReferMsg` variant |
//! |---|---|
//! | 0 | `Ctrl` |
//! | 1 | `Assignment` |
//! | 2 | `PathQuery` |
//! | 3 | `PathAssign` |
//! | 4 | `StartStage2` |
//! | 5 | `CellReady` |
//! | 6 | `Beacon` |
//! | 7 | retired: it carried `Gossip`, the suspicion list of the removed Byzantine fault model; never reused, and refused as unknown |
//! | 8 | `Probe` |
//! | 9 | `Replace` |
//! | 10 | `ReplaceNotice` |
//! | 11 | `Data` |
//!
//! Inside a payload a `u8` is one byte and every wider integer a varint.
//! A cell vertex is its arc-table index, a `u32` varint: one byte for
//! every vertex of `K(2, 3)` and `K(3, 3)`, at most two for any degree a
//! cell graph can have. `forced` is `0` or `1, digit`; a sequence is a
//! varint count and then its items; a battery is its 8 little-endian
//! bytes, so every `f64` — NaN, ±inf, −0.0 — arrives as the bits that
//! left.
//!
//! The datagram is the frame, so there is no length prefix: the decoder
//! must consume every byte, with none missing and none trailing. Every
//! other check refuses a byte string the encoder would not have written
//! — a non-minimal varint, an unknown format byte or tag, a reserved flag
//! bit, a `forced` marker other than 0 or 1 — so `encode(decode(b)) == b`
//! holds for every `b` that decodes. Lengths and counts are checked
//! against the bytes left before anything is read into or allocated.

use std::fmt;

use refer::{DataFrame, ReferMsg};
use wsan_sim::{DataId, EnergyAccount, Message, NodeId};

/// The first byte of every datagram: this layout, version 2 (cell
/// vertices by index). A datagram of version 1, which carried KIDs as
/// digit strings, fails here. So does one of the earlier JSON wire (`{`,
/// or its length prefix's low byte) or, should that byte be `0xB2`, no
/// later than the flags byte, where the JSON's `"` sets reserved bits.
pub const FORMAT: u8 = 0xB2;

const FLAG_COMMUNICATION: u8 = 1;
const FLAG_BROADCAST: u8 = 2;

/// Longest varints of the integer widths the layout carries.
const VARINT_U64: usize = 10;
const VARINT_U32: usize = 5;
/// Longest envelope: format, four varints, flags, payload tag.
const ENVELOPE_MAX: usize = 1 + VARINT_U32 + VARINT_U64 + VARINT_U32 + VARINT_U32 + 1 + 1;

/// Why a datagram was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The datagram ends inside a field.
    Truncated,
    /// Bytes follow a complete message.
    Trailing,
    /// A byte the encoder never writes where a marker belongs: format
    /// byte, reserved flag bit, payload tag or `forced` marker.
    Unknown(&'static str, u8),
    /// A varint with a redundant final byte.
    NonMinimalVarint,
    /// A varint past the 64 bits any field holds.
    LongVarint,
    /// An integer wider than its field.
    OutOfRange(&'static str),
    /// A sequence count the rest of the datagram cannot hold.
    Count(u64),
}

/// A refused datagram: the reason and the offset of the byte that decided it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offset of the field (or byte) the decoder could not accept.
    pub at: usize,
    /// What was wrong with it.
    pub reason: Reason,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            Reason::Truncated => write!(f, "truncated datagram")?,
            Reason::Trailing => write!(f, "trailing bytes after the message")?,
            Reason::Unknown(what, byte) => write!(f, "unknown {what} {byte:#04x}")?,
            Reason::NonMinimalVarint => write!(f, "non-minimal varint")?,
            Reason::LongVarint => write!(f, "varint longer than 64 bits")?,
            Reason::OutOfRange(what) => write!(f, "{what} out of range")?,
            Reason::Count(n) => write!(f, "sequence of {n} items overruns the datagram")?,
        }
        write!(f, " at byte {}", self.at)
    }
}

impl std::error::Error for WireError {}

fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// The variant's payload tag, as the module doc's table lists it.
fn tag(msg: &ReferMsg) -> u8 {
    match msg {
        ReferMsg::Ctrl => 0,
        ReferMsg::Assignment => 1,
        ReferMsg::PathQuery { .. } => 2,
        ReferMsg::PathAssign { .. } => 3,
        ReferMsg::StartStage2 { .. } => 4,
        ReferMsg::CellReady => 5,
        ReferMsg::Beacon => 6,
        ReferMsg::Probe => 8,
        ReferMsg::Replace => 9,
        ReferMsg::ReplaceNotice => 10,
        ReferMsg::Data(_) => 11,
    }
}

/// An upper bound on the payload's encoded size, so the encoder
/// allocates once.
fn payload_max(msg: &ReferMsg) -> usize {
    match msg {
        ReferMsg::PathQuery { path, .. } => {
            VARINT_U64 + 1 + VARINT_U32 + VARINT_U64 + path.len() * (VARINT_U32 + 8)
        }
        ReferMsg::PathAssign { assignments, .. } => {
            VARINT_U64 + assignments.len() * 2 * VARINT_U32 + VARINT_U64
        }
        ReferMsg::StartStage2 { .. } => VARINT_U64 + VARINT_U32,
        ReferMsg::Data(_) => 2 * VARINT_U64 + VARINT_U32 + 2 + 2,
        _ => 0,
    }
}

fn put_payload(out: &mut Vec<u8>, msg: &ReferMsg) {
    out.push(tag(msg));
    match msg {
        ReferMsg::PathQuery { qid, ttl, target, path } => {
            put_varint(out, *qid);
            out.push(*ttl);
            put_varint(out, u64::from(target.0));
            put_varint(out, path.len() as u64);
            for &(n, battery) in path.iter() {
                put_varint(out, u64::from(n.0));
                out.extend_from_slice(&battery.to_le_bytes());
            }
        }
        ReferMsg::PathAssign { assignments, hop } => {
            put_varint(out, assignments.len() as u64);
            for &(n, vertex) in assignments {
                put_varint(out, u64::from(n.0));
                put_varint(out, u64::from(vertex));
            }
            put_varint(out, *hop as u64);
        }
        ReferMsg::StartStage2 { qid, target } => {
            put_varint(out, *qid);
            put_varint(out, u64::from(target.0));
        }
        ReferMsg::Data(frame) => {
            put_varint(out, frame.data.0);
            put_varint(out, frame.dest_cell as u64);
            put_varint(out, u64::from(frame.dest_vertex));
            match frame.forced {
                None => out.push(0),
                Some(digit) => out.extend_from_slice(&[1, digit]),
            }
            out.extend_from_slice(&[frame.appended, frame.hops]);
        }
        ReferMsg::Ctrl
        | ReferMsg::Assignment
        | ReferMsg::CellReady
        | ReferMsg::Beacon
        | ReferMsg::Probe
        | ReferMsg::Replace
        | ReferMsg::ReplaceNotice => {}
    }
}

/// Encodes one datagram: the canonical image of `(to, created_us, msg)`
/// in one allocation. `created_us` is the cluster clock (microseconds on
/// the shared epoch) at which the application packet inside a `Data`
/// payload was created — it rides the envelope so the delivering daemon
/// can account end-to-end delay without a rendezvous; zero for control
/// payloads.
pub fn encode_datagram(to: NodeId, created_us: u64, msg: &Message<ReferMsg>) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_MAX + payload_max(&msg.payload));
    out.push(FORMAT);
    put_varint(&mut out, u64::from(to.0));
    put_varint(&mut out, created_us);
    put_varint(&mut out, u64::from(msg.from.0));
    put_varint(&mut out, u64::from(msg.size_bits));
    let mut flags = 0;
    if msg.account == EnergyAccount::Communication {
        flags |= FLAG_COMMUNICATION;
    }
    if msg.broadcast {
        flags |= FLAG_BROADCAST;
    }
    out.push(flags);
    put_payload(&mut out, &msg.payload);
    out
}

/// A cursor over the borrowed datagram.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn fail<T>(at: usize, reason: Reason) -> Result<T, WireError> {
    Err(WireError { at, reason })
}

impl<'a> Reader<'a> {
    #[inline]
    fn byte(&mut self) -> Result<u8, WireError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => fail(self.pos, Reason::Truncated),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.bytes.get(self.pos..self.pos + n) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => fail(self.pos, Reason::Truncated),
        }
    }

    /// A minimal LEB128 varint of at most 64 bits.
    #[inline]
    fn varint(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut value = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return fail(start, Reason::LongVarint);
            }
            value |= bits << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return fail(start, Reason::NonMinimalVarint);
                }
                return Ok(value);
            }
        }
        fail(start, Reason::LongVarint)
    }

    /// A varint that must fit its field's type.
    fn int<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, WireError> {
        let start = self.pos;
        let raw = self.varint()?;
        T::try_from(raw).or_else(|_| fail(start, Reason::OutOfRange(what)))
    }

    fn node(&mut self, what: &'static str) -> Result<NodeId, WireError> {
        self.int(what).map(NodeId)
    }

    fn battery(&mut self) -> Result<f64, WireError> {
        let bytes = self.take(8)?;
        Ok(f64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
    }

    /// A sequence count, refused unless the bytes left could hold that
    /// many items of at least `min_item` bytes each.
    fn count(&mut self, min_item: usize) -> Result<usize, WireError> {
        let start = self.pos;
        let n = self.varint()?;
        let room = (self.bytes.len() - self.pos) / min_item;
        if n > room as u64 {
            return fail(start, Reason::Count(n));
        }
        Ok(n as usize)
    }

    fn forced(&mut self) -> Result<Option<u8>, WireError> {
        let at = self.pos;
        match self.byte()? {
            0 => Ok(None),
            1 => self.byte().map(Some),
            other => fail(at, Reason::Unknown("forced marker", other)),
        }
    }

    fn payload(&mut self) -> Result<ReferMsg, WireError> {
        let at = self.pos;
        Ok(match self.byte()? {
            0 => ReferMsg::Ctrl,
            1 => ReferMsg::Assignment,
            2 => {
                let qid = self.varint()?;
                let ttl = self.byte()?;
                let target = self.node("PathQuery target")?;
                let n = self.count(1 + 8)?;
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    path.push((self.node("path node")?, self.battery()?));
                }
                ReferMsg::PathQuery { qid, ttl, target, path: path.into() }
            }
            3 => {
                let n = self.count(1 + 1)?;
                let mut assignments = Vec::with_capacity(n);
                for _ in 0..n {
                    assignments.push((self.node("assignment node")?, self.int("vertex")?));
                }
                ReferMsg::PathAssign { assignments, hop: self.int("PathAssign hop")? }
            }
            4 => ReferMsg::StartStage2 {
                qid: self.varint()?,
                target: self.node("StartStage2 target")?,
            },
            5 => ReferMsg::CellReady,
            6 => ReferMsg::Beacon,
            8 => ReferMsg::Probe,
            9 => ReferMsg::Replace,
            10 => ReferMsg::ReplaceNotice,
            11 => ReferMsg::Data(DataFrame {
                data: DataId(self.varint()?),
                dest_cell: self.int("dest_cell")?,
                dest_vertex: self.int("dest_vertex")?,
                forced: self.forced()?,
                appended: self.byte()?,
                hops: self.byte()?,
            }),
            other => return fail(at, Reason::Unknown("payload tag", other)),
        })
    }
}

/// Decodes one datagram produced by [`encode_datagram`]; any other byte
/// string is an error naming the offset that decided it.
pub fn decode_datagram(bytes: &[u8]) -> Result<(NodeId, u64, Message<ReferMsg>), WireError> {
    let r = &mut Reader { bytes, pos: 0 };
    let format = r.byte()?;
    if format != FORMAT {
        return fail(0, Reason::Unknown("format byte", format));
    }
    let to = r.node("to")?;
    let created_us = r.varint()?;
    let from = r.node("from")?;
    let size_bits = r.int("size_bits")?;
    let at = r.pos;
    let flags = r.byte()?;
    if flags & !(FLAG_COMMUNICATION | FLAG_BROADCAST) != 0 {
        return fail(at, Reason::Unknown("flag bits", flags));
    }
    let account = if flags & FLAG_COMMUNICATION != 0 {
        EnergyAccount::Communication
    } else {
        EnergyAccount::Construction
    };
    let payload = r.payload()?;
    if r.pos != bytes.len() {
        return fail(r.pos, Reason::Trailing);
    }
    let msg = Message { from, size_bits, account, broadcast: flags & FLAG_BROADCAST != 0, payload };
    Ok((to, created_us, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
            dest_vertex: 1,
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
                assert_eq!(d.dest_vertex, frame.dest_vertex);
                assert_eq!(d.forced, frame.forced);
                assert_eq!(d.appended, frame.appended);
                assert_eq!(d.hops, frame.hops);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn every_control_variant_round_trips() {
        let variants = vec![
            ReferMsg::Ctrl,
            ReferMsg::Assignment,
            ReferMsg::PathQuery {
                qid: 42,
                ttl: 3,
                target: NodeId(9),
                path: Arc::new([(NodeId(1), 95.5), (NodeId(2), 80.25)]),
            },
            ReferMsg::PathAssign {
                assignments: vec![(NodeId(4), 2), (NodeId(5), 200)],
                hop: 1,
            },
            ReferMsg::StartStage2 { qid: 7, target: NodeId(11) },
            ReferMsg::CellReady,
            ReferMsg::Beacon,
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

    /// Tag 7 is retired, not reused: the bytes of an empty `Gossip` frame
    /// (a well-formed envelope, tag 7, a zero count) are refused at the
    /// tag byte, as any unknown tag is.
    #[test]
    fn retired_gossip_tag_7_is_unknown() {
        let mut wire = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        let at = wire.len() - 1;
        assert_eq!(wire[at], 6, "Beacon's tag is the last byte");
        wire[at] = 7;
        wire.push(0);
        let err = decode_datagram(&wire).unwrap_err();
        assert_eq!((err.at, err.reason), (at, Reason::Unknown("payload tag", 7)));
    }

    #[test]
    fn corrupt_datagrams_are_rejected_not_panicked() {
        assert_eq!(decode_datagram(&[]).unwrap_err().reason, Reason::Truncated);
        assert!(decode_datagram(&[1, 2, 3]).is_err());
        let mut wire = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        wire.truncate(wire.len() - 1);
        assert!(decode_datagram(&wire).is_err());
        let mut trailing = encode_datagram(NodeId(0), 0, &msg(ReferMsg::Beacon));
        trailing.push(0);
        let err = decode_datagram(&trailing).unwrap_err();
        assert_eq!((err.at, err.reason), (trailing.len() - 1, Reason::Trailing));
    }

    /// The remote abort of the JSON codec: a datagram of `[` overflowed
    /// the daemon's stack until its reader capped nesting. The binary
    /// decoder recurses nowhere, so any JSON document — nested however
    /// deep — is refused at its first byte, checked on a 2 MiB stack,
    /// the smallest a thread here gets.
    #[test]
    fn deeply_nested_frames_are_rejected_not_recursed() {
        let hostile = vec!["[".repeat(60_000), "{\"a\":".repeat(10_000), "[".repeat(64 * 1024)];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for json in &hostile {
                    let err = decode_datagram(json.as_bytes()).unwrap_err();
                    assert_eq!(err.at, 0, "{err}");
                }
            })
            .expect("spawn")
            .join()
            .expect("no overflow, no panic");
    }
}
