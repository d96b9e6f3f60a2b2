//! The oracle for `wire.rs`: the codec it replaced — encode by building a
//! `serde::Value` tree, decode by parsing one and looking fields up —
//! kept verbatim, test-only, so the streaming codec is held to it byte
//! for byte on encode and outcome for outcome on decode. It lives beside
//! `wire.rs` rather than in it because the benchmark compiles that file
//! by path with neither `proptest` nor a use for a second codec.

use crate::wire::{decode_datagram, encode_datagram};
use kautz::KautzId;
use proptest::prelude::*;
use refer::{DataFrame, ReferMsg};
use refer_obs::{encode_frame, FrameDecoder, FrameError};
use serde::{json, Error, Value};
use wsan_sim::{DataId, EnergyAccount, Message, NodeId};

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn tagged(tag: &str, body: Value) -> Value {
    map(vec![(tag, body)])
}

fn node(n: NodeId) -> Value {
    Value::U64(u64::from(n.0))
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, Error> {
    v.get(key).ok_or_else(|| Error::msg(format!("missing field {key:?}")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, Error> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| Error::msg(format!("field {key:?} is not an unsigned integer")))
}

fn get_node(v: &Value, key: &str) -> Result<NodeId, Error> {
    let raw = get_u64(v, key)?;
    u32::try_from(raw)
        .map(NodeId)
        .map_err(|_| Error::msg(format!("field {key:?} out of NodeId range: {raw}")))
}

fn get_u8(v: &Value, key: &str) -> Result<u8, Error> {
    let raw = get_u64(v, key)?;
    u8::try_from(raw).map_err(|_| Error::msg(format!("field {key:?} out of u8 range: {raw}")))
}

fn kid_value(kid: &KautzId) -> Value {
    map(vec![
        ("digits", Value::Seq(kid.digits().iter().map(|&d| Value::U64(u64::from(d))).collect())),
        ("degree", Value::U64(u64::from(kid.degree()))),
    ])
}

fn parse_kid(v: &Value) -> Result<KautzId, Error> {
    let digits = get(v, "digits")?
        .as_seq()
        .ok_or_else(|| Error::msg("field \"digits\" is not a sequence"))?
        .iter()
        .map(|d| {
            d.as_u64()
                .and_then(|d| u8::try_from(d).ok())
                .ok_or_else(|| Error::msg("KID digit out of range"))
        })
        .collect::<Result<Vec<u8>, Error>>()?;
    let degree = get_u8(v, "degree")?;
    KautzId::new(digits, degree).map_err(|e| Error::msg(format!("invalid KID on the wire: {e}")))
}

fn frame_value(frame: &DataFrame) -> Value {
    let mut fields = vec![
        ("data", Value::U64(frame.data.0)),
        ("dest_cell", Value::U64(frame.dest_cell as u64)),
        ("dest_kid", kid_value(&frame.dest_kid)),
    ];
    if let Some(forced) = frame.forced {
        fields.push(("forced", Value::U64(u64::from(forced))));
    }
    fields.push(("appended", Value::U64(u64::from(frame.appended))));
    fields.push(("hops", Value::U64(u64::from(frame.hops))));
    map(fields)
}

fn parse_frame(v: &Value) -> Result<DataFrame, Error> {
    Ok(DataFrame {
        data: DataId(get_u64(v, "data")?),
        dest_cell: get_u64(v, "dest_cell")? as usize,
        dest_kid: parse_kid(get(v, "dest_kid")?)?,
        forced: match v.get("forced") {
            Some(f) => Some(
                f.as_u64()
                    .and_then(|f| u8::try_from(f).ok())
                    .ok_or_else(|| Error::msg("field \"forced\" out of u8 range"))?,
            ),
            None => None,
        },
        appended: get_u8(v, "appended")?,
        hops: get_u8(v, "hops")?,
    })
}

fn payload_value(msg: &ReferMsg) -> Value {
    match msg {
        ReferMsg::Ctrl => tagged("Ctrl", Value::Null),
        ReferMsg::Assignment => tagged("Assignment", Value::Null),
        ReferMsg::PathQuery { qid, ttl, target, path } => tagged(
            "PathQuery",
            map(vec![
                ("qid", Value::U64(*qid)),
                ("ttl", Value::U64(u64::from(*ttl))),
                ("target", node(*target)),
                (
                    "path",
                    Value::Seq(
                        path.iter()
                            .map(|&(n, battery)| {
                                Value::Seq(vec![node(n), Value::F64(battery)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ReferMsg::PathAssign { assignments, hop } => tagged(
            "PathAssign",
            map(vec![
                (
                    "assignments",
                    Value::Seq(
                        assignments
                            .iter()
                            .map(|(n, kid)| Value::Seq(vec![node(*n), kid_value(kid)]))
                            .collect(),
                    ),
                ),
                ("hop", Value::U64(*hop as u64)),
            ]),
        ),
        ReferMsg::StartStage2 { qid, target } => tagged(
            "StartStage2",
            map(vec![("qid", Value::U64(*qid)), ("target", node(*target))]),
        ),
        ReferMsg::CellReady => tagged("CellReady", Value::Null),
        ReferMsg::Beacon => tagged("Beacon", Value::Null),
        ReferMsg::Gossip { accused } => tagged(
            "Gossip",
            map(vec![("accused", Value::Seq(accused.iter().map(|&n| node(n)).collect()))]),
        ),
        ReferMsg::Probe => tagged("Probe", Value::Null),
        ReferMsg::Replace => tagged("Replace", Value::Null),
        ReferMsg::ReplaceNotice => tagged("ReplaceNotice", Value::Null),
        ReferMsg::Data(frame) => tagged("Data", frame_value(frame)),
    }
}

fn parse_pair<'v>(v: &'v Value, what: &str) -> Result<(&'v Value, &'v Value), Error> {
    match v.as_seq() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(Error::msg(format!("{what} is not a 2-element sequence"))),
    }
}

fn parse_payload(v: &Value) -> Result<ReferMsg, Error> {
    let entries = v.as_map().ok_or_else(|| Error::msg("payload is not a map"))?;
    let [(tag, body)] = entries else {
        return Err(Error::msg("payload must have exactly one variant tag"));
    };
    match tag.as_str() {
        "Ctrl" => Ok(ReferMsg::Ctrl),
        "Assignment" => Ok(ReferMsg::Assignment),
        "PathQuery" => Ok(ReferMsg::PathQuery {
            qid: get_u64(body, "qid")?,
            ttl: get_u8(body, "ttl")?,
            target: get_node(body, "target")?,
            path: get(body, "path")?
                .as_seq()
                .ok_or_else(|| Error::msg("field \"path\" is not a sequence"))?
                .iter()
                .map(|entry| {
                    let (n, battery) = parse_pair(entry, "path entry")?;
                    let n = n
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| Error::msg("path node out of range"))?;
                    let battery =
                        battery.as_f64().ok_or_else(|| Error::msg("path battery not a number"))?;
                    Ok((NodeId(n), battery))
                })
                .collect::<Result<Vec<_>, Error>>()?,
        }),
        "PathAssign" => Ok(ReferMsg::PathAssign {
            assignments: get(body, "assignments")?
                .as_seq()
                .ok_or_else(|| Error::msg("field \"assignments\" is not a sequence"))?
                .iter()
                .map(|entry| {
                    let (n, kid) = parse_pair(entry, "assignment entry")?;
                    let n = n
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| Error::msg("assignment node out of range"))?;
                    Ok((NodeId(n), parse_kid(kid)?))
                })
                .collect::<Result<Vec<_>, Error>>()?,
            hop: get_u64(body, "hop")? as usize,
        }),
        "StartStage2" => Ok(ReferMsg::StartStage2 {
            qid: get_u64(body, "qid")?,
            target: get_node(body, "target")?,
        }),
        "CellReady" => Ok(ReferMsg::CellReady),
        "Beacon" => Ok(ReferMsg::Beacon),
        "Gossip" => Ok(ReferMsg::Gossip {
            accused: get(body, "accused")?
                .as_seq()
                .ok_or_else(|| Error::msg("field \"accused\" is not a sequence"))?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .map(NodeId)
                        .ok_or_else(|| Error::msg("accused node out of range"))
                })
                .collect::<Result<Vec<_>, Error>>()?,
        }),
        "Probe" => Ok(ReferMsg::Probe),
        "Replace" => Ok(ReferMsg::Replace),
        "ReplaceNotice" => Ok(ReferMsg::ReplaceNotice),
        "Data" => Ok(ReferMsg::Data(parse_frame(body)?)),
        other => Err(Error::msg(format!("unknown payload variant {other:?}"))),
    }
}

/// The `Value`-built encoder `wire::encode_datagram` replaced.
fn oracle_encode(to: NodeId, created_us: u64, msg: &Message<ReferMsg>) -> Vec<u8> {
    let envelope = map(vec![
        ("to", node(to)),
        ("created_us", Value::U64(created_us)),
        ("from", node(msg.from)),
        ("size_bits", Value::U64(u64::from(msg.size_bits))),
        ("account", Value::Str(refer_obs::account_str(msg.account).to_string())),
        ("broadcast", Value::Bool(msg.broadcast)),
        ("payload", payload_value(&msg.payload)),
    ]);
    encode_frame(json::to_string(&envelope).as_bytes())
}

/// The tree-based decoder `wire::decode_datagram` replaced.
fn oracle_decode(bytes: &[u8]) -> Result<(NodeId, u64, Message<ReferMsg>), Error> {
    let mut decoder = FrameDecoder::default();
    decoder.feed(bytes);
    let payload = match decoder.next_frame() {
        Ok(Some(p)) => p,
        Ok(None) => return Err(Error::msg("truncated datagram: incomplete frame")),
        Err(FrameError::Oversize { declared }) => {
            return Err(Error::msg(format!("oversize frame on the wire: {declared} bytes")))
        }
    };
    if !decoder.is_empty() {
        return Err(Error::msg("trailing bytes after frame in datagram"));
    }
    let text = std::str::from_utf8(&payload).map_err(|_| Error::msg("frame is not UTF-8"))?;
    let v = json::from_str(text)?;
    let to = get_node(&v, "to")?;
    let created_us = get_u64(&v, "created_us")?;
    let account = match get(&v, "account")?.as_str() {
        Some("construction") => EnergyAccount::Construction,
        Some("communication") => EnergyAccount::Communication,
        other => return Err(Error::msg(format!("unknown energy account {other:?}"))),
    };
    let msg = Message {
        from: get_node(&v, "from")?,
        size_bits: u32::try_from(get_u64(&v, "size_bits")?)
            .map_err(|_| Error::msg("size_bits out of u32 range"))?,
        account,
        broadcast: get(&v, "broadcast")?
            .as_bool()
            .ok_or_else(|| Error::msg("field \"broadcast\" is not a bool"))?,
        payload: parse_payload(get(&v, "payload")?)?,
    };
    Ok((to, created_us, msg))
}

type Decoded = Result<(NodeId, u64, Message<ReferMsg>), Error>;

/// `ReferMsg` has no `PartialEq`; the `Debug` form is a faithful
/// structural fingerprint (and prints every NaN alike).
fn outcome(decoded: Decoded) -> Result<String, ()> {
    decoded.map(|d| format!("{d:?}")).map_err(|_| ())
}

/// Both decoders on `bytes`: same verdict, same value. Returns the verdict.
fn agree(bytes: &[u8]) -> bool {
    let new = outcome(decode_datagram(bytes));
    let old = outcome(oracle_decode(bytes));
    assert_eq!(new, old, "decoders disagree on {:?}", String::from_utf8_lossy(bytes));
    new.is_ok()
}

fn agree_json(json: &str) -> bool {
    agree(&encode_frame(json.as_bytes()))
}

fn kid(digits: &[u8], degree: u8) -> KautzId {
    KautzId::new(digits.to_vec(), degree).expect("valid KID")
}

fn data(forced: Option<u8>) -> ReferMsg {
    ReferMsg::Data(DataFrame {
        data: DataId(0x0000_0005_0000_002a),
        dest_cell: 2,
        dest_kid: kid(&[0, 1, 2], 2),
        forced,
        appended: 3,
        hops: 9,
    })
}

/// Every variant, and within the variants that carry data the edges:
/// empty vectors, `forced` absent, ids at `u64::MAX`/`u32::MAX`, batteries
/// that print as `null`, in exponent form either side, negative zero.
fn samples() -> Vec<(NodeId, u64, Message<ReferMsg>)> {
    let payloads = vec![
        ReferMsg::Ctrl,
        ReferMsg::Assignment,
        ReferMsg::PathQuery {
            qid: 42,
            ttl: 3,
            target: NodeId(9),
            path: vec![(NodeId(1), 95.5), (NodeId(2), 80.25)],
        },
        ReferMsg::PathQuery {
            qid: u64::MAX,
            ttl: u8::MAX,
            target: NodeId(u32::MAX),
            path: vec![
                (NodeId(0), f64::NAN),
                (NodeId(1), 1e-7),
                (NodeId(2), 1e21),
                (NodeId(3), -0.0),
                (NodeId(4), f64::INFINITY),
                (NodeId(5), 100.0),
            ],
        },
        ReferMsg::PathQuery { qid: 0, ttl: 0, target: NodeId(0), path: vec![] },
        ReferMsg::PathAssign {
            assignments: vec![(NodeId(4), kid(&[0, 1], 2)), (NodeId(5), kid(&[1, 2], 2))],
            hop: 1,
        },
        ReferMsg::PathAssign { assignments: vec![], hop: usize::MAX },
        ReferMsg::StartStage2 { qid: 7, target: NodeId(11) },
        ReferMsg::CellReady,
        ReferMsg::Beacon,
        ReferMsg::Gossip { accused: vec![NodeId(3), NodeId(8)] },
        ReferMsg::Gossip { accused: vec![] },
        ReferMsg::Probe,
        ReferMsg::Replace,
        ReferMsg::ReplaceNotice,
        data(Some(1)),
        data(None),
        ReferMsg::Data(DataFrame {
            data: DataId(u64::MAX),
            dest_cell: usize::MAX,
            dest_kid: kid(&[255, 254, 255, 0], 255),
            forced: Some(u8::MAX),
            appended: u8::MAX,
            hops: u8::MAX,
        }),
    ];
    let mut out = Vec::new();
    for (i, payload) in payloads.into_iter().enumerate() {
        // Alternate the envelope's own edges across the variants.
        let edge = i % 2 == 1;
        out.push((
            NodeId(if edge { u32::MAX } else { 3 }),
            if edge { u64::MAX } else { 12_345 },
            Message {
                from: NodeId(if edge { 0 } else { 7 }),
                size_bits: if edge { u32::MAX } else { 1024 },
                account: if edge {
                    EnergyAccount::Construction
                } else {
                    EnergyAccount::Communication
                },
                broadcast: edge,
                payload,
            },
        ));
    }
    out
}

#[test]
fn encoder_is_byte_equal_to_the_tree_encoder_on_every_variant() {
    let mut variants = std::collections::BTreeSet::new();
    for (to, created_us, msg) in samples() {
        let wire = encode_datagram(to, created_us, &msg);
        assert_eq!(
            String::from_utf8_lossy(&wire),
            String::from_utf8_lossy(&oracle_encode(to, created_us, &msg)),
            "{msg:?}"
        );
        let tag = format!("{:?}", msg.payload);
        variants.insert(tag.split([' ', '(', '{']).next().expect("tag").to_string());
        // And what it writes, both decoders read back as what was sent.
        assert!(agree(&wire));
        let (got_to, got_created, got) = decode_datagram(&wire).expect("decodes");
        assert_eq!((got_to, got_created), (to, created_us));
        // (Any non-finite battery travels as `null` and reads back NaN.)
        assert_eq!(format!("{got:?}"), format!("{msg:?}").replace("inf", "NaN"));
    }
    assert_eq!(variants.len(), 12, "every ReferMsg variant sampled: {variants:?}");
}

/// Replacement bytes for the mutation sweep: every structural byte of
/// JSON, digits and number punctuation, the letters literals and escapes
/// start with, whitespace, a control byte, and bytes that break UTF-8.
const MUTANTS: &[u8] = b"\"\\{}[],:09-+.eEntfu a\n\x00\x7f\x80\xc3\xff";

#[test]
fn decoder_agrees_with_the_tree_decoder_under_mutation_and_truncation() {
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut tally = |ok: bool| if ok { accepted += 1 } else { rejected += 1 };
    for (to, created_us, msg) in samples() {
        let wire = encode_datagram(to, created_us, &msg);
        // Every single-byte mutation, length header included.
        for at in 0..wire.len() {
            let original = wire[at];
            let flips = [original ^ 0x01, original ^ 0x20, original.wrapping_add(1)];
            for &mutant in MUTANTS.iter().chain(&flips) {
                if mutant != original {
                    let mut mutated = wire.clone();
                    mutated[at] = mutant;
                    tally(agree(&mutated));
                }
            }
        }
        // Every prefix of the datagram (a torn frame), and every prefix of
        // the JSON under a header that matches it (a torn document).
        for cut in 0..wire.len() {
            tally(agree(&wire[..cut]));
            if cut >= 4 {
                tally(agree(&encode_frame(&wire[4..cut])));
            }
        }
        // One byte deleted, one byte doubled, under a matching header.
        for at in 4..wire.len() {
            let mut deleted = wire[4..].to_vec();
            deleted.remove(at - 4);
            tally(agree(&encode_frame(&deleted)));
            let mut doubled = wire[4..].to_vec();
            doubled.insert(at - 4, wire[at]);
            tally(agree(&encode_frame(&doubled)));
        }
    }
    // The sweep is only evidence if it lands on both sides of the line.
    assert!(accepted > 1_000, "mutants that still decode: {accepted}");
    assert!(rejected > 50_000, "mutants that are rejected: {rejected}");
}

const BEACON: &str = r#"{"to":3,"created_us":12345,"from":7,"size_bits":1024,"account":"communication","broadcast":false,"payload":{"Beacon":null}}"#;

#[test]
fn decoder_keeps_every_leniency_of_the_tree_decoder() {
    let canonical = outcome(decode_datagram(&encode_frame(BEACON.as_bytes()))).expect("decodes");
    let same_as_canonical = |json: &str| {
        assert!(agree_json(json), "{json}");
        let got = outcome(decode_datagram(&encode_frame(json.as_bytes())));
        assert_eq!(got.as_ref(), Ok(&canonical), "{json}");
    };
    // Any key order.
    same_as_canonical(
        r#"{"payload":{"Beacon":null},"broadcast":false,"account":"communication","size_bits":1024,"from":7,"created_us":12345,"to":3}"#,
    );
    // Whitespace anywhere JSON allows it, trailing included.
    same_as_canonical(
        " {\n\t\"to\" : 3 ,\r\n \"created_us\":12345, \"from\" :7,\"size_bits\": 1024 , \"account\" : \"communication\",\"broadcast\" : false , \"payload\" : { \"Beacon\" : null } } \n",
    );
    // Escaped keys, escaped string values, escaped variant tags.
    same_as_canonical(
        r#"{"t\u006f":3,"created\u005fus":12345,"\u0066rom":7,"size_bits":1024,"account":"c\u006fmmunicati\u006Fn","broadcast":false,"payl\/oad":0,"payload":{"Beac\u006fn":null}}"#,
    );
    // The first of duplicate keys wins, whatever the later ones hold.
    same_as_canonical(
        r#"{"to":3,"to":4,"created_us":12345,"from":7,"size_bits":1024,"account":"communication","account":"nope","broadcast":false,"payload":{"Beacon":null},"payload":{"Nope":1},"to":"x","from":{"deep":[1,2]},"size_bits":-1}"#,
    );
    // Unknown keys are ignored at every level, nested values included.
    same_as_canonical(
        r#"{"v":2,"to":3,"ext":{"a":[1,{"b":"}]"}],"c":null},"created_us":12345,"from":7,"size_bits":1024,"account":"communication","broadcast":false,"payload":{"Beacon":{"ignored":[true]}},"tail":"é\\"}"#,
    );
    // Integral floats are integers.
    same_as_canonical(
        r#"{"to":3.0,"created_us":1.2345e4,"from":7e0,"size_bits":1.024e3,"account":"communication","broadcast":false,"payload":{"Beacon":null}}"#,
    );

    // Inside payloads: reordered, duplicated and unknown nested keys,
    // integral floats for digits, a `null` battery reading as NaN.
    let envelope = |payload: &str| BEACON.replace(r#"{"Beacon":null}"#, payload);
    for payload in [
        r#"{"Data":{"hops":9,"appended":3.0,"x":{"y":[]},"dest_kid":{"degree":2,"digits":[0,1.0,2],"digits":[9,9]},"dest_cell":2,"data":21474836522,"data":1}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"forced":2,"forced":300,"appended":0,"hops":0}}"#,
        r#"{"PathQuery":{"path":[[1,null],[2,80],[3,-1],[4,1e400]],"target":9,"ttl":3,"qid":42,"qid":"x"}}"#,
        r#"{"PathAssign":{"hop":1,"assignments":[[4,{"degree":2,"digits":[0,1]}],[5,{"digits":[1,2],"degree":2,"k":0}]]}}"#,
        r#"{"StartStage2":{"target":11,"qid":7,"target":"later"}}"#,
        r#"{"Gossip":{"accused":[3,8.0],"accused":7}}"#,
        r#"{"Ctrl":{"qid":"ignored"}}"#,
        r#"{"Probe":[[[]]]}"#,
    ] {
        assert!(agree_json(&envelope(payload)), "{payload}");
    }
    let (_, _, got) = decode_datagram(&encode_frame(
        envelope(r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[1,null]]}}"#).as_bytes(),
    ))
    .expect("decodes");
    assert!(
        matches!(got.payload, ReferMsg::PathQuery { ref path, .. } if path[0].1.is_nan()),
        "a null battery is NaN: {got:?}"
    );
}

#[test]
fn decoder_keeps_every_rejection_of_the_tree_decoder() {
    let rejected = |json: &str| assert!(!agree_json(json), "must be rejected: {json}");
    let envelope = |payload: &str| BEACON.replace(r#"{"Beacon":null}"#, payload);

    // Missing envelope fields, one at a time.
    for key in ["to", "created_us", "from", "size_bits", "account", "broadcast", "payload"] {
        rejected(&BEACON.replace(&format!("\"{key}\""), "\"other\""));
    }
    // Out-of-range and wrong-typed envelope fields.
    for (from, to) in [
        (r#""to":3"#, r#""to":4294967296"#),
        (r#""to":3"#, r#""to":-1"#),
        (r#""to":3"#, r#""to":3.5"#),
        (r#""to":3"#, r#""to":"3""#),
        (r#""to":3"#, r#""to":null"#),
        (r#""to":3"#, r#""to":[3]"#),
        (r#""to":3"#, r#""to":"x","to":3"#),
        (r#""created_us":12345"#, r#""created_us":-5"#),
        (r#""created_us":12345"#, r#""created_us":true"#),
        (r#""from":7"#, r#""from":1e10"#),
        (r#""size_bits":1024"#, r#""size_bits":4294967296"#),
        (r#""account":"communication""#, r#""account":"Communication""#),
        (r#""account":"communication""#, r#""account":1"#),
        (r#""account":"communication""#, r#""account":null"#),
        (r#""broadcast":false"#, r#""broadcast":0"#),
        (r#""broadcast":false"#, r#""broadcast":"false""#),
        (r#""broadcast":false"#, r#""broadcast":null"#),
    ] {
        assert!(BEACON.contains(from));
        rejected(&BEACON.replace(from, to));
    }
    // The payload: no tag, two tags, the same tag twice, an unknown tag,
    // not an object.
    for payload in [
        "{}",
        r#"{"Beacon":null,"Ctrl":null}"#,
        r#"{"Beacon":null,"Beacon":null}"#,
        r#"{"Nope":null}"#,
        r#"{"beacon":null}"#,
        r#"{"Nope":null,"Beacon":null}"#,
        "null",
        r#""Beacon""#,
        r#"["Beacon"]"#,
        // Bodies: missing fields, ranges, shapes.
        r#"{"Data":null}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"appended":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"appended":256,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"forced":null,"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"forced":256,"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":-1,"dest_cell":2,"dest_kid":{"digits":[0,1,2],"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,256],"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,1],"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1,3],"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[],"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":[0,1],"degree":0},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"digits":7,"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":{"degree":2},"appended":0,"hops":0}}"#,
        r#"{"Data":{"data":1,"dest_cell":2,"dest_kid":[0,1,2],"appended":0,"hops":0}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":256,"target":1,"path":[]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[1]]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[1,2,3]]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[1,"full"]]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[1,true]]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[[4294967296,1]]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":[{"n":1}]}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1,"path":{}}}"#,
        r#"{"PathQuery":{"qid":1,"ttl":1,"target":1}}"#,
        r#"{"PathAssign":{"assignments":[[4,{"digits":[0,0],"degree":2}]],"hop":1}}"#,
        r#"{"PathAssign":{"assignments":[[4]],"hop":1}}"#,
        r#"{"PathAssign":{"assignments":[],"hop":-1}}"#,
        r#"{"PathAssign":{"assignments":[]}}"#,
        r#"{"StartStage2":{"qid":7}}"#,
        r#"{"StartStage2":[7,11]}"#,
        r#"{"Gossip":{"accused":[3,4294967296]}}"#,
        r#"{"Gossip":{"accused":[3,"8"]}}"#,
        r#"{"Gossip":{}}"#,
    ] {
        rejected(&envelope(payload));
    }
    // A KID longer than an identifier holds, in both places one travels
    // (at exactly `MAX_K` digits it still decodes).
    let kid_of = |len: usize| {
        let digits: Vec<String> = (0..len).map(|i| (i % 2).to_string()).collect();
        format!(r#"{{"digits":[{}],"degree":2}}"#, digits.join(","))
    };
    let data_to = |kid: &str| {
        envelope(&format!(
            r#"{{"Data":{{"data":1,"dest_cell":2,"dest_kid":{kid},"appended":0,"hops":0}}}}"#
        ))
    };
    assert!(agree_json(&data_to(&kid_of(KautzId::MAX_K))));
    for len in [KautzId::MAX_K + 1, 64, 10_000] {
        rejected(&data_to(&kid_of(len)));
        rejected(&envelope(&format!(
            r#"{{"PathAssign":{{"assignments":[[4,{}]],"hop":0}}}}"#,
            kid_of(len)
        )));
    }
    // The document: not an object, empty, torn, bad syntax in a part no
    // field lookup would ever visit, trailing data inside the frame.
    for json in [
        "",
        " ",
        "null",
        "[]",
        r#"["to",3]"#,
        &BEACON[..BEACON.len() - 1],
        &format!("{BEACON}}}"),
        &format!("{BEACON} x"),
        &format!("{BEACON}{BEACON}"),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":nul}"#),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":[1,]}"#),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":{"a":1,}}"#),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":"\x"}"#),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":"\ud800"}"#),
        &BEACON.replace(r#"{"Beacon":null}"#, r#"{"Beacon":1.2.3}"#),
        &BEACON.replace(r#""to":3,"#, r#""to":3,,"#),
        &BEACON.replace(r#""to":3,"#, r#""to":3 "#),
        &BEACON.replace(r#""to":3,"#, r#""to"3,"#),
        &BEACON.replace(r#""to":3,"#, r#"to:3,"#),
        &BEACON.replace(r#""to":3,"#, r#""to":3,"dup":{"to":"#),
    ] {
        rejected(json);
    }
    // The frame: not UTF-8 (in a skipped string, in a key, between
    // tokens), trailing bytes, a torn header, an oversize header.
    let mut bad_utf8 = BEACON.replace(r#""to":3,"#, r#""to":3,"x":"??","#).into_bytes();
    let at = bad_utf8.iter().position(|&b| b == b'?').expect("placeholder");
    bad_utf8[at..at + 2].copy_from_slice(&[0xc3, 0x28]);
    assert!(!agree(&encode_frame(&bad_utf8)));
    bad_utf8[at..at + 2].copy_from_slice(&[0xe2, 0x82]);
    assert!(!agree(&encode_frame(&bad_utf8)));
    let mut bare = BEACON.as_bytes().to_vec();
    bare.insert(1, 0xff);
    assert!(!agree(&encode_frame(&bare)));
    let good = encode_frame(BEACON.as_bytes());
    assert!(agree(&good));
    assert!(!agree(&[good.as_slice(), &[0]].concat()));
    assert!(!agree(&[good.as_slice(), good.as_slice()].concat()));
    assert!(!agree(&good[..3]));
    assert!(!agree(&[]));
    assert!(!agree(&[&u32::MAX.to_le_bytes()[..], BEACON.as_bytes()].concat()));
    assert!(!agree(&[&(BEACON.len() as u32 + 1).to_le_bytes()[..], BEACON.as_bytes()].concat()));
    assert!(!agree(&[&(BEACON.len() as u32 - 1).to_le_bytes()[..], BEACON.as_bytes()].concat()));
}

/// A sample datagram with `edits` applied to its JSON, re-framed so the
/// header still matches: random damage that reaches the parser.
fn damaged(sample: usize, edits: &[(usize, u8)]) -> Vec<u8> {
    let samples = samples();
    let (to, created_us, msg) = &samples[sample % samples.len()];
    let mut json = encode_datagram(*to, *created_us, msg).split_off(4);
    for &(at, byte) in edits {
        let at = at % json.len();
        json[at] = byte;
    }
    encode_frame(&json)
}

proptest! {
    #[test]
    fn random_bytes_never_panic_and_never_split_the_decoders(
        raw in prop::collection::vec(0u8..=255, 0..300),
        sample in 0usize..64,
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..6),
    ) {
        agree(&raw);
        agree(&encode_frame(&raw));
        agree(&damaged(sample, &edits));
    }
}
