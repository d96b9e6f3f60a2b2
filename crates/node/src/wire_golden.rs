//! What holds `wire.rs` to its layout: the committed bytes of every
//! [`ReferMsg`] variant and of each field's edges, the mutation corpus
//! those bytes generate, and property tests over random bytes and random
//! messages. It lives beside `wire.rs` rather than in it because the
//! benchmark compiles that file by path and has no `proptest`.
//!
//! The test binary's allocator counts per thread, so a test can say how
//! many allocations a call made.

use crate::wire::{decode_datagram, encode_datagram, Reason, FORMAT};
use kautz::KautzId;
use proptest::prelude::*;
use proptest::strategy::Just;
use refer::{DataFrame, ReferMsg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsan_sim::{DataId, EnergyAccount, Message, NodeId};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one callers rely on; the counter
// is a const-initialised thread-local `Cell`, so bumping it neither
// allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the heap allocations (reallocations included) it
/// made on this thread.
pub(crate) fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

type Datagram = (NodeId, u64, Message<ReferMsg>);

fn kid(digits: &[u8], degree: u8) -> KautzId {
    KautzId::new(digits.to_vec(), degree).expect("valid KID")
}

fn data(data: u64, dest_kid: KautzId, forced: Option<u8>) -> ReferMsg {
    ReferMsg::Data(DataFrame { data: DataId(data), dest_cell: 2, dest_kid, forced, appended: 3, hops: 9 })
}

/// Every variant, and within the variants that carry data the edges:
/// empty vectors, `forced` absent and present, ids at `u64::MAX` and
/// `u32::MAX`, a `MAX_K`-digit KID, batteries that are not plain numbers.
fn samples() -> Vec<Datagram> {
    let longest: Vec<u8> = (0..KautzId::MAX_K).map(|i| (i % 3) as u8).collect();
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
                (NodeId(2), f64::NEG_INFINITY),
                (NodeId(3), -0.0),
                (NodeId(4), f64::INFINITY),
                (NodeId(u32::MAX), 100.0),
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
        ReferMsg::Gossip { accused: vec![NodeId(3), NodeId(128), NodeId(u32::MAX)] },
        ReferMsg::Gossip { accused: vec![] },
        ReferMsg::Probe,
        ReferMsg::Replace,
        ReferMsg::ReplaceNotice,
        data(0x0000_0005_0000_002a, kid(&[0, 1, 2], 2), Some(1)),
        data(0x0000_0005_0000_002a, kid(&[0, 1, 2], 2), None),
        data(u64::MAX, kid(&longest, 2), Some(0)),
        ReferMsg::Data(DataFrame {
            data: DataId(u64::MAX),
            dest_cell: usize::MAX,
            dest_kid: kid(&[255, 254, 255, 0], 255),
            forced: Some(u8::MAX),
            appended: u8::MAX,
            hops: u8::MAX,
        }),
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            // Alternate the envelope's own edges across the variants.
            let edge = i % 2 == 1;
            let msg = Message {
                from: NodeId(if edge { 0 } else { 7 }),
                size_bits: if edge { u32::MAX } else { 1024 },
                account: if edge { EnergyAccount::Construction } else { EnergyAccount::Communication },
                broadcast: edge,
                payload,
            };
            (NodeId(if edge { u32::MAX } else { 3 }), if edge { u64::MAX } else { 12_345 }, msg)
        })
        .collect()
}

/// [`samples`] as committed bytes, one hex string each. A change here is
/// a change of the wire format: every daemon of a cluster must move with
/// it.
const GOLDEN: &[&str] = &[
    // Ctrl
    "b103b9600780080100",
    // Assignment
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f0201",
    // PathQuery
    "b103b96007800801022a030902010000000000e05740020000000000105440",
    // PathQuery, edges and odd batteries
    concat!(
        "b1ffffffff0fffffffffffffffffff0100ffffffff0f0202ffffffffffffffffff01ffffffffff0f",
        "0600000000000000f87f0148afbc9af2d77a3e02000000000000f0ff030000000000000080040000",
        "00000000f07fffffffff0f0000000000005940",
    ),
    // PathQuery, empty
    "b103b960078008010200000000",
    // PathAssign
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f0203020402020001050202010201",
    // PathAssign, empty
    "b103b960078008010300ffffffffffffffffff01",
    // StartStage2
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f0204070b",
    // CellReady
    "b103b9600780080105",
    // Beacon
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f0206",
    // Gossip
    "b103b960078008010703038001ffffffff0f",
    // Gossip, empty
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f020700",
    // Probe
    "b103b9600780080108",
    // Replace
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f0209",
    // ReplaceNotice
    "b103b960078008010a",
    // Data, forced
    "b1ffffffff0fffffffffffffffffff0100ffffffff0f020baa8080805002020300010201010309",
    // Data, unforced
    "b103b960078008010baa80808050020203000102000309",
    // Data, MAX_K-digit KID
    concat!(
        "b1ffffffff0fffffffffffffffffff0100ffffffff0f020bffffffffffffffffff01020216000102",
        "0001020001020001020001020001020001020001000309",
    ),
    // Data, every field at its maximum
    "b103b960078008010bffffffffffffffffff01ffffffffffffffffff01ff04fffeff0001ffffff",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex")).collect()
}

/// A decoded datagram must re-encode to exactly the bytes it came from.
fn canonical(bytes: &[u8]) -> bool {
    match decode_datagram(bytes) {
        Ok((to, created_us, msg)) => {
            assert_eq!(encode_datagram(to, created_us, &msg), bytes, "{msg:?}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn golden_bytes_pin_every_variant_and_edge() {
    let samples = samples();
    let encoded: Vec<String> =
        samples.iter().map(|(to, created_us, msg)| hex(&encode_datagram(*to, *created_us, msg))).collect();
    assert_eq!(encoded, GOLDEN, "the wire format changed");
    let mut variants = std::collections::BTreeSet::new();
    for ((to, created_us, msg), golden) in samples.iter().zip(GOLDEN) {
        let (got_to, got_created, got) = decode_datagram(&unhex(golden)).expect("decodes");
        assert_eq!((got_to, got_created), (*to, *created_us));
        assert_eq!(format!("{got:?}"), format!("{msg:?}"));
        assert!(canonical(&unhex(golden)), "bit-exact batteries included");
        variants.insert(format!("{:?}", msg.payload).split([' ', '(', '{']).next().map(str::to_string));
    }
    assert_eq!(variants.len(), 12, "every ReferMsg variant sampled: {variants:?}");
}

#[test]
fn encoding_allocates_exactly_once() {
    for (to, created_us, msg) in samples() {
        let (_, allocations) = allocations(|| encode_datagram(to, created_us, &msg));
        assert_eq!(allocations, 1, "{msg:?}");
    }
}

/// Every single-byte replacement, truncation, deletion and doubling of
/// every golden datagram either errors or decodes to a message that
/// re-encodes to exactly the mutated bytes — and none panics.
#[test]
fn every_mutation_of_a_golden_datagram_errors_or_is_canonical() {
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut tally = |bytes: &[u8]| if canonical(bytes) { accepted += 1 } else { rejected += 1 };
    for golden in GOLDEN {
        let wire = unhex(golden);
        for at in 0..wire.len() {
            for byte in 0..=u8::MAX {
                if byte != wire[at] {
                    let mut mutated = wire.clone();
                    mutated[at] = byte;
                    tally(&mutated);
                }
            }
            let mut deleted = wire.clone();
            deleted.remove(at);
            tally(&deleted);
            let mut doubled = wire.clone();
            doubled.insert(at, wire[at]);
            tally(&doubled);
        }
        for cut in 0..wire.len() {
            // No datagram is a prefix of another: a cut one is torn, or
            // its counts no longer fit what is left.
            let err = decode_datagram(&wire[..cut]).expect_err("torn");
            assert!(matches!(err.reason, Reason::Truncated | Reason::Count(_)), "{err}");
        }
    }
    // The sweep is only evidence if it lands on both sides of the line.
    assert!(accepted > 50_000, "mutants that still decode: {accepted}");
    assert!(rejected > 50_000, "mutants that are rejected: {rejected}");
}

fn node() -> impl Strategy<Value = NodeId> {
    prop_oneof![0u32..300, 0u32..=u32::MAX].prop_map(NodeId)
}

fn u64s() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..300, 0u64..=u64::MAX]
}

fn battery() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

/// A valid KID of any degree and length: each raw digit folded into the
/// alphabet and bumped off its predecessor.
fn any_kid() -> impl Strategy<Value = KautzId> {
    (1u8..=u8::MAX, prop::collection::vec(0u8..=u8::MAX, 1..=KautzId::MAX_K)).prop_map(
        |(degree, raw)| {
            let alphabet = u16::from(degree) + 1;
            let mut digits: Vec<u8> = Vec::with_capacity(raw.len());
            for r in raw {
                let mut digit = u16::from(r) % alphabet;
                if digits.last().map(|&d| u16::from(d)) == Some(digit) {
                    digit = (digit + 1) % alphabet;
                }
                digits.push(digit as u8);
            }
            KautzId::new(digits, degree).expect("valid by construction")
        },
    )
}

fn payload() -> impl Strategy<Value = ReferMsg> {
    use prop::collection::vec;
    let frame = (u64s(), 0usize..=usize::MAX, any_kid(), (0u8..2, 0u8..=u8::MAX), 0u8..=u8::MAX, 0u8..=u8::MAX);
    prop_oneof![
        Just(ReferMsg::Ctrl),
        Just(ReferMsg::Assignment),
        (u64s(), 0u8..=u8::MAX, node(), vec((node(), battery()), 0..8))
            .prop_map(|(qid, ttl, target, path)| ReferMsg::PathQuery { qid, ttl, target, path }),
        (vec((node(), any_kid()), 0..5), 0usize..=usize::MAX)
            .prop_map(|(assignments, hop)| ReferMsg::PathAssign { assignments, hop }),
        (u64s(), node()).prop_map(|(qid, target)| ReferMsg::StartStage2 { qid, target }),
        Just(ReferMsg::CellReady),
        Just(ReferMsg::Beacon),
        vec(node(), 0..8).prop_map(|accused| ReferMsg::Gossip { accused }),
        Just(ReferMsg::Probe),
        Just(ReferMsg::Replace),
        Just(ReferMsg::ReplaceNotice),
        frame.prop_map(|(data, dest_cell, dest_kid, (some, digit), appended, hops)| {
            let forced = (some == 1).then_some(digit);
            ReferMsg::Data(DataFrame { data: DataId(data), dest_cell, dest_kid, forced, appended, hops })
        }),
    ]
}

proptest! {
    #[test]
    fn random_bytes_never_panic_and_decode_only_canonically(
        raw in prop::collection::vec(0u8..=u8::MAX, 0..48),
        framed in 0u8..2,
    ) {
        // Half the cases get past the format byte.
        let mut bytes = raw;
        if framed == 1 {
            bytes.insert(0, FORMAT);
        }
        canonical(&bytes);
    }

    #[test]
    fn random_messages_round_trip_byte_for_byte(
        to in node(),
        created_us in u64s(),
        from in node(),
        size_bits in prop_oneof![0u32..300, 0u32..=u32::MAX],
        flags in 0u8..4,
        payload in payload(),
    ) {
        let account =
            if flags & 1 == 1 { EnergyAccount::Communication } else { EnergyAccount::Construction };
        let msg = Message { from, size_bits, account, broadcast: flags & 2 == 2, payload };
        let wire = encode_datagram(to, created_us, &msg);
        let (got_to, got_created, got) = decode_datagram(&wire).expect("decodes");
        prop_assert_eq!((got_to, got_created), (to, created_us));
        prop_assert_eq!(format!("{got:?}"), format!("{msg:?}"));
        prop_assert_eq!(encode_datagram(got_to, got_created, &got), wire);
    }
}
