//! The event queue behind the engines: a hierarchical timing wheel,
//! checked against a binary heap in every debug build.
//!
//! # Why a wheel
//!
//! Every event in a run — frame deliveries, ACK expiries, timers, traffic
//! emissions — passes through one priority queue per engine context. A
//! binary heap costs `O(log n)` comparisons *and* `O(log n)` moves of the
//! full [`Scheduled`] element (which carries the message payload inline)
//! per operation; at heavy-traffic scale the queue holds hundreds of
//! thousands of in-flight events and the sift traffic dominates the run.
//! The timing wheel replaces that with `O(1)` bucketed inserts and an
//! amortized-`O(1)` pop driven by occupancy bitmaps.
//!
//! # Layout
//!
//! Time is the simulator's integer microsecond clock ([`SimTime`]). The
//! wheel has [`LEVELS`] = 8 levels of [`SLOTS`] = 256 buckets; level `L`
//! buckets time by bits `[8L, 8L+8)`, so together the levels span the full
//! `u64` time domain and no event is ever out of range. An event lands in
//! the *lowest* level whose bucketing distinguishes it from the current
//! cursor (`level = highest_set_bit(at ^ cursor) / 8`): near-future events
//! go straight into level 0, far-future ones into coarse levels, and each
//! coarse bucket is redistributed ("cascaded") into finer levels when the
//! cursor reaches its span. A level-0 bucket therefore holds events of
//! exactly **one** timestamp, which is what makes ordering exact (below).
//! Per-level occupancy bitmaps (256 bits each) find the next non-empty
//! bucket with a handful of `trailing_zeros` scans instead of a 256-slot
//! walk.
//!
//! The events themselves live in one pool of fixed [`BLOCK`]-event blocks
//! shared by all eight levels. A bucket is a chain of blocks (its head and
//! tail block indices), each block knows how many of its slots are filled
//! and which block comes next, and a drained block goes back on the free
//! list for any bucket of any level to take. So the pool holds at most the
//! events in flight plus one partly filled block per occupied bucket, at
//! the most-loaded moment of the run; how large a bucket once grew does
//! not stay behind it. Inside a block the events are contiguous, so
//! staging and cascading stream through memory a block at a time.
//!
//! # Exact heap equivalence
//!
//! The engines' canonical event order is `(at, seq)` — time, then the
//! sequence key assigned at push ([`Ctx::push`](crate::Ctx::push)). The
//! wheel reproduces the heap's pop order *exactly*, not approximately:
//!
//! * buckets partition events by `at`, and the cursor visits bucket times
//!   in ascending order;
//! * the staged current bucket (all events at `at == cursor`) is kept
//!   sorted by `seq` — one sort when the bucket is staged, and a
//!   binary-search insert for events pushed *at* the cursor time while it
//!   drains (zero-delay self-pushes), which is precisely where a FIFO
//!   bucket would diverge from the heap under the sharded engine's
//!   non-monotone `(home_node << 32 | counter)` sequence keys;
//! * events pushed *behind* the cursor — the sharded engine's
//!   delivery/drop claims, which are allowed to arrive with past
//!   timestamps — fall into a small overflow heap that always pops before
//!   the wheel (its times precede every staged or bucketed time by
//!   construction).
//!
//! # Where the proof lives
//!
//! A `BinaryHeap` ordered by `(at, seq)` is the reference, in two places.
//! The unit scripts and the proptest below drive a heap and the wheel
//! through the same pushes and pops. And under `debug_assertions` every
//! [`EventQueue`] carries a shadow heap of bare `(at, seq)` keys: each
//! `pop` and `next_at` asserts the wheel returned the shadow's minimum, so
//! every simulation a debug-profile test runs — serial, sharded, lossy
//! ACKs, Byzantine, traffic matrices — checks the wheel on the engine's
//! real operation sequence. Release builds compile the shadow out. See
//! DESIGN.md §14.

use crate::ctx::Scheduled;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the bucket count per level.
const SLOT_BITS: u32 = 8;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; together they cover all 64 bits of the microsecond clock.
const LEVELS: usize = (u64::BITS / SLOT_BITS) as usize;
/// 64-bit words per level bitmap.
const WORDS: usize = SLOTS / 64;
/// Bucket-index mask within a level.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Events per pool block.
const BLOCK: usize = 64;
/// The end of the free list.
const NIL: u32 = u32::MAX;

/// One pool block: a slice of some bucket's chain, or a free block (then
/// `len == 0` and every slot is `None`).
struct Block<P> {
    /// Filled slots; they are the first `len` of `events`, in push order.
    len: u32,
    /// The next block of the bucket's chain, or of the free list.
    next: u32,
    events: [Option<Scheduled<P>>; BLOCK],
}

/// The event queue of one engine context: a hierarchical timing wheel
/// keyed on microsecond [`SimTime`] that pops in exactly `(at, seq)`
/// order; see the module docs for the layout and the equivalence argument.
pub(crate) struct EventQueue<P> {
    /// The block pool: every bucket's events, and the free blocks.
    blocks: Vec<Block<P>>,
    /// Head of the free list, threaded through [`Block::next`].
    free: u32,
    /// `LEVELS * SLOTS` buckets, row-major by level, each the `(head,
    /// tail)` of its block chain. An entry means something only while
    /// the bucket's `occupied` bit is set.
    chains: Box<[(u32, u32)]>,
    /// Per-level occupancy bitmaps.
    occupied: [[u64; WORDS]; LEVELS],
    /// The staged timestamp: every event with `at < cursor` has been
    /// popped (or sits in `overdue`), and `current` holds exactly the
    /// events with `at == cursor`.
    cursor: u64,
    /// The staged bucket, ascending by `seq`; pops come off the front,
    /// same-timestamp pushes binary-search into the remainder.
    current: VecDeque<Scheduled<P>>,
    /// Events pushed with `at < cursor` — only the sharded engine's claim
    /// injections do this. Always pops before the wheel.
    overdue: BinaryHeap<Reverse<Scheduled<P>>>,
    /// The reference order: the `(at, seq)` key of every queued event in a
    /// plain binary heap, which `pop` and `next_at` must agree with.
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl<P> EventQueue<P> {
    pub(crate) fn new() -> Self {
        EventQueue {
            blocks: Vec::new(),
            free: NIL,
            chains: vec![(NIL, NIL); LEVELS * SLOTS].into_boxed_slice(),
            occupied: [[0; WORDS]; LEVELS],
            cursor: 0,
            current: VecDeque::new(),
            overdue: BinaryHeap::new(),
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, ev: Scheduled<P>) {
        #[cfg(debug_assertions)]
        self.shadow.push(Reverse((ev.at, ev.seq)));
        let at = ev.at.as_micros();
        if at > self.cursor {
            self.place(ev, at);
        } else if at == self.cursor {
            self.insert_current(ev);
        } else {
            self.overdue.push(Reverse(ev));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<P>> {
        // Overdue events precede everything the wheel still holds: their
        // times are strictly below the cursor, staged events sit at it,
        // bucketed events beyond it.
        let ev = if self.overdue.peek().is_some() {
            self.overdue.pop().map(|rev| rev.0)
        } else if self.stage() {
            self.current.pop_front()
        } else {
            None
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            ev.as_ref().map(|ev| (ev.at, ev.seq)),
            self.shadow.pop().map(|rev| rev.0),
            "timing wheel popped out of (at, seq) order"
        );
        ev
    }

    /// The timestamp of the next event to pop, without popping it. Takes
    /// `&mut self` because the wheel may advance its cursor to the next
    /// occupied bucket to answer (a pure relabeling: no event order or
    /// content changes).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        let at = if let Some(Reverse(ev)) = self.overdue.peek() {
            Some(ev.at)
        } else if self.stage() {
            Some(SimTime::from_micros(self.cursor))
        } else {
            None
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            at,
            self.shadow.peek().map(|rev| rev.0 .0),
            "timing wheel peeked a time other than the earliest"
        );
        at
    }

    /// Binary-search insert into the staged bucket, keeping it ascending
    /// by `seq`. Serial pushes carry the largest `seq` so far and append
    /// in O(1); the general position only occurs under the sharded
    /// engine's per-node sequence keys.
    fn insert_current(&mut self, ev: Scheduled<P>) {
        let i = self
            .current
            .binary_search_by(|e| e.seq.cmp(&ev.seq))
            .unwrap_err();
        self.current.insert(i, ev);
    }

    /// Files a future event into the lowest level whose bucketing
    /// distinguishes `at` from the cursor, at the tail of its bucket.
    fn place(&mut self, ev: Scheduled<P>, at: u64) {
        debug_assert!(at > self.cursor);
        let level = ((63 - (at ^ self.cursor).leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let bucket = level * SLOTS + slot;
        let bit = 1u64 << (slot % 64);
        let tail = if self.occupied[level][slot / 64] & bit == 0 {
            self.occupied[level][slot / 64] |= bit;
            let b = self.take_block();
            self.chains[bucket] = (b, b);
            b
        } else {
            let tail = self.chains[bucket].1;
            if self.blocks[tail as usize].len as usize == BLOCK {
                let b = self.take_block();
                self.blocks[tail as usize].next = b;
                self.chains[bucket].1 = b;
                b
            } else {
                tail
            }
        };
        let block = &mut self.blocks[tail as usize];
        block.events[block.len as usize] = Some(ev);
        block.len += 1;
    }

    /// An empty block: the head of the free list, or a new one when the
    /// list is empty.
    fn take_block(&mut self) -> u32 {
        if self.free == NIL {
            let b = u32::try_from(self.blocks.len()).expect("fewer than 2^32 blocks");
            self.blocks.push(Block { len: 0, next: NIL, events: std::array::from_fn(|_| None) });
            return b;
        }
        let b = self.free;
        self.free = self.blocks[b as usize].next;
        b
    }

    /// Ensures `current` holds the next timestamp's events, advancing the
    /// cursor and cascading coarse buckets as needed. Returns `false` only
    /// when the wheel (minus `overdue`) is empty.
    fn stage(&mut self) -> bool {
        loop {
            if !self.current.is_empty() {
                return true;
            }
            // The lowest level with an occupied bucket *after* the
            // cursor's own index holds the next timestamp (buckets at or
            // before the index are empty by the cursor invariant).
            let mut found = None;
            for level in 0..LEVELS {
                let idx = ((self.cursor >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
                if let Some(slot) = self.next_occupied(level, idx + 1) {
                    found = Some((level, slot));
                    break;
                }
            }
            let Some((level, slot)) = found else { return false };
            let shift = SLOT_BITS * level as u32;
            // Jump to the start of the found bucket's span (lower time
            // bits zeroed); for level 0 that *is* the bucket's timestamp.
            let span = shift + SLOT_BITS;
            let high = if span >= u64::BITS { 0 } else { (self.cursor >> span) << span };
            self.cursor = high | ((slot as u64) << shift);
            self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
            // Empty the bucket's chain a block at a time, each block back
            // on the free list as soon as it is drained (so a cascade can
            // refill it at once).
            let (mut b, tail) = self.chains[level * SLOTS + slot];
            loop {
                let block = &mut self.blocks[b as usize];
                let (len, next) = (block.len as usize, block.next);
                block.len = 0;
                if level == 0 {
                    // A level-0 bucket holds exactly one timestamp: it
                    // becomes the staged bucket, sorted below.
                    let events = block.events[..len].iter_mut();
                    self.current.extend(events.map(|e| e.take().expect("a filled slot")));
                } else {
                    // Cascade: every event re-files at least one level
                    // lower (its high bits now match the cursor through
                    // this level's span), so the loop strictly descends
                    // and never refills the chain it is emptying.
                    for i in 0..len {
                        let ev = self.blocks[b as usize].events[i].take().expect("a filled slot");
                        let at = ev.at.as_micros();
                        debug_assert!(at >= self.cursor);
                        if at == self.cursor {
                            self.insert_current(ev);
                        } else {
                            self.place(ev, at);
                        }
                    }
                }
                self.blocks[b as usize].next = self.free;
                self.free = b;
                if b == tail {
                    break;
                }
                b = next;
            }
            if level == 0 {
                self.current.make_contiguous().sort_unstable_by_key(|e| e.seq);
            }
        }
    }

    /// First occupied bucket of `level` with index ≥ `from`.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let bitmap = &self.occupied[level];
        let mut word = from / 64;
        let mut bits = bitmap[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = bitmap[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::EventKind;
    use crate::node::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(at: u64, seq: u64) -> Scheduled<()> {
        Scheduled { at: SimTime::from_micros(at), seq, kind: EventKind::Timer { node: NodeId(0), tag: seq } }
    }

    /// Drives a reference `BinaryHeap` and the wheel through the same
    /// push/pop script and asserts identical pop streams (explicitly, so
    /// the scripts also hold in release test builds, where the queue's own
    /// shadow is compiled out). `script` yields batches; between batches
    /// `drain` events are popped (simulating dispatch that pushes more
    /// work), and at the end both queues are popped dry.
    fn assert_identical(script: Vec<(Vec<(u64, u64)>, usize)>) {
        let mut heap = BinaryHeap::<Reverse<Scheduled<()>>>::new();
        let mut wheel = EventQueue::<()>::new();
        let mut popped = 0usize;
        for (batch, drain) in script {
            for &(at, seq) in &batch {
                heap.push(Reverse(ev(at, seq)));
                wheel.push(ev(at, seq));
            }
            for _ in 0..drain {
                let h = heap.pop().map(|rev| rev.0);
                let w = wheel.pop();
                match (&h, &w) {
                    (Some(h), Some(w)) => {
                        assert_eq!((h.at, h.seq), (w.at, w.seq), "pop #{popped} diverged");
                    }
                    (None, None) => {}
                    _ => panic!("pop #{popped}: heap={:?} wheel={:?}", h.is_some(), w.is_some()),
                }
                popped += 1;
            }
        }
        loop {
            assert_eq!(
                heap.peek().map(|rev| rev.0.at),
                wheel.next_at(),
                "next_at diverged after {popped} pops"
            );
            let (h, w) = (heap.pop().map(|rev| rev.0), wheel.pop());
            match (h, w) {
                (Some(h), Some(w)) => {
                    assert_eq!((h.at, h.seq), (w.at, w.seq), "pop #{popped} diverged")
                }
                (None, None) => break,
                (h, w) => panic!("pop #{popped}: heap={:?} wheel={:?}", h.is_some(), w.is_some()),
            }
            popped += 1;
        }
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut q = EventQueue::<()>::new();
        assert!(q.pop().is_none());
        assert!(q.next_at().is_none());
    }

    // The two tests below pin the debug-build shadow heap itself.

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timing wheel popped out of (at, seq) order")]
    fn shadow_heap_catches_a_misordered_pop() {
        let mut q = EventQueue::<()>::new();
        q.push(ev(10, 0));
        q.push(ev(10, 1));
        assert_eq!(q.next_at(), Some(SimTime::from_micros(10))); // stages both
        q.current.swap(0, 1); // what a FIFO bucket would do under sharded keys
        q.pop();
    }

    #[test]
    fn behind_cursor_push_pops_first_and_agrees_with_the_shadow() {
        // The sharded engine's late claim: the cursor has been advanced to
        // t=100 by a `next_at` peek when an event for t=40 arrives.
        let mut q = EventQueue::<()>::new();
        q.push(ev(100, 0));
        q.push(ev(5_000, 1));
        assert_eq!(q.next_at(), Some(SimTime::from_micros(100)));
        q.push(ev(40, 2));
        assert_eq!(q.overdue.len(), 1, "a behind-cursor push goes to the overflow heap");
        assert_eq!(q.next_at(), Some(SimTime::from_micros(40)));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.at.as_micros(), e.seq)).collect();
        assert_eq!(order, vec![(40, 2), (100, 0), (5_000, 1)]);
        #[cfg(debug_assertions)]
        assert!(q.shadow.is_empty(), "the shadow drains in step with the wheel");
    }

    #[test]
    fn dense_same_instant_ties_pop_in_seq_order() {
        // 500 events at one timestamp with shuffled, non-monotone seqs —
        // the sharded engine's (node << 32 | counter) keys look like this.
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch: Vec<(u64, u64)> = (0..500u64)
            .map(|i| (1_000, (i % 7) << 32 | (i / 7)))
            .collect();
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.gen_range(0..=i));
        }
        assert_identical(vec![(batch, 0)]);
    }

    #[test]
    fn far_future_events_cascade_through_every_level() {
        // One event per power-of-two distance, up to the top wheel level,
        // plus u64::MAX itself.
        let batch: Vec<(u64, u64)> =
            (0..63).map(|b| (1u64 << b, b)).chain([(u64::MAX, 63)]).collect();
        assert_identical(vec![(batch, 0)]);
    }

    #[test]
    fn zero_delay_self_pushes_interleave_exactly() {
        // Pop one event, then push more at the *same* timestamp (what a
        // dispatched event scheduling zero-delay work does), including
        // seqs below already-popped ones.
        assert_identical(vec![
            (vec![(10, 5), (10, 9)], 1),
            (vec![(10, 7), (10, 1), (10, 20)], 2),
            (vec![(10, 2)], 0),
        ]);
    }

    #[test]
    fn overdue_pushes_pop_before_the_wheel() {
        // Drain to t=100, then inject claims "in the past" like the
        // sharded engine's window-edge deliveries.
        assert_identical(vec![
            (vec![(100, 0), (5_000, 1)], 1),
            (vec![(40, 2), (60, 3), (40, 4)], 0),
        ]);
    }

    #[test]
    fn staged_bucket_survives_interleaved_draining() {
        // Alternate pops with same-cursor inserts so the staged bucket is
        // repeatedly half-drained and re-extended.
        let mut script = vec![(vec![(7, 0), (7, 2), (7, 4)], 1)];
        for i in 0..20u64 {
            script.push((vec![(7, 100 + i)], 1));
        }
        assert_identical(script);
    }

    // The tests below pin the block pool: the wheel's storage is bounded
    // by the events in flight and the buckets occupied at once, not by the
    // span of simulated time it has been turned through nor by how large
    // any bucket once grew.

    /// Event slots the pool holds, free blocks included.
    fn held_slots(q: &EventQueue<()>) -> usize {
        q.blocks.len() * BLOCK
    }

    /// Events in flight plus one whole block per occupied bucket: what the
    /// pool needs at this moment.
    fn pool_bound(q: &EventQueue<()>, in_flight: usize) -> usize {
        let occupied: u32 = q.occupied.iter().flatten().map(|w| w.count_ones()).sum();
        in_flight + BLOCK * occupied as usize
    }

    #[test]
    fn a_block_slot_is_no_larger_than_an_event() {
        // The pool's slots are `Option`s; the event kind's discriminant
        // leaves a niche for `None`, so the bound above is in events.
        assert_eq!(size_of::<Option<Scheduled<()>>>(), size_of::<Scheduled<()>>());
    }

    #[test]
    fn flood_bursts_keep_the_first_bursts_blocks() {
        // The flood pattern: once a simulated second a tick fires and
        // ~10 k events land within the next 10 ms — straight into level 1,
        // whose buckets at 1 s, 2 s and 3 s are all different (a level-1
        // bucket repeats every 65 ms). Each burst fills 39 whole level-1
        // buckets, one event per microsecond.
        const BUCKETS: u64 = 39;
        let mut q = EventQueue::<()>::new();
        let mut seq = 0u64;
        q.push(ev(1_000_000, seq));
        let mut after = Vec::new();
        for burst in 1..=3u64 {
            let tick = q.pop().expect("the tick is armed");
            assert_eq!(tick.at.as_micros(), burst * 1_000_000);
            let edge = (tick.at.as_micros() | SLOT_MASK) + 1; // next level-1 bucket
            for at in edge..edge + BUCKETS * SLOTS as u64 {
                seq += 1;
                q.push(ev(at, seq));
            }
            seq += 1;
            q.push(ev((burst + 1) * 1_000_000, seq));
            for _ in 0..BUCKETS * SLOTS as u64 {
                assert!(q.pop().expect("the burst is queued").at.as_micros() < edge + 10_000);
            }
            after.push(held_slots(&q));
        }
        assert!(after[0] >= (BUCKETS as usize) * SLOTS, "the burst was pooled: {after:?}");
        assert_eq!(after[1..], [after[0]; 2], "the pool grew with simulated time: {after:?}");
        assert!(q.free != NIL, "drained blocks go back on the free list");
    }

    #[test]
    fn duty_cycle_storage_is_bounded_by_the_timers_in_flight() {
        // One timer per id with a 250 ms period, re-armed at every expiry,
        // for sixteen periods (the `timers_1m` pattern). The phases put
        // exactly one expiry on every 16th microsecond, so a level-2
        // bucket holds 4 096 events, a level-1 bucket 16 and a level-0
        // bucket one.
        const PERIOD: u64 = 250_000;
        let ids = 15_625u64;
        let stride = PERIOD / ids;
        let mut q = EventQueue::<()>::new();
        for id in 0..ids {
            q.push(ev(1 + id * stride, id));
        }
        let mut bound = pool_bound(&q, ids as usize);
        let mut samples = Vec::new();
        let mut seq = ids;
        for period in 1..=16u64 {
            while q.next_at().is_some_and(|at| at.as_micros() <= period * PERIOD) {
                let fired = q.pop().expect("peeked");
                q.push(ev(fired.at.as_micros() + PERIOD, seq));
                seq += 1;
                bound = bound.max(pool_bound(&q, ids as usize));
            }
            samples.push(held_slots(&q));
        }
        assert!(
            samples.iter().all(|&held| held <= bound),
            "the pool holds more than {bound} slots: {samples:?}"
        );
        // The allocation-free steady state: after the first period no
        // block is added.
        assert!(
            samples.iter().all(|&held| held == samples[0]),
            "the pool still grows after the first period: {samples:?}"
        );
    }

    #[test]
    fn a_drained_giant_bucket_leaves_no_giant_behind() {
        // One 100 k-event bucket, cascaded from level 2 to level 0 and
        // drained; then 100 level-2 buckets of 1 000 events each in flight
        // at once. Storage kept per bucket would hold the giant's room
        // (131 072 slots) beside the hundred new buckets: some 230 k slots
        // for 100 k events.
        let mut q = EventQueue::<()>::new();
        let mut seq = 0u64;
        for _ in 0..100_000 {
            q.push(ev((1 << 16) + 1, seq));
            seq += 1;
        }
        while q.pop().is_some() {}
        let giant = held_slots(&q);
        assert!(giant >= 100_000, "the giant was pooled: {giant}");
        let start = q.cursor + (1 << 16);
        for bucket in 0..100u64 {
            for i in 0..1_000u64 {
                q.push(ev(start + (bucket << 16) + i, seq));
                seq += 1;
            }
        }
        let bound = pool_bound(&q, 100_000);
        assert!(held_slots(&q) <= bound, "{} slots held for 100 000 events", held_slots(&q));
        assert!(bound < 110_000, "the hundred buckets sit on level 2: bound {bound}");
        let drained = std::iter::from_fn(|| q.pop()).count();
        assert_eq!(drained, 100_000);
    }

    // Random interleavings of pushes (dense ties, far-future tails,
    // zero-delay repushes, occasional overdue claims) and pops match
    // the heap exactly.
    proptest! {
        #[test]
        fn wheel_matches_heap_on_random_schedules(seed in 0u64..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut script = Vec::new();
            let mut seq = 0u64;
            let mut horizon = 0u64; // rough lower bound of the cursor
            for _ in 0..rng.gen_range(1..24) {
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(0..40) {
                    let at = match rng.gen_range(0..10) {
                        0..=3 => horizon + rng.gen_range(0..4u64),         // ties / zero-delay
                        4..=6 => horizon + rng.gen_range(0..5_000u64),     // near future
                        7 => horizon + rng.gen_range(0..u64::MAX / 2),     // cascade territory
                        8 => horizon.saturating_sub(rng.gen_range(0..500)),// overdue claim
                        _ => rng.gen_range(0..u64::MAX),                   // anywhere
                    };
                    // Sharded-style non-monotone keys half the time.
                    let key = if rng.gen_bool(0.5) { seq } else { (seq % 5) << 32 | seq };
                    batch.push((at, key));
                    seq += 1;
                }
                let drain = rng.gen_range(0..30);
                horizon = horizon.saturating_add(rng.gen_range(0..2_000));
                script.push((batch, drain));
            }
            assert_identical(script);
        }
    }
}
