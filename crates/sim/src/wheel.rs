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

/// The event queue of one engine context: a hierarchical timing wheel
/// keyed on microsecond [`SimTime`] that pops in exactly `(at, seq)`
/// order; see the module docs for the layout and the equivalence argument.
pub(crate) struct EventQueue<P> {
    /// `LEVELS * SLOTS` buckets, row-major by level. A level-0 bucket
    /// keeps its vector when it is staged; a bucket of a coarser level
    /// gives its vector up to `spares` when it cascades and is left
    /// without one (capacity 0) until its next first push.
    slots: Vec<Vec<Scheduled<P>>>,
    /// Per level, the vectors of cascaded buckets, empty but with their
    /// capacity: the next bucket of that level to receive a first push
    /// takes one. The steady state therefore allocates nothing, and a
    /// level holds as many vectors as it ever had buckets occupied at
    /// once — not one per bucket ever touched, which grows with the span
    /// of simulated time (a level-1 bucket comes round again after 65 ms,
    /// a level-2 bucket after 16.8 s). Per level because bucket sizes
    /// differ by orders of magnitude between levels: a level-2 vector
    /// behind a level-1 bucket would pin its capacity for a handful of
    /// events.
    spares: [Vec<Vec<Scheduled<P>>>; LEVELS],
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
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            spares: std::array::from_fn(|_| Vec::new()),
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
    /// distinguishes `at` from the cursor.
    fn place(&mut self, ev: Scheduled<P>, at: u64) {
        debug_assert!(at > self.cursor);
        let level = ((63 - (at ^ self.cursor).leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let bucket = &mut self.slots[level * SLOTS + slot];
        if bucket.capacity() == 0 {
            // First push since this bucket cascaded (or ever).
            if let Some(spare) = self.spares[level].pop() {
                *bucket = spare;
            }
        }
        bucket.push(ev);
        self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
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
            let mut batch = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
            if level == 0 {
                // A level-0 bucket holds exactly one timestamp: sort once
                // by seq and it is the staged bucket.
                batch.sort_unstable_by_key(|e| e.seq);
                self.current.extend(batch.drain(..));
                // All 256 level-0 buckets come round every 256 µs: handing
                // the vector straight back is bounded and the cheapest.
                self.slots[slot] = batch;
            } else {
                // Cascade: every event re-files at least one level lower
                // (its high bits now match the cursor through this
                // level's span), so the loop strictly descends.
                for ev in batch.drain(..) {
                    let at = ev.at.as_micros();
                    debug_assert!(at >= self.cursor);
                    if at == self.cursor {
                        self.insert_current(ev);
                    } else {
                        self.place(ev, at);
                    }
                }
                self.spares[level].push(batch);
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

    // The three tests below pin bucket recycling: the wheel's storage is
    // bounded by the buckets occupied at once, not by the span of
    // simulated time it has been turned through.

    /// Element capacity of every vector the wheel holds on to: buckets of
    /// every level plus the per-level spares.
    fn retained_capacity(q: &EventQueue<()>) -> usize {
        q.slots.iter().chain(q.spares.iter().flatten()).map(Vec::capacity).sum()
    }

    /// Largest capacity among `level`'s buckets and spares.
    fn widest_vector(q: &EventQueue<()>, level: usize) -> usize {
        q.slots[level * SLOTS..(level + 1) * SLOTS]
            .iter()
            .chain(&q.spares[level])
            .map(Vec::capacity)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn flood_bursts_reuse_the_first_bursts_vectors() {
        // The flood pattern: once a simulated second a tick fires and
        // ~10 k events land within the next 10 ms — straight into level 1,
        // whose buckets at 1 s, 2 s and 3 s are all different (a level-1
        // bucket repeats every 65 ms). Each burst fills 39 whole level-1
        // buckets, one event per microsecond, so every vector ends in one
        // capacity class and "no growth" is an equality, not a tolerance.
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
            after.push(retained_capacity(&q));
        }
        assert!(after[0] >= (BUCKETS as usize) * SLOTS, "the burst was bucketed: {after:?}");
        assert_eq!(after[2], after[0], "storage grew with simulated time: {after:?}");
    }

    /// One timer per id with a 250 ms period, re-armed at every expiry,
    /// for four simulated seconds (the `timers_1m` pattern). The phases
    /// put exactly one expiry on every 16th microsecond, so a level-2
    /// bucket holds 4 096 events, a level-1 bucket 16 and a level-0
    /// bucket one. Returns the wheel and its retained capacity sampled at
    /// the end of every period.
    fn duty_cycle(ids: u64) -> (EventQueue<()>, Vec<usize>) {
        const PERIOD: u64 = 250_000;
        let stride = PERIOD / ids;
        let mut q = EventQueue::<()>::new();
        for id in 0..ids {
            q.push(ev(1 + id * stride, id));
        }
        let mut samples = Vec::new();
        let mut seq = ids;
        for period in 1..=16u64 {
            while q.next_at().is_some_and(|at| at.as_micros() <= period * PERIOD) {
                let fired = q.pop().expect("peeked");
                q.push(ev(fired.at.as_micros() + PERIOD, seq));
                seq += 1;
            }
            samples.push(retained_capacity(&q));
        }
        (q, samples)
    }

    #[test]
    fn duty_cycle_storage_is_bounded_by_the_timers_in_flight() {
        let ids = 15_625;
        let (_, samples) = duty_cycle(ids);
        // Sixteen periods turn the wheel through 61 level-2 buckets of
        // 4 096 events each; four are ever occupied at once.
        assert!(
            samples.iter().all(|&cap| cap <= 2 * ids as usize),
            "retained capacity exceeds twice the {ids} events in flight: {samples:?}"
        );
        // The allocation-free steady state: after the first period no
        // vector is created and none grows.
        assert!(
            samples[1..].iter().all(|&cap| cap == samples[1]),
            "storage still moving after the first period: {samples:?}"
        );
    }

    #[test]
    fn spares_stay_on_their_own_level() {
        let (q, _) = duty_cycle(15_625);
        assert_eq!(widest_vector(&q, 2), 4_096, "level 2 buckets a quarter period each");
        // One shared spare list would hand level 2's vectors to level-1
        // buckets, where each would pin 4 096 slots for 16 events.
        assert_eq!(widest_vector(&q, 1), 16, "a level-1 bucket took a level-2 vector");
        assert!(q.spares[0].is_empty(), "level 0 hands its vectors straight back");
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
