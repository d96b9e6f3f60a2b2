//! The in-memory span recorder behind the traced run.
//!
//! [`Probe`](crate::probe::Probe), [`SpanCtx`](crate::probe::SpanCtx) and
//! the `engine_loop` driver open a span around each call into a layer;
//! the recorder of the calling thread keeps, per span name, the call
//! count, total time, self time (total minus the part child spans cover)
//! and a [`LogHistogram`] of per-call self time, plus the first
//! [`RAW_CAP`] raw spans (id, parent, start, end). Nothing is written
//! while a run is in flight: [`collect`] merges every thread's recorder
//! when the run is over.
//!
//! Each thread records into its own recorder (the sharded engine's
//! workers included), reached through a thread-local handle and kept
//! alive by a process-wide registry, so collection needs no cooperation
//! from threads that have already exited.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use wsan_sim::LogHistogram;

/// Raw spans kept per thread (and per workload after the merge).
pub const RAW_CAP: usize = 10_000;

/// Every span name the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    OnMessage,
    OnTimer,
    OnAppData,
    OnAck,
    OnSendExpired,
    CtxSend,
    CtxSendAcked,
    CtxBroadcast,
    CtxSetTimer,
    CtxNeighbors,
    HandleFrame,
    HandleAppData,
    HandleTimer,
    WireEncode,
    WireDecode,
}

impl Span {
    pub const ALL: [Span; 15] = [
        Span::OnMessage,
        Span::OnTimer,
        Span::OnAppData,
        Span::OnAck,
        Span::OnSendExpired,
        Span::CtxSend,
        Span::CtxSendAcked,
        Span::CtxBroadcast,
        Span::CtxSetTimer,
        Span::CtxNeighbors,
        Span::HandleFrame,
        Span::HandleAppData,
        Span::HandleTimer,
        Span::WireEncode,
        Span::WireDecode,
    ];

    /// The name without its layer prefix; the workload supplies the
    /// prefix for handler and driver spans (see `Workload::layers`).
    pub fn op(self) -> &'static str {
        match self {
            Span::OnMessage => "on_message",
            Span::OnTimer => "on_timer",
            Span::OnAppData => "on_app_data",
            Span::OnAck => "on_ack",
            Span::OnSendExpired => "on_send_expired",
            Span::CtxSend => "send",
            Span::CtxSendAcked => "send_acked",
            Span::CtxBroadcast => "broadcast",
            Span::CtxSetTimer => "set_timer",
            Span::CtxNeighbors => "neighbors",
            Span::HandleFrame => "handle_frame",
            Span::HandleAppData => "handle_appdata",
            Span::HandleTimer => "handle_timer",
            Span::WireEncode => "encode",
            Span::WireDecode => "decode",
        }
    }

    /// Whether this is a protocol hook (as opposed to a driver call, an
    /// engine input or a codec call).
    pub fn is_handler(self) -> bool {
        (self as usize) <= Span::OnSendExpired as usize
    }

    pub fn is_ctx(self) -> bool {
        (Span::CtxSend as usize..=Span::CtxNeighbors as usize).contains(&(self as usize))
    }
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `on_app_data` calls inside the measured window: packets offered.
    Offered,
    /// Receivers summed over `broadcast` calls.
    BroadcastReceivers,
    /// Fault- and link-oracle consultations. Counted, not timed: REFER
    /// makes seven per handler call and each costs a few nanoseconds, so
    /// a span (two clock reads) would measure the clock. The per-call
    /// cost comes from a micro-loop instead.
    OracleQueries,
    /// Outputs returned by `EngineCore::handle`.
    EngineOutputs,
    /// Bytes of encoded datagrams.
    WireBytes,
}

const COUNTERS: usize = 5;

// Relaxed: statistics that publish no other data, read after the run.
static COUNTS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

/// Per-span-name aggregate.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Per-call self time, nanoseconds.
    pub hist: LogHistogram,
}

/// One finished span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
pub struct Raw {
    /// Per-thread sequence number, assigned when the span opened.
    pub id: u32,
    /// The enclosing span's id on the same thread, if any.
    pub parent: Option<u32>,
    pub span: Span,
    /// Nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    span: Span,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's spans; after [`collect`], every thread's and the counts.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    next_id: u32,
    aggs: [Agg; Span::ALL.len()],
    counters: [u64; COUNTERS],
    /// Total time under spans that had no parent.
    root_ns: u64,
    raw: Vec<Raw>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

impl Recorder {
    fn enter(&mut self, span: Span) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            span,
            id,
            start_ns: now_ns(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = now_ns();
        let Some(open) = self.stack.pop() else { return };
        let total = end_ns.saturating_sub(open.start_ns);
        let own = total.saturating_sub(open.child_ns);
        let agg = &mut self.aggs[open.span as usize];
        agg.calls += 1;
        agg.total_ns += total;
        agg.self_ns += own;
        agg.hist.record(own);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += total;
                Some(p.id)
            }
            None => {
                self.root_ns += total;
                None
            }
        };
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                id: open.id,
                parent,
                span: open.span,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    fn merge(&mut self, other: &Recorder) {
        for (mine, theirs) in self.aggs.iter_mut().zip(&other.aggs) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.hist.merge(&theirs.hist);
        }
        self.root_ns += other.root_ns;
        let room = RAW_CAP - self.raw.len();
        self.raw.extend(other.raw.iter().take(room));
    }

    pub fn agg(&self, span: Span) -> &Agg {
        &self.aggs[span as usize]
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Total time under parentless spans, summed over threads.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    pub fn raw(&self) -> &[Raw] {
        &self.raw
    }

    /// Protocol-hook invocations: the `events` of `events_per_s` on the
    /// simulator workloads.
    pub fn handler_calls(&self) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.is_handler())
            .map(|&s| self.agg(s).calls)
            .sum()
    }
}

type Shared = Arc<Mutex<Recorder>>;

/// Every recorder ever handed to a thread; entries outlive their thread.
fn registry() -> &'static Mutex<Vec<Shared>> {
    static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Shared>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let shared = slot.get_or_insert_with(|| {
            let fresh = Shared::default();
            registry()
                .lock()
                .expect("no recorder user panics while registering")
                .push(fresh.clone());
            fresh
        });
        // Uncontended except against `collect`, which runs between runs.
        let mut rec = shared
            .lock()
            .expect("no recorder user panics while recording");
        f(&mut rec)
    })
}

/// Closes its span when dropped.
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        with_local(Recorder::exit);
    }
}

/// Opens `span` on the calling thread until the guard drops.
#[must_use = "the span ends when the guard is dropped"]
pub fn span(span: Span) -> Guard {
    with_local(|r| r.enter(span));
    Guard(())
}

/// Adds `n` to `counter`.
pub fn count(counter: Counter, n: u64) {
    COUNTS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Merges and clears every thread's recorder and the counters. Call
/// between runs, when no span is open anywhere.
pub fn collect() -> Recorder {
    let mut merged = Recorder::default();
    for (mine, global) in merged.counters.iter_mut().zip(&COUNTS) {
        *mine = global.swap(0, Ordering::Relaxed);
    }
    let mut registry = registry()
        .lock()
        .expect("no recorder user panics while registering");
    for shared in registry.iter() {
        let mut rec = shared
            .lock()
            .expect("no recorder user panics while recording");
        merged.merge(&rec);
        *rec = Recorder::default();
    }
    // Recorders of threads that are gone (only the registry holds them).
    registry.retain(|shared| Arc::strong_count(shared) > 1);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test thread has its own recorder; `collect` would also sweep
    // up other tests' spans, so these drive a private `Recorder`.

    #[test]
    fn self_time_is_total_minus_children() {
        let mut r = Recorder::default();
        r.enter(Span::HandleFrame);
        r.enter(Span::OnMessage);
        r.enter(Span::CtxSend);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        r.exit();
        let (frame, msg, send) = (
            r.agg(Span::HandleFrame),
            r.agg(Span::OnMessage),
            r.agg(Span::CtxSend),
        );
        assert_eq!((frame.calls, msg.calls, send.calls), (1, 1, 1));
        assert!(send.total_ns >= 2_000_000);
        assert_eq!(
            send.self_ns, send.total_ns,
            "a leaf's self time is its total"
        );
        assert_eq!(msg.self_ns, msg.total_ns - send.total_ns);
        assert_eq!(frame.self_ns, frame.total_ns - msg.total_ns);
        assert_eq!(
            r.root_ns(),
            frame.total_ns,
            "only the parentless span is a root"
        );
        assert_eq!(r.handler_calls(), 1);
        // Raw spans close innermost first and name their parents.
        let raw = r.raw();
        assert_eq!(raw.len(), 3);
        assert_eq!(
            (raw[0].span, raw[0].parent),
            (Span::CtxSend, Some(raw[1].id))
        );
        assert_eq!(
            (raw[1].span, raw[1].parent),
            (Span::OnMessage, Some(raw[2].id))
        );
        assert_eq!((raw[2].span, raw[2].parent), (Span::HandleFrame, None));
        assert!(raw[2].start_ns <= raw[1].start_ns && raw[1].end_ns <= raw[2].end_ns);
    }

    #[test]
    fn raw_spans_are_capped_and_merges_add_up() {
        let mut a = Recorder::default();
        for _ in 0..RAW_CAP + 5 {
            a.enter(Span::OnTimer);
            a.exit();
        }
        assert_eq!(a.raw().len(), RAW_CAP);
        assert_eq!(a.agg(Span::OnTimer).calls, (RAW_CAP + 5) as u64);
        let mut b = Recorder::default();
        b.enter(Span::OnTimer);
        b.exit();
        b.merge(&a);
        assert_eq!(b.agg(Span::OnTimer).calls, (RAW_CAP + 6) as u64);
        assert_eq!(b.agg(Span::OnTimer).hist.count(), (RAW_CAP + 6) as u64);
        assert_eq!(b.raw().len(), RAW_CAP);
    }

    #[test]
    fn guards_record_on_the_calling_thread_and_collect_sees_dead_threads() {
        std::thread::spawn(|| {
            let _outer = span(Span::OnAppData);
            count(Counter::BroadcastReceivers, 4);
            let _inner = span(Span::CtxBroadcast);
        })
        .join()
        .expect("recording thread");
        let merged = collect();
        assert!(merged.agg(Span::OnAppData).calls >= 1);
        assert!(merged.agg(Span::CtxBroadcast).calls >= 1);
        assert!(merged.counter(Counter::BroadcastReceivers) >= 4);
    }
}
