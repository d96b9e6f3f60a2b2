//! Observability subsystem for the REFER reproduction.
//!
//! The simulator can stream every [`TraceEvent`](wsan_sim::TraceEvent) it
//! produces into [`TraceSink`](wsan_sim::TraceSink)s at bounded memory;
//! this crate supplies the sinks and the tools that make the stream
//! useful:
//!
//! * [`codec`] — a JSONL codec for trace events (one externally-tagged
//!   JSON object per line), so traces survive on disk and across tools;
//! * [`frame`] — u32-LE length-prefixed binary framing with an
//!   incremental [`FrameDecoder`]; only the
//!   benchmark's `obs.frame.*` rows call it, on trace lines;
//! * [`sink`] — streaming sinks: [`JsonlSink`] to any
//!   writer, [`CountingSink`] for per-kind tallies,
//!   [`HashingSink`] for order-independent stream
//!   digests, [`VecSink`] for in-memory capture;
//! * [`ledger`] — [`PacketLedger`], folding a trace
//!   into per-packet causal chains (origin → hops with routing reasons →
//!   delivered/dropped) queryable by packet or node;
//! * [`hash`] — [`EventHash`], the commutative multiset
//!   digest behind `trace verify`'s serial/parallel identity proof.
//!
//! The `trace` binary in this crate wires them into a forensics CLI:
//! `trace record` runs a traced scenario to JSONL, `trace packet` replays
//! one packet's story, `trace summary`/`diff` compare runs and
//! `trace verify` proves determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod hash;
pub mod ledger;
pub mod sink;

pub use codec::{
    account_str, event_from_value, from_jsonl_line, to_jsonl_line, write_jsonl_line,
};
pub use frame::{encode_frame, write_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use hash::{fnv1a64, EventHash};
pub use ledger::{HopRecord, LedgerStats, Outcome, PacketLedger, PacketRecord};
pub use sink::{
    CountingSink, CountsHandle, EventCounts, EventsHandle, HashHandle, HashingSink, JsonlSink,
    SharedBuf, VecSink,
};
