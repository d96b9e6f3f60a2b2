//! Event tracing: record what happened on the air during a REFER run and
//! print a condensed timeline.
//!
//! The run streams its events into an in-memory sink attached by
//! `runner::run_with_sinks`, the one way a sink attaches.
//!
//! ```text
//! cargo run --example trace_timeline --release
//! ```

use refer_obs::VecSink;
use refer_wsan::refer::{ReferConfig, ReferProtocol};
use refer_wsan::wsan_sim::trace::TraceEvent;
use refer_wsan::wsan_sim::{runner, SimConfig, SimDuration};

fn main() {
    let mut cfg = SimConfig::smoke();
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    cfg.faults.count = 6;
    cfg.traffic.rate_bps = 24_000.0;
    cfg.seed = 9;

    // Unbounded: the whole run is read back below.
    let (sink, events) = VecSink::new();
    let mut proto = ReferProtocol::new(ReferConfig::default());
    let (summary, _) = runner::run_with_sinks(cfg, &mut proto, vec![Box::new(sink)]);
    let events = events.take();

    let mut sends = 0u64;
    let mut failures = 0u64;
    let mut broadcasts = 0u64;
    let mut deliveries = 0u64;
    let mut fault_rotations = 0u64;
    for e in &events {
        match e {
            TraceEvent::Send { .. } => sends += 1,
            TraceEvent::SendFailed { .. } => failures += 1,
            TraceEvent::Broadcast { .. } => broadcasts += 1,
            TraceEvent::Delivered { .. } => deliveries += 1,
            TraceEvent::FaultRotation { .. } => fault_rotations += 1,
            _ => {}
        }
    }
    println!("traced {} events over the run:", events.len());
    println!("  unicast sends:    {sends}");
    println!("  link failures:    {failures}");
    println!("  broadcasts:       {broadcasts}");
    println!("  deliveries:       {deliveries}");
    println!("  fault rotations:  {fault_rotations}");
    println!();
    println!("first link failure and the recovery around it:");
    if let Some(pos) = events.iter().position(|e| matches!(e, TraceEvent::SendFailed { .. })) {
        for e in events.iter().skip(pos.saturating_sub(1)).take(6) {
            match e {
                TraceEvent::Send { at, from, to, .. } => {
                    println!("  {at}  {from} -> {to}  (send)")
                }
                TraceEvent::SendFailed { at, from, to } => {
                    println!("  {at}  {from} -> {to}  (LINK FAILED; relay reroutes)")
                }
                TraceEvent::Broadcast { at, from, receivers, .. } => {
                    println!("  {at}  {from} broadcast to {receivers} receivers")
                }
                TraceEvent::Delivered { at, node, delay_s, hops, .. } => {
                    println!(
                        "  {at}  delivered at {node} after {:.1} ms ({hops} hops)",
                        delay_s * 1e3
                    )
                }
                other => println!("  {}  {other:?}", other.at()),
            }
        }
    }
    println!("\nrun summary: {:.0} B/s QoS, {:.1}% delivered", summary.throughput_bps,
        summary.delivery_ratio * 100.0);
}
