//! Event tracing: record what happened on the air during a REFER run and
//! print a condensed timeline.
//!
//! Demonstrates protocol composition: a thin wrapper attaches a trace
//! sink at init and delegates everything to REFER.
//!
//! ```text
//! cargo run --example trace_timeline --release
//! ```

use refer_wsan::refer::{ReferConfig, ReferProtocol};
use refer_wsan::wsan_sim::trace::{TraceEvent, TraceLog};
use refer_wsan::wsan_sim::{
    runner, Ctx, DataId, Message, NodeId, Protocol, SimConfig, SimDuration,
};
use std::sync::{Arc, Mutex};

/// Wraps any protocol and records the simulator's event trace: the sink
/// goes to the engine, the shared handle stays here to be read afterwards.
struct Traced<P> {
    inner: P,
    log: Arc<Mutex<TraceLog>>,
}

impl<P: Protocol> Protocol for Traced<P> {
    type Payload = P::Payload;
    fn name(&self) -> &'static str {
        "Traced"
    }
    fn on_init(&mut self, ctx: &mut Ctx<P::Payload>) {
        ctx.add_trace_sink(Box::new(self.log.clone()));
        self.inner.on_init(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, msg: Message<P::Payload>) {
        self.inner.on_message(ctx, at, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, tag: u64) {
        self.inner.on_timer(ctx, at, tag);
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<P::Payload>, src: NodeId, data: DataId) {
        self.inner.on_app_data(ctx, src, data);
    }
}

fn main() {
    let mut cfg = SimConfig::smoke();
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    cfg.faults.count = 6;
    cfg.traffic.rate_bps = 24_000.0;
    cfg.seed = 9;

    // Unbounded: the whole run is read back below.
    let log = Arc::new(Mutex::new(TraceLog::new(usize::MAX)));
    let traced = Traced { inner: ReferProtocol::new(ReferConfig::default()), log: log.clone() };
    let (summary, _) = runner::run_owned(cfg, traced);
    let events = log.lock().expect("the run is over").drain();

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
