//! Allocation-lean hot path contracts: broadcast clones its payload
//! exactly `receivers − 1` times (the last copy is moved, not cloned).

use std::cell::Cell;
use std::rc::Rc;
use wsan_sim::runner::run_owned;
use wsan_sim::{Ctx, DataId, EnergyAccount, Message, NodeId, Protocol, SimConfig, SimDuration};

/// A payload whose `Clone` impl counts itself.
#[derive(Debug)]
struct CountingPayload(Rc<Cell<u64>>);

impl Clone for CountingPayload {
    fn clone(&self) -> Self {
        self.0.set(self.0.get() + 1);
        CountingPayload(Rc::clone(&self.0))
    }
}

/// Broadcasts one frame from sensor 0 shortly after t = 0 and records how
/// many receivers the broadcast reported.
struct OneBroadcast {
    clones: Rc<Cell<u64>>,
    receivers: Option<usize>,
    delivered: u64,
}

impl Protocol for OneBroadcast {
    type Payload = CountingPayload;

    fn name(&self) -> &'static str {
        "OneBroadcast"
    }

    fn on_init(&mut self, ctx: &mut Ctx<CountingPayload>) {
        ctx.set_timer(NodeId(0), SimDuration::from_millis(10), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<CountingPayload>, at: NodeId, _tag: u64) {
        let n = ctx.broadcast(
            at,
            8_000,
            EnergyAccount::Communication,
            CountingPayload(Rc::clone(&self.clones)),
        );
        assert!(self.receivers.replace(n).is_none(), "the timer must fire exactly once");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<CountingPayload>, _at: NodeId, _msg: Message<CountingPayload>) {
        self.delivered += 1;
    }

    fn on_app_data(&mut self, _ctx: &mut Ctx<CountingPayload>, _src: NodeId, _data: DataId) {}
}

fn broadcast_clone_count() -> (u64, usize, u64) {
    let mut cfg = SimConfig::smoke();
    cfg.traffic.sources_per_round = 0; // no app traffic: only the one broadcast
    cfg.faults.count = 0; // the sender must stay alive
    cfg.warmup = SimDuration::from_secs(0);
    cfg.duration = SimDuration::from_secs(1);
    let counter = Rc::new(Cell::new(0));
    let protocol = OneBroadcast { clones: Rc::clone(&counter), receivers: None, delivered: 0 };
    let (_, protocol) = run_owned(cfg, protocol);
    let receivers = protocol.receivers.expect("broadcast timer fired");
    (counter.get(), receivers, protocol.delivered)
}

#[test]
fn broadcast_clones_payload_exactly_n_minus_1_times() {
    let (clones, receivers, delivered) = broadcast_clone_count();
    assert!(receivers > 1, "scenario must have a multi-receiver broadcast, got {receivers}");
    assert_eq!(
        clones,
        receivers as u64 - 1,
        "broadcast to {receivers} receivers must clone n−1 times"
    );
    assert_eq!(delivered, receivers as u64, "every receiver (lossless links) must get its copy");
}
