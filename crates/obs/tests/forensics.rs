//! End-to-end forensics: a traced faulty run streams to JSONL, the codec
//! round-trips every line, and the ledger reconstructs a dropped packet's
//! full hop chain with its drop reason. A planted live trace checks the
//! ledger's outcome rule.

use refer_bench::{base_config, run_system_with_sinks, System};
use refer_obs::{
    from_jsonl_line, to_jsonl_line, EventHash, JsonlSink, Outcome, PacketLedger, SharedBuf,
    VecSink,
};
use std::sync::{Arc, Mutex};
use wsan_sim::trace::TraceEvent;
use wsan_sim::{DataId, DropReason, FaultModel, NodeId, SimConfig, SimDuration, SimTime};

/// A small faulty scenario under discovered failures — drops happen.
fn faulty_cfg(seed: u64) -> SimConfig {
    let mut cfg = base_config(0.02);
    cfg.faults.count = 10;
    cfg.faults.model = FaultModel::Discovered;
    cfg.seed = seed;
    cfg
}

#[test]
fn traced_faulty_run_reconstructs_dropped_packet_chains() {
    // Scan a few seeds for a run that actually drops a packet after at
    // least one traced hop; the scenario makes this overwhelmingly likely.
    for seed in 1..=5 {
        let cfg = faulty_cfg(seed);
        let (sink, events) = VecSink::new();
        let (summary, _) = run_system_with_sinks(&cfg, System::Refer, vec![Box::new(sink)]);
        let events = events.take();
        assert!(!events.is_empty(), "traced run produced no events");

        let ledger = PacketLedger::from_events(events);
        let stats = ledger.stats();
        assert!(stats.packets > 0, "ledger saw packets");
        let summary_drops = summary.drop_no_access + summary.drop_no_route + summary.drop_hops;
        assert!(
            stats.dropped as u64 >= summary_drops,
            "ledger sees at least the summary's reasoned drops: {} < {summary_drops}",
            stats.dropped
        );

        let dropped_with_hops = ledger
            .packets()
            .find(|r| matches!(r.outcome, Outcome::Dropped { .. }) && !r.hops.is_empty());
        if let Some(record) = dropped_with_hops {
            assert!(record.origin.is_some(), "chain starts at the origin");
            let text = record.describe();
            assert!(text.contains("origin"), "describe names the origin: {text}");
            assert!(text.contains("hop  1"), "describe lists the hops: {text}");
            assert!(text.contains("DROPPED"), "describe names the outcome: {text}");
            // Every hop chains from somewhere the packet has been.
            let nodes = record.nodes();
            for hop in &record.hops {
                assert!(nodes.contains(&hop.from));
            }
            return;
        }
    }
    panic!("no seed in 1..=5 dropped a packet after a traced hop");
}

#[test]
fn jsonl_stream_round_trips_and_matches_capture() {
    let cfg = faulty_cfg(1);
    let buf = SharedBuf::new();
    let (vec_sink, events) = VecSink::new();
    run_system_with_sinks(
        &cfg,
        System::Refer,
        vec![Box::new(JsonlSink::new(buf.clone())), Box::new(vec_sink)],
    );
    let captured = events.take();
    let text = String::from_utf8(buf.bytes()).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), captured.len(), "one line per event");
    for (line, event) in lines.iter().zip(&captured) {
        let parsed = from_jsonl_line(line).expect("every line parses");
        assert_eq!(&parsed, event, "parsed event matches the captured one");
        assert_eq!(&to_jsonl_line(&parsed), line, "re-encoding is canonical");
    }
}

#[test]
fn record_replay_streams_are_bit_identical() {
    let run = |sinks| run_system_with_sinks(&faulty_cfg(2), System::Refer, sinks);

    let (first_buf, second_buf) = (SharedBuf::new(), SharedBuf::new());
    let first_hash = Arc::new(Mutex::new(EventHash::new()));
    let second_hash = Arc::new(Mutex::new(EventHash::new()));
    run(vec![Box::new(JsonlSink::new(first_buf.clone())), Box::new(first_hash.clone())]);
    run(vec![Box::new(JsonlSink::new(second_buf.clone())), Box::new(second_hash.clone())]);

    assert!(!first_buf.bytes().is_empty());
    assert_eq!(first_buf.bytes(), second_buf.bytes(), "record/replay bytes");
    let digest = |hash: &Mutex<EventHash>| *hash.lock().expect("the run is over");
    assert_eq!(digest(&first_hash), digest(&second_hash), "record/replay digests");
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn origin(packet: u64) -> TraceEvent {
    let packet = DataId(packet);
    TraceEvent::PacketOrigin { at: ms(1), packet, origin: NodeId(5), measured: true }
}

fn delivered(packet: u64) -> TraceEvent {
    let packet = DataId(packet);
    TraceEvent::Delivered { at: ms(9), packet, node: NodeId(0), delay_s: 0.008, hops: 0 }
}

/// Merged live files fold in file order: a drop another daemon traced can
/// come after the delivery, and must not undo it.
#[test]
fn delivered_folded_before_dropped_stays_delivered() {
    let dropped = TraceEvent::Dropped { at: ms(4), packet: DataId(7), reason: DropReason::NoRoute };
    let ledger = PacketLedger::from_events([origin(7), delivered(7), dropped]);
    let record = ledger.packet(DataId(7)).expect("folded");
    assert!(matches!(record.outcome, Outcome::Delivered { node: NodeId(0), .. }), "{record:?}");
    assert_eq!(record.deliveries, 1);
    assert_eq!((ledger.stats().delivered, ledger.stats().dropped), (1, 0));
}
