//! End-to-end forensics: a traced faulty run streams to JSONL, the codec
//! round-trips every line, and the ledger reconstructs a dropped packet's
//! full hop chain with its drop reason.

use refer_bench::{base_config, run_system_with_sinks, System};
use refer_obs::{
    from_jsonl_line, to_jsonl_line, HashingSink, JsonlSink, Outcome, PacketLedger, SharedBuf,
    VecSink,
};
use wsan_sim::{FaultModel, SimConfig};

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
    let (first_hash_sink, first_hash) = HashingSink::new();
    let (second_hash_sink, second_hash) = HashingSink::new();
    run(vec![Box::new(JsonlSink::new(first_buf.clone())), Box::new(first_hash_sink)]);
    run(vec![Box::new(JsonlSink::new(second_buf.clone())), Box::new(second_hash_sink)]);

    assert!(!first_buf.bytes().is_empty());
    assert_eq!(first_buf.bytes(), second_buf.bytes(), "record/replay bytes");
    assert_eq!(first_hash.get(), second_hash.get(), "record/replay digests");
}
