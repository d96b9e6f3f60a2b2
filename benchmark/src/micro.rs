//! Micro-loops: direct calls into the public functions of the layers the
//! traced run cannot time from outside (the Kautz tables, the spatial
//! grid, the trace codec, the CAN tier, the fault oracle) and of the
//! floor under the daemon (a loopback datagram).
//!
//! Each loop takes its inputs from the seed, feeds results to
//! `black_box`, and reports the best of [`BATCHES`] batches as
//! nanoseconds per call. The loops do not depend on the workload, so
//! every traced run reports them all.

use can_dht::{CanNetwork, Coord};
use kautz::{KautzId, RouteTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refer::{ReferConfig, ReferProtocol};
use refer_obs::{
    encode_frame, from_jsonl_line, to_jsonl_line, FrameDecoder, PacketLedger, VecSink,
};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};
use wsan_sim::trace::TraceEvent;
use wsan_sim::{runner, NodeId, Point, SimDuration, SpatialGrid};

use crate::workloads::{flood_config, paper_config, Size};

const BATCHES: usize = 3;

/// Calls per batch at full size, cut sixteen-fold for the crate's tests.
fn calls(full: usize, size: Size) -> usize {
    match size {
        Size::Full => full,
        Size::Smoke => full / 16,
    }
}

/// One per-layer number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Nanoseconds per call of `f`, the best of [`BATCHES`] batches of
/// `calls` calls; `f` gets the call's index within its batch.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `count` ordered pairs of distinct vertices of an `n`-vertex graph.
fn vertex_pairs(rng: &mut StdRng, n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            (u, v)
        })
        .collect()
}

/// The routing primitives over pairs of K(2,3) (the paper's cell) and
/// K(2,10) (the fabric): table lookups and the ID arithmetic they
/// replace.
fn kautz(seed: u64, size: Size, out: &mut Vec<Metric>) {
    for (tag, k) in [("k3", 3usize), ("k10", 10)] {
        let table = RouteTable::new(2, k).expect("K(2, k) is a valid graph");
        let n = table.node_count();
        let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
        let pairs = vertex_pairs(&mut rng, n, 1 << 14);
        let pair = |i: usize| pairs[i & (pairs.len() - 1)];
        let ids: Vec<KautzId> = (0..n).map(|i| table.id_of(i)).collect();

        let ns = ns_per_call(calls(1 << 19, size), |i| {
            let (u, v) = pair(i);
            black_box(table.next_hop(u, v));
        });
        out.push(metric(format!("kautz.table.next_hop.{tag}.ns"), ns, "ns"));
        let ns = ns_per_call(calls(1 << 19, size), |i| {
            let (u, v) = pair(i);
            black_box(table.regular_next(u, v, (i % k) as u8));
        });
        out.push(metric(
            format!("kautz.table.regular_next.{tag}.ns"),
            ns,
            "ns",
        ));
        let ns = ns_per_call(calls(1 << 16, size), |i| {
            let (u, v) = pair(i);
            black_box(table.disjoint_plans(u, v));
        });
        out.push(metric(
            format!("kautz.table.disjoint_plans.{tag}.ns"),
            ns,
            "ns",
        ));
        let ns = ns_per_call(calls(1 << 14, size), |i| {
            let (u, v) = pair(i);
            black_box(kautz::disjoint_paths(&ids[u], &ids[v]).expect("distinct vertices"));
        });
        out.push(metric(format!("kautz.disjoint.paths.{tag}.ns"), ns, "ns"));
        let ns = ns_per_call(calls(1 << 16, size), |i| {
            let (u, v) = pair(i);
            black_box(kautz::greedy_next_hop(&ids[u], &ids[v]).expect("distinct vertices"));
        });
        out.push(metric(
            format!("kautz.routing.greedy_next_hop.{tag}.ns"),
            ns,
            "ns",
        ));
    }
}

/// The spatial grid at `flood_local`'s density and cell side: 3×3-block
/// queries at node positions, and relocations by one mobility tick.
fn grid(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let cfg = flood_config(seed, size);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.sensors;
    let mut positions: Vec<Point> = (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(0.0..=cfg.area.width),
                rng.gen_range(0.0..=cfg.area.height),
            )
        })
        .collect();
    // The cell side the simulator picks: the largest radio range.
    let side = cfg.sensor_range.max(cfg.actuator_range);
    let mut grid = SpatialGrid::new(cfg.area, side, positions.iter().copied());
    let mut buf = Vec::new();
    let mut candidates = 0usize;
    let queries = calls(1 << 14, size);
    let ns = ns_per_call(queries, |i| {
        buf.clear();
        grid.candidates_into(positions[i % n], &mut buf);
        candidates += buf.len();
    });
    out.push(metric("sim.grid.query.ns", ns, "ns"));
    out.push(metric(
        "sim.grid.candidates_per_query",
        candidates as f64 / (queries * BATCHES) as f64,
        "count",
    ));
    let step = cfg.mobility.max_speed * cfg.mobility.tick.as_secs_f64();
    let ns = ns_per_call(n, |i| {
        let p = positions[i];
        let q = cfg.area.clamp(Point::new(
            p.x + rng.gen_range(-step..=step),
            p.y + rng.gen_range(-step..=step),
        ));
        positions[i] = q;
        grid.relocate(NodeId(i as u32), q);
    });
    out.push(metric("sim.grid.relocate.ns", ns, "ns"));
}

/// Greedy CAN routing between members of a 64-zone network.
fn dht(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = CanNetwork::new();
    let mut members = Vec::new();
    while members.len() < 64 {
        if let Ok(id) = net.join(Coord::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))) {
            members.push(id);
        }
    }
    let targets: Vec<Coord> = (0..1024)
        .map(|_| Coord::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let ns = ns_per_call(calls(1 << 14, size), |i| {
        black_box(net.route(members[i % members.len()], &targets[i % targets.len()]));
    });
    out.push(metric("dht.route.ns", ns, "ns"));
}

/// The fault and link oracle of the simulator's driver on the paper's
/// world (what `SpanCtx` counts but does not time).
fn oracle(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let cfg = paper_config(seed, size);
    let horizon = cfg.warmup;
    let ctx = runner::construct(
        cfg,
        &mut ReferProtocol::new(ReferConfig::default()),
        horizon,
    );
    let n = ctx.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = vertex_pairs(&mut rng, n, 1 << 12);
    let ns = ns_per_call(calls(1 << 20, size), |i| {
        let (a, b) = pairs[i & (pairs.len() - 1)];
        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
        // REFER's mix: a fault check per candidate, a link check per pick.
        if i & 3 == 0 {
            black_box(ctx.link_ok(a, b));
        } else {
            black_box(ctx.is_faulty(a));
        }
    });
    out.push(metric("sim.ctx.oracle.ns", ns, "ns"));
}

/// One datagram of the daemon's size across two loopback sockets of this
/// process: send, then a blocking receive. Informational; reads 0 where
/// the sandbox has no loopback.
fn udp_loopback(size: Size, out: &mut Vec<Metric>) {
    let measure = || -> std::io::Result<f64> {
        let a = UdpSocket::bind(("127.0.0.1", 0))?;
        let b = UdpSocket::bind(("127.0.0.1", 0))?;
        b.set_read_timeout(Some(Duration::from_secs(1)))?;
        let to = b.local_addr()?;
        let datagram = [0x5au8; 221];
        let mut buf = [0u8; 512];
        let mut failed = None;
        let ns = ns_per_call(calls(2_000, size), |_| {
            let sent = a.send_to(&datagram, to).and_then(|_| b.recv_from(&mut buf));
            if let Err(e) = sent {
                failed = Some(e);
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(ns),
        }
    };
    out.push(metric(
        "node.udp.loopback.ns",
        measure().unwrap_or(0.0),
        "ns",
    ));
}

/// The trace codec, framing and ledger over a recorded REFER trace: the
/// paper scenario cut to 100 s measured, a few hundred thousand events.
fn obs(seed: u64, size: Size, out: &mut Vec<Metric>) {
    let mut cfg = paper_config(seed, size);
    cfg.duration = cfg.duration.min(SimDuration::from_secs(100));
    let (sink, handle) = VecSink::new();
    let mut refer = ReferProtocol::new(ReferConfig::default());
    let _ = runner::run_with_sinks(cfg, &mut refer, vec![Box::new(sink)]);
    let events: Vec<TraceEvent> = handle.take();
    let n = events.len();
    assert!(n > 0, "a traced REFER run records events");

    let mut lines: Vec<String> = Vec::with_capacity(n);
    let start = Instant::now();
    lines.extend(events.iter().map(to_jsonl_line));
    out.push(metric(
        "obs.codec.encode.ns",
        start.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));
    let bytes: usize = lines.iter().map(String::len).sum();
    out.push(metric(
        "obs.codec.bytes_per_event",
        bytes as f64 / n as f64,
        "count",
    ));

    let start = Instant::now();
    for line in &lines {
        black_box(from_jsonl_line(line).expect("the codec reads its own lines"));
    }
    out.push(metric(
        "obs.codec.decode.ns",
        start.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));

    let start = Instant::now();
    let frames: Vec<Vec<u8>> = lines.iter().map(|l| encode_frame(l.as_bytes())).collect();
    out.push(metric(
        "obs.frame.encode.ns",
        start.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));

    let start = Instant::now();
    let mut decoder = FrameDecoder::new();
    for frame in &frames {
        decoder.feed(frame);
        black_box(
            decoder
                .next_frame()
                .expect("well-formed frame")
                .expect("complete frame"),
        );
    }
    out.push(metric(
        "obs.frame.decode.ns",
        start.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));

    let start = Instant::now();
    let ledger = PacketLedger::from_events(events);
    out.push(metric(
        "obs.ledger.fold.ns",
        start.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));
    black_box(ledger.len());
}

/// The workload-independent loops, a few hundred milliseconds in all.
pub fn run_all(seed: u64, size: Size) -> Vec<Metric> {
    let mut out = Vec::new();
    kautz(seed, size, &mut out);
    grid(seed, size, &mut out);
    dht(seed, size, &mut out);
    oracle(seed, size, &mut out);
    udp_loopback(size, &mut out);
    obs(seed, size, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_loop_reports_a_positive_finite_number() {
        let metrics = run_all(3, Size::Smoke);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "kautz.table.next_hop.k3.ns",
            "kautz.table.regular_next.k10.ns",
            "kautz.table.disjoint_plans.k10.ns",
            "kautz.disjoint.paths.k3.ns",
            "kautz.routing.greedy_next_hop.k10.ns",
            "sim.grid.query.ns",
            "sim.grid.candidates_per_query",
            "sim.grid.relocate.ns",
            "dht.route.ns",
            "sim.ctx.oracle.ns",
            "node.udp.loopback.ns",
            "obs.codec.encode.ns",
            "obs.codec.decode.ns",
            "obs.codec.bytes_per_event",
            "obs.frame.encode.ns",
            "obs.frame.decode.ns",
            "obs.ledger.fold.ns",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for m in &metrics {
            // The loopback figure reads 0 in a sandbox without sockets.
            let floor = if m.name == "node.udp.loopback.ns" {
                0.0
            } else {
                f64::MIN_POSITIVE
            };
            assert!(
                m.value.is_finite() && m.value >= floor,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
}
