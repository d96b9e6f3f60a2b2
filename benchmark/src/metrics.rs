//! The metric names, units and directions `BENCHMARK.json` declares, in
//! one table the code reports from (a test holds the two together).

use crate::spans::Span;
use crate::stats::Better;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

/// What a user of the simulator or the daemon sees, on every workload.
/// Host-time metrics report the minimum over the timed repetitions.
pub const END_TO_END: [Def; 6] = [
    def("events_per_s", "1/s", Better::Higher),
    def("wall_s", "s", Better::Lower),
    def("setup_s", "s", Better::Lower),
    def("peak_rss_mb", "MiB", Better::Lower),
    def("allocs_per_event", "count", Better::Lower),
    def("delivery_ratio", "ratio", Better::Higher),
];

/// End-to-end metrics whose value is a time on this host: they carry a
/// spread, and `compare` judges them against it.
pub fn is_host_time(name: &str) -> bool {
    matches!(name, "events_per_s" | "wall_s" | "setup_s")
}

/// The spans reported under each layer prefix: the protocol hooks of the
/// four handler layers, then driver calls, engine inputs and codec calls.
pub const HOOKS: [Span; 5] = [
    Span::OnMessage,
    Span::OnTimer,
    Span::OnAppData,
    Span::OnAck,
    Span::OnSendExpired,
];
pub const CTX_SPANS: [Span; 5] = [
    Span::CtxSend,
    Span::CtxSendAcked,
    Span::CtxBroadcast,
    Span::CtxSetTimer,
    Span::CtxNeighbors,
];
pub const ENGINE_SPANS: [Span; 3] = [Span::HandleFrame, Span::HandleAppData, Span::HandleTimer];
pub const WIRE_SPANS: [Span; 2] = [Span::WireEncode, Span::WireDecode];
const SPAN_LAYERS: [(&str, &[Span]); 7] = [
    ("core.protocol", &HOOKS),
    ("baselines.fabric", &[Span::OnMessage, Span::OnAppData]),
    ("sim.flood", &[Span::OnMessage, Span::OnAppData]),
    ("bench.duty", &[Span::OnTimer]),
    ("sim.ctx", &CTX_SPANS),
    ("proto.engine", &ENGINE_SPANS),
    ("node.wire", &WIRE_SPANS),
];

/// Per-layer metrics that are not spans: `(name, unit)`. The three after
/// `sim.engine.self_ns` are the simulated network's own end-to-end
/// figures; they apply where a radio model and a simulated clock exist.
const SCALARS: [(&str, &str); 26] = [
    ("host.calib_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("events", "count"),
    ("sim.engine.self_ns", "ns"),
    ("delay_p99_ms", "ms"),
    ("deadline_miss_ratio", "ratio"),
    ("energy_j_per_packet", "J"),
    ("sim.ctx.broadcast.receivers", "count"),
    ("sim.ctx.oracle.calls", "count"),
    ("sim.ctx.oracle.ns", "ns"),
    ("proto.engine.outputs_per_input", "count"),
    ("node.wire.bytes_per_datagram", "count"),
    ("node.udp.loopback.ns", "ns"),
    ("sim.grid.query.ns", "ns"),
    ("sim.grid.candidates_per_query", "count"),
    ("sim.grid.relocate.ns", "ns"),
    ("sim.shard.speedup_t2", "ratio"),
    ("sim.shard.t2_over_t1", "ratio"),
    ("obs.codec.encode.ns", "ns"),
    ("obs.codec.decode.ns", "ns"),
    ("obs.codec.bytes_per_event", "count"),
    ("obs.frame.encode.ns", "ns"),
    ("obs.frame.decode.ns", "ns"),
    ("obs.ledger.fold.ns", "ns"),
    ("obs.sink.jsonl.overhead_ratio", "ratio"),
    ("dht.route.ns", "ns"),
];

/// The Kautz micro-loops, each on K(2,3) and K(2,10).
pub const KAUTZ_LOOPS: [&str; 5] = [
    "kautz.table.next_hop",
    "kautz.table.regular_next",
    "kautz.table.disjoint_plans",
    "kautz.disjoint.paths",
    "kautz.routing.greedy_next_hop",
];

/// The metric-name stem of `span` under `layer`, e.g.
/// `core.protocol.on_message`.
pub fn span_stem(layer: &str, span: Span) -> String {
    format!("{layer}.{}", span.op())
}

/// Every per-layer metric: `(name, unit, better)`. A span contributes
/// `<stem>.ns` (mean self time per call) and `<stem>.calls`. All improve
/// downwards but the speed-up.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str)> = SCALARS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for (layer, spans) in SPAN_LAYERS {
        for &span in spans {
            let stem = span_stem(layer, span);
            out.push((format!("{stem}.ns"), "ns"));
            out.push((format!("{stem}.calls"), "count"));
        }
    }
    for graph in ["k3", "k10"] {
        out.extend(
            KAUTZ_LOOPS
                .iter()
                .map(|stem| (format!("{stem}.{graph}.ns"), "ns")),
        );
    }
    out.into_iter()
        .map(|(name, unit)| {
            let better = if name == "sim.shard.speedup_t2" {
                Better::Higher
            } else {
                Better::Lower
            };
            (name, unit, better)
        })
        .collect()
}
