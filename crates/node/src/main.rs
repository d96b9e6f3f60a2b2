//! `refer-node` — a deployable REFER node plus a localhost cluster
//! launcher.
//!
//! The binary has two faces:
//!
//! * `refer-node run` is one real network node: a poll-style UDP shell
//!   (plain `std::net`, no async runtime) around the `refer-proto`
//!   sans-io core. It replays the simulator's deterministic construction
//!   phase locally (every process arrives at the identical topology and
//!   rosters — nothing about construction crosses the wire), then
//!   switches to live I/O: datagrams and monotonic-clock timers feed
//!   [`refer_proto::Input`]s into [`refer_proto::EngineCore`], and every
//!   [`refer_proto::Output`] becomes a datagram, an armed timer or a
//!   JSONL trace line the existing `trace` tooling ingests unchanged.
//! * `refer-node cluster` spawns one `run` process per node of a small
//!   REFER cell on localhost, injects the workload, collects the
//!   per-node traces, and prints a sim-predicted vs. measured
//!   delivery/latency comparison for the same topology and seed —
//!   exiting nonzero when measured delivery diverges from the
//!   prediction by more than 0.10. Both sides fold their traces by one
//!   rule, [`PacketLedger::measured`], the simulator's own summary rule.
//!
//! Both read their flags through the workspace's one parser: [`RUN`] and
//! [`CLUSTER`] are their tables, and a flag a subcommand does not read
//! exits 2 with the usage. The scenario flags (`--seed 1 --sensors 16
//! --rate 4 --duration 8` by default) must match across the processes of
//! one cluster; `cluster` hands its own to every `run`.

mod wire;
#[cfg(test)]
mod wire_golden;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufWriter, Write as _};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use refer::{ReferConfig, ReferMsg, ReferProtocol};
use refer_bench::cli::{exit_usage, Args, Command};
use refer_obs::{read_jsonl, write_jsonl_line, MeasuredStats, PacketLedger, VecSink};
use refer_proto::{EngineCore, Input, Output, PacketMeta, WorldView};
use wsan_sim::trace::TraceEvent;
use wsan_sim::{
    runner, Area, DataId, Message, NodeId, RunSummary, SimConfig, SimDuration, SimTime,
};

/// The scenario flags: every process of one cluster must be given the
/// same ones.
const SCENARIO: &[&str] = &["--seed S", "--sensors N", "--rate PPS", "--duration SECS"];
const RUN: Command = Command {
    name: "refer-node run",
    positional: "",
    flags: &[&["--node ID"], SCENARIO, &["--trace FILE", "--base-port P", "--epoch-micros T"]],
};
const CLUSTER: Command = Command {
    name: "refer-node cluster",
    positional: "",
    flags: &[SCENARIO, &["--out DIR", "--json FILE", "--base-port P"]],
};
const COMMANDS: [&Command; 2] = [&RUN, &CLUSTER];

/// How far the cluster's measured delivery ratio may stray from the
/// simulator's prediction for the same topology and seed.
const DELIVERY_TOLERANCE: f64 = 0.10;

/// The port of node 0 unless `--base-port` moves it.
const BASE_PORT: u16 = 45700;

/// Prints `err` with the usage and exits 2.
fn usage(err: &str) -> ! {
    exit_usage(err, &COMMANDS)
}

/// A flag's value, or the usage error it makes.
fn or_usage<T>(read: Result<T, String>) -> T {
    read.unwrap_or_else(|e| usage(&e))
}

/// Scenario knobs shared by `run` and `cluster`; every process of one
/// cluster must agree on them, so both subcommands read the same flags
/// and derive the same [`SimConfig`].
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    sensors: usize,
    rate_pps: u64,
    duration_s: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario { seed: 1, sensors: 16, rate_pps: 4, duration_s: 8 }
    }
}

impl Scenario {
    /// The scenario the flags describe, over the defaults: at least one
    /// K(2,3) cell of sensors, a positive rate and a positive duration.
    fn read(args: &Args) -> Result<Self, String> {
        let positive = |name: &str| match args.get(name)? {
            Some(0) => Err(format!("--{name} must be positive")),
            given => Ok(given),
        };
        let d = Scenario::default();
        let scenario = Scenario {
            seed: args.get("seed")?.unwrap_or(d.seed),
            sensors: args.get("sensors")?.unwrap_or(d.sensors),
            rate_pps: positive("rate")?.unwrap_or(d.rate_pps),
            duration_s: positive("duration")?.unwrap_or(d.duration_s),
        };
        if scenario.sensors < 9 {
            return Err("--sensors must be at least 9 (one K(2,3) cell)".to_string());
        }
        Ok(scenario)
    }

    /// The cluster scenario: one K(2,3) cell — 3 actuators in a triangle
    /// well inside radio range, sensors around them — with every sensor
    /// sourcing `rate_pps` packets/s. The same config drives the serial
    /// simulator (the prediction) and every daemon's construction replay,
    /// which is what makes the comparison apples-to-apples.
    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.area = Area::new(400.0, 400.0);
        cfg.sensors = self.sensors;
        cfg.actuators = 3;
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(self.duration_s);
        // Every alive sensor sources `rate_pps` packets/s, evenly spaced:
        // rounds of 1 s, per-source rate = rate_pps packets of packet_bits.
        cfg.traffic.round_interval = SimDuration::from_secs(1);
        cfg.traffic.sources_per_round = self.sensors;
        cfg.traffic.rate_bps = self.rate_pps as f64 * f64::from(cfg.traffic.packet_bits);
        // A deployed cell neither moves nor breaks: the WorldView frozen
        // out of construction stays the truth for the whole run.
        cfg.mobility.min_speed = 0.0;
        cfg.mobility.max_speed = 0.0;
        cfg.faults.count = 0;
        cfg.seed = self.seed;
        cfg
    }

    fn node_count(&self) -> usize {
        self.sensors + 3
    }

    /// Every node's socket address, indexed by node id: `base_port + id`
    /// on loopback. A cluster whose last port would not fit `u16` is a
    /// configuration error, caught here before anything binds or sends.
    fn peer_addrs(&self, base_port: u16) -> Result<Vec<SocketAddr>, String> {
        let nodes = self.node_count();
        let last_port = u16::try_from(nodes - 1)
            .ok()
            .and_then(|last_id| base_port.checked_add(last_id))
            .ok_or_else(|| {
                format!("--base-port {base_port} leaves no room for {nodes} nodes: ports end at 65535")
            })?;
        Ok((base_port..=last_port)
            .map(|port| SocketAddr::from((Ipv4Addr::LOCALHOST, port)))
            .collect())
    }
}

fn now_unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage("missing subcommand") };
    let (command, run): (&Command, fn(&Args) -> ExitCode) = match cmd.as_str() {
        "run" => (&RUN, cmd_run),
        "cluster" => (&CLUSTER, cmd_cluster),
        other => usage(&format!("unknown subcommand `{other}`")),
    };
    run(&or_usage(command.parse(rest.iter().cloned())))
}

// ---------------------------------------------------------------------
// `run`: one daemon process.
// ---------------------------------------------------------------------

struct Daemon {
    engine: EngineCore<ReferProtocol>,
    socket: UdpSocket,
    /// Every node's address, resolved once at boot.
    peers: Vec<SocketAddr>,
    me: NodeId,
    trace: BufWriter<Box<dyn std::io::Write + Send>>,
    /// The trace line being written, reused across events.
    line: Vec<u8>,
    /// Armed timers for the owned node: `(fire_at_us, tag)`.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    packet_bits: u32,
    tally: Tally,
}

/// What the daemon reports on exit: datagrams and wire bytes each way,
/// and what became of the datagrams it could not use.
#[derive(Default)]
struct Tally {
    /// Datagrams sent, and their bytes.
    sent: u64,
    sent_bytes: u64,
    /// Datagrams received, whatever became of them, and their bytes.
    received: u64,
    received_bytes: u64,
    delivered: u64,
    /// Datagrams that did not decode, or name a sender outside the
    /// cluster.
    rejects: u64,
    /// Datagrams that decoded but name another node as receiver.
    misaddressed: u64,
}

/// Undecodable datagrams logged in full before the daemon only counts:
/// a peer (or anyone else on the host) sending garbage must not turn
/// stderr into an unbounded log.
const LOGGED_REJECTS: u64 = 5;

impl Daemon {
    /// Cluster-clock creation time of a packet this process has seen (own
    /// emission or wire arrival), for end-to-end delay accounting: the
    /// engine's packet table already holds it.
    fn created_us(&self, packet: DataId) -> Option<u64> {
        self.engine.ctx().packet_meta(packet).map(|meta| meta.created.as_micros())
    }

    fn trace_event(&mut self, ev: &TraceEvent) {
        self.line.clear();
        write_jsonl_line(ev, &mut self.line);
        self.line.push(b'\n');
        // A dead trace pipe should not take the data plane down with it.
        let _ = self.trace.write_all(&self.line);
    }

    /// Executes everything the protocol asked for in response to one
    /// input, at cluster time `now_us`.
    fn run_outputs(&mut self, now_us: u64, outputs: Vec<Output<ReferMsg>>) {
        let at = SimTime::from_micros(now_us);
        for out in outputs {
            match out {
                Output::Send { from, to, size_bits, account, broadcast, payload } => {
                    let created = match &payload {
                        ReferMsg::Data(f) => self.created_us(f.data).unwrap_or(0),
                        _ => 0,
                    };
                    let msg = Message { from, size_bits, account, broadcast, payload };
                    let wire = wire::encode_datagram(to, created, &msg);
                    // A destination outside the cluster has no address:
                    // the send fails like any other.
                    let result = match self.peers.get(to.index()) {
                        Some(addr) => self.socket.send_to(&wire, addr).map(drop),
                        None => Err(std::io::ErrorKind::AddrNotAvailable.into()),
                    };
                    match result {
                        Ok(()) => {
                            self.tally.sent += 1;
                            self.tally.sent_bytes += wire.len() as u64;
                            self.trace_event(&TraceEvent::Send {
                                at,
                                from,
                                to,
                                size_bits,
                                account,
                            });
                        }
                        Err(_) => self.trace_event(&TraceEvent::SendFailed { at, from, to }),
                    }
                }
                Output::ArmTimer { node, delay, tag } => {
                    // Each process arms only its own node's timers; peers
                    // arm theirs when they process the same causal event.
                    if node == self.me {
                        self.timers.push(Reverse((now_us + delay.as_micros(), tag)));
                    }
                }
                Output::Deliver { packet, node, hops } => {
                    let created = self.created_us(packet).unwrap_or(now_us);
                    let delay_s = now_us.saturating_sub(created) as f64 / 1e6;
                    self.tally.delivered += 1;
                    self.trace_event(&TraceEvent::Delivered { at, packet, node, delay_s, hops });
                }
                Output::Trace(ev) => self.trace_event(&ev),
            }
        }
    }

    /// Feeds one decoded datagram into the core.
    fn on_datagram(&mut self, now_us: u64, bytes: &[u8]) {
        self.tally.received += 1;
        self.tally.received_bytes += bytes.len() as u64;
        let (to, created_us, msg) = match wire::decode_datagram(bytes) {
            Ok(d) => d,
            Err(e) => {
                self.tally.rejects += 1;
                if self.tally.rejects <= LOGGED_REJECTS {
                    eprintln!("refer-node[{}]: dropping undecodable datagram: {e}", self.me.0);
                }
                if self.tally.rejects == LOGGED_REJECTS {
                    eprintln!("refer-node[{}]: further rejects are only counted", self.me.0);
                }
                return;
            }
        };
        if to != self.me {
            self.tally.misaddressed += 1;
            return;
        }
        // A sender with no row in the world view: its id would enter the
        // protocol's beacon and candidate lists, which later index it.
        if msg.from.index() >= self.engine.ctx().world().node_count() {
            self.tally.rejects += 1;
            return;
        }
        if let ReferMsg::Data(frame) = &msg.payload {
            // First sight of a wire packet: register what its origin knew
            // so the protocol's data_* queries resolve here too. A later
            // copy of the same packet keeps the first creation time, so
            // delays do not shift.
            let data = frame.data;
            if self.created_us(data).is_none() {
                self.engine.register_packet(
                    data,
                    PacketMeta {
                        origin: NodeId((data.0 >> 32) as u32),
                        size_bits: self.packet_bits,
                        dest: None,
                        created: SimTime::from_micros(created_us),
                    },
                );
            }
        }
        let at = SimTime::from_micros(now_us);
        let outputs: Vec<_> = self.engine.handle(Input::Frame { at, to: self.me, msg }).collect();
        self.run_outputs(now_us, outputs);
    }

    /// Emits one application packet from the owned sensor.
    fn emit(&mut self, now_us: u64, packet: DataId) {
        let at = SimTime::from_micros(now_us);
        self.trace_event(&TraceEvent::PacketOrigin { at, packet, origin: self.me, measured: true });
        let input = Input::AppData {
            at,
            node: self.me,
            packet,
            size_bits: self.packet_bits,
            dest: None,
        };
        let outputs: Vec<_> = self.engine.handle(input).collect();
        self.run_outputs(now_us, outputs);
    }

    fn fire_due_timers(&mut self, now_us: u64) {
        while let Some(&Reverse((fire_at, tag))) = self.timers.peek() {
            if fire_at > now_us {
                break;
            }
            self.timers.pop();
            let input =
                Input::TimerFired { at: SimTime::from_micros(fire_at.max(now_us)), node: self.me, tag };
            let outputs: Vec<_> = self.engine.handle(input).collect();
            self.run_outputs(now_us, outputs);
        }
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    let scenario = or_usage(Scenario::read(args));
    let node: u32 = or_usage(args.get("node")).unwrap_or_else(|| usage("run needs --node ID"));
    if node as usize >= scenario.node_count() {
        let nodes = scenario.node_count();
        usage(&format!("--node {node} out of range: scenario has {nodes} nodes"));
    }
    let base_port = or_usage(args.get("base-port")).unwrap_or(BASE_PORT);
    let peers = or_usage(scenario.peer_addrs(base_port));
    let trace_path: Option<PathBuf> = or_usage(args.get("trace"));
    let epoch_micros: Option<u64> = or_usage(args.get("epoch-micros"));

    let cfg = scenario.config();
    let warmup = cfg.warmup;
    let packet_bits = cfg.traffic.packet_bits;

    // Deterministic construction replay: every process of the cluster
    // runs this identically and arrives at the identical world.
    let mut proto = ReferProtocol::new(ReferConfig::default());
    let ctx = runner::construct(cfg.clone(), &mut proto, warmup);
    let world = WorldView::from_sim(&ctx);
    drop(ctx);
    let me = NodeId(node);
    let is_sensor = world.sensor_ids().contains(&me);
    let engine = EngineCore::new(proto, world);

    let socket = match UdpSocket::bind(peers[me.index()]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("refer-node[{node}]: cannot bind {}: {e}", peers[me.index()]);
            return ExitCode::FAILURE;
        }
    };

    let trace: Box<dyn std::io::Write + Send> = match &trace_path {
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("refer-node[{node}]: cannot create trace file {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::sink()),
    };

    let mut daemon = Daemon {
        engine,
        socket,
        peers,
        me,
        trace: BufWriter::new(trace),
        line: Vec::new(),
        timers: BinaryHeap::new(),
        packet_bits,
        tally: Tally::default(),
    };

    // Synchronize the cluster clock: all processes begin the live phase
    // at the shared epoch, so their trace timestamps are comparable.
    if let Some(epoch) = epoch_micros {
        let now = now_unix_micros();
        if epoch > now {
            std::thread::sleep(Duration::from_micros(epoch - now));
        }
    }
    let t0 = Instant::now();
    let warmup_us = warmup.as_micros();
    let sim_now_us = |t0: &Instant| warmup_us + t0.elapsed().as_micros() as u64;

    // Traffic: this sensor emits `rate_pps` evenly spaced packets/s for
    // the measured window, then keeps forwarding during the drain so
    // packets in flight elsewhere can still complete.
    let gap_us = 1_000_000 / scenario.rate_pps;
    let stop_emit_us = warmup_us + scenario.duration_s * 1_000_000;
    let drain_until_us = stop_emit_us + 1_500_000;
    let mut next_emit_us = if is_sensor { Some(warmup_us) } else { None };
    let mut seq: u64 = 0;

    let mut buf = vec![0u8; 64 * 1024];

    loop {
        let now_us = sim_now_us(&t0);
        if now_us >= drain_until_us {
            break;
        }
        daemon.fire_due_timers(now_us);
        while let Some(at) = next_emit_us {
            if at > now_us || at >= stop_emit_us {
                break;
            }
            let packet = DataId((u64::from(me.0) << 32) | seq);
            seq += 1;
            daemon.emit(now_us, packet);
            next_emit_us = Some(at + gap_us);
        }
        // Sleep in the socket until the next deadline (timer, emission or
        // the 5 ms poll cap), whichever is soonest.
        let mut wake_us = now_us + 5_000;
        if let Some(&Reverse((t, _))) = daemon.timers.peek() {
            wake_us = wake_us.min(t);
        }
        if let Some(t) = next_emit_us {
            if t < stop_emit_us {
                wake_us = wake_us.min(t);
            }
        }
        let timeout = Duration::from_micros(wake_us.saturating_sub(now_us).max(200));
        let _ = daemon.socket.set_read_timeout(Some(timeout));
        match daemon.socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                let now_us = sim_now_us(&t0);
                daemon.on_datagram(now_us, &buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => {
                eprintln!("refer-node[{node}]: socket error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if daemon.trace.flush().is_err() {
        eprintln!("refer-node[{node}]: trace flush failed");
        return ExitCode::FAILURE;
    }
    let t = &daemon.tally;
    println!(
        "refer-node[{node}]: done (emitted {seq}, delivered {}, sent {} frames / {} bytes, \
         received {} datagrams / {} bytes, rejected {}, misaddressed {})",
        t.delivered, t.sent, t.sent_bytes, t.received, t.received_bytes, t.rejects, t.misaddressed
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// `cluster`: launcher + sim-vs-measured comparison.
// ---------------------------------------------------------------------

/// Runs the serial simulator on the cluster scenario: the prediction side
/// of the comparison, its trace folded by the rule the measured side's is,
/// and the run's own summary.
fn predict(cfg: SimConfig) -> (MeasuredStats, RunSummary) {
    let (sink, events) = VecSink::new();
    let mut proto = ReferProtocol::new(ReferConfig::default());
    let (summary, _) = runner::run_with_sinks(cfg, &mut proto, vec![Box::new(sink)]);
    (PacketLedger::from_events(events.take()).measured(), summary)
}

/// Merges the per-node traces in `dir` into one ledger: each packet's
/// origin, hops and delivery come from different processes' files. A
/// line that does not decode fails the merge, named `file:line`.
fn merge_traces(dir: &Path, nodes: usize) -> Result<PacketLedger, String> {
    let mut ledger = PacketLedger::default();
    for id in 0..nodes {
        for event in read_jsonl(dir.join(format!("node-{id}.jsonl")))? {
            ledger.fold(event);
        }
    }
    Ok(ledger)
}

/// The comparison artifact: one flat object, delivery ratios and the
/// measured delay percentiles in seconds, an undefined value as `null`.
fn comparison_json(nodes: u64, sim: &MeasuredStats, live: &MeasuredStats, wall_s: f64) -> Vec<u8> {
    let mut out = Vec::new();
    let w = &mut serde::json::Writer::new(&mut out);
    w.begin_object().key("nodes").u64(nodes);
    w.key("measured_delivery").f64(live.delivery_ratio);
    w.key("sim_delivery").f64(sim.delivery_ratio);
    w.key("delay_p50_s").f64(live.delay_p50_s);
    w.key("delay_p95_s").f64(live.delay_p95_s);
    w.key("delay_p99_s").f64(live.delay_p99_s);
    w.key("wall_s").f64(wall_s).end_object();
    out.push(b'\n');
    out
}

fn cmd_cluster(args: &Args) -> ExitCode {
    let scenario = or_usage(Scenario::read(args));
    let base_port = or_usage(args.get("base-port")).unwrap_or(BASE_PORT);
    // A cluster that does not fit the ports is refused before any spawn.
    or_usage(scenario.peer_addrs(base_port));
    let out_dir: PathBuf = or_usage(args.get("out")).unwrap_or_else(|| "cluster-traces".into());
    let json_path: Option<PathBuf> = or_usage(args.get("json"));

    let nodes = scenario.node_count();
    let cfg = scenario.config();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cluster: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    println!(
        "cluster: predicting with the serial simulator (seed {}, {} nodes)...",
        scenario.seed, nodes
    );
    let (sim, _) = predict(cfg);

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cluster: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The live phase starts 3 s from now: enough for every process to
    // replay construction and bind its socket.
    let epoch = now_unix_micros() + 3_000_000;
    println!("cluster: spawning {nodes} refer-node processes on 127.0.0.1:{base_port}+id...");
    let wall_start = Instant::now();
    let mut children = Vec::with_capacity(nodes);
    for id in 0..nodes {
        let trace = out_dir.join(format!("node-{id}.jsonl"));
        let child = std::process::Command::new(&exe)
            .args([
                "run",
                "--node",
                &id.to_string(),
                "--seed",
                &scenario.seed.to_string(),
                "--sensors",
                &scenario.sensors.to_string(),
                "--rate",
                &scenario.rate_pps.to_string(),
                "--duration",
                &scenario.duration_s.to_string(),
                "--base-port",
                &base_port.to_string(),
                "--epoch-micros",
                &epoch.to_string(),
                "--trace",
            ])
            .arg(&trace)
            .stdout(std::process::Stdio::null())
            .spawn();
        match child {
            Ok(c) => children.push((id, c)),
            Err(e) => {
                eprintln!("cluster: cannot spawn node {id}: {e}");
                for (_, mut c) in children {
                    let _ = c.kill();
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = 0usize;
    for (id, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("cluster: node {id} exited with {status}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("cluster: wait for node {id} failed: {e}");
                failed += 1;
            }
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    if failed > 0 {
        eprintln!("cluster: {failed} node processes failed");
        return ExitCode::FAILURE;
    }

    let measured = match merge_traces(&out_dir, nodes) {
        Ok(ledger) => ledger.measured(),
        Err(e) => {
            eprintln!("cluster: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!();
    println!("sim-predicted vs. measured (seed {}, {nodes} nodes)", scenario.seed);
    println!("{:<22} {:>12} {:>12}", "", "sim", "measured");
    println!("{:<22} {:>12} {:>12}", "packets offered", sim.offered, measured.offered);
    println!("{:<22} {:>12} {:>12}", "packets delivered", sim.delivered, measured.delivered);
    let (s, m) = (&sim, &measured);
    println!("{:<22} {:>12.4} {:>12.4}", "delivery ratio", s.delivery_ratio, m.delivery_ratio);
    let ms = |row: &str, sim_s: f64, live_s: f64| {
        println!("{row:<22} {:>12.2} {:>12.2}", sim_s * 1e3, live_s * 1e3);
    };
    ms("delay p50 (ms)", s.delay_p50_s, m.delay_p50_s);
    ms("delay p95 (ms)", s.delay_p95_s, m.delay_p95_s);
    ms("delay p99 (ms)", s.delay_p99_s, m.delay_p99_s);
    println!("wall time: {wall_s:.1} s");

    if let Some(path) = &json_path {
        let json = comparison_json(nodes as u64, &sim, &measured, wall_s);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cluster: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("comparison artifact: {}", path.display());
    }

    if measured.offered == 0 {
        eprintln!("cluster: FAILED — no measured packets were offered");
        return ExitCode::FAILURE;
    }
    let divergence = (measured.delivery_ratio - sim.delivery_ratio).abs();
    if divergence > DELIVERY_TOLERANCE {
        eprintln!(
            "cluster: FAILED — measured delivery {:.4} diverges from predicted {:.4} \
             by {divergence:.4} (> {DELIVERY_TOLERANCE})",
            measured.delivery_ratio, sim.delivery_ratio
        );
        return ExitCode::FAILURE;
    }
    println!(
        "cluster: PASSED — delivery divergence {divergence:.4} within tolerance {DELIVERY_TOLERANCE}"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use refer::DataFrame;
    use refer_obs::SharedBuf;
    use std::sync::Arc;
    use wsan_sim::{DropReason, EnergyAccount};

    /// The cluster scenario must be one the simulator predicts well for:
    /// the comparison (and the CI gate on it) is only meaningful if the
    /// sim side delivers reliably under zero faults.
    #[test]
    fn sim_prediction_on_cluster_scenario_is_healthy() {
        let (metrics, _) = predict(Scenario::default().config());
        assert!(metrics.offered > 0, "scenario offers no measured traffic: {metrics:?}");
        assert!(
            metrics.delivery_ratio > 0.8,
            "cluster scenario must deliver reliably in the simulator: {metrics:?}"
        );
    }

    /// The gate's sim column is the run's own summary: the shared fold of
    /// its trace reads every delivery, delay and hop field exactly as
    /// `RunSummary` does (which keeps no packet counts, only their ratio).
    /// (Under the Discovered fault model a packet can
    /// be traced dropped and then delivered, so this holds fault-free.)
    #[test]
    fn the_shared_fold_of_the_sim_trace_is_its_run_summary() {
        for seed in 1..=3 {
            let (fold, summary) = predict(Scenario { seed, ..Scenario::default() }.config());
            let folded = [
                fold.delivery_ratio,
                fold.delay_p50_s,
                fold.delay_p95_s,
                fold.delay_p99_s,
                fold.hop_p50,
                fold.hop_p99,
            ];
            let summed = [
                summary.delivery_ratio,
                summary.delay_p50_s,
                summary.delay_p95_s,
                summary.delay_p99_s,
                summary.hop_p50,
                summary.hop_p99,
            ];
            assert_eq!(folded, summed, "seed {seed}");
            assert!(folded.iter().all(|x| x.is_finite()), "seed {seed}: {fold:?}");
        }
    }

    /// A cluster that delivers nothing still writes JSON: its undefined
    /// ratio and delays are `null`, in the artifact's own key order.
    #[test]
    fn an_artifact_with_no_deliveries_parses_with_null_delays() {
        let (sim, _) = predict(Scenario::default().config());
        let nothing = PacketLedger::default().measured();
        let json = comparison_json(19, &sim, &nothing, 1.5);
        let text = std::str::from_utf8(&json).expect("UTF-8");
        let value = serde::json::from_str(text).expect("the artifact parses");
        let keys: Vec<&str> =
            value.as_map().expect("an object").iter().map(|(key, _)| key.as_str()).collect();
        let wanted = [
            "nodes",
            "measured_delivery",
            "sim_delivery",
            "delay_p50_s",
            "delay_p95_s",
            "delay_p99_s",
            "wall_s",
        ];
        assert_eq!(keys, wanted);
        for key in ["measured_delivery", "delay_p50_s", "delay_p95_s", "delay_p99_s"] {
            assert_eq!(value.get(key), Some(&serde::Value::Null), "{key} in {text}");
        }
        assert_eq!(value.get("sim_delivery").and_then(|v| v.as_f64()), Some(sim.delivery_ratio));
    }

    /// A daemon's trace cut mid-line fails the cluster's merge, naming the
    /// file and line, where it used to be counted and skipped.
    #[test]
    fn a_truncated_trace_line_fails_the_merge_naming_it() {
        let dir = std::env::temp_dir().join(format!("refer-node-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let origin = TraceEvent::PacketOrigin {
            at: SimTime::from_micros(1),
            packet: DataId(1),
            origin: NodeId(0),
            measured: true,
        };
        let line = refer_obs::to_jsonl_line(&origin);
        std::fs::write(dir.join("node-0.jsonl"), format!("{line}\n")).expect("write");
        let cut = &line[..line.len() / 2];
        std::fs::write(dir.join("node-1.jsonl"), format!("{line}\n{cut}\n")).expect("write");
        let merged = merge_traces(&dir, 1).map(|ledger| ledger.measured().offered);
        let truncated = merge_traces(&dir, 2).map(|_| ());
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(merged, Ok(1));
        let err = truncated.expect_err("a truncated line fails the merge");
        let named = format!("{}:2: ", dir.join("node-1.jsonl").display());
        assert!(err.starts_with(&named), "{err}");
    }

    /// Every malformed flag is a usage error in the parser's wording,
    /// before anything binds or spawns; `main` exits 2 on each.
    /// A base port the cluster does not fit under is refused up front —
    /// it used to wrap (release) or panic (debug) at the first send to a
    /// high node id.
    #[test]
    fn base_port_must_leave_room_for_every_node() {
        let s = Scenario::default();
        let peers = s.peer_addrs(45700).expect("fits");
        assert_eq!(peers.len(), s.node_count());
        assert_eq!(peers[0].port(), 45700);
        assert_eq!(peers[18], "127.0.0.1:45718".parse().expect("addr"));
        assert_eq!(s.peer_addrs(65535 - 18).expect("last port is 65535")[18].port(), 65535);
        assert!(s.peer_addrs(65535 - 17).is_err());
        assert!(s.peer_addrs(65535).is_err());
        let huge = Scenario { sensors: 70_000, ..Scenario::default() };
        assert!(huge.peer_addrs(0).is_err(), "more nodes than ports");
    }

    /// Node 3 of the default scenario with no peers to reach and its trace
    /// discarded: what `on_datagram` needs and nothing else.
    fn offline_daemon() -> Daemon {
        let cfg = Scenario::default().config();
        let mut proto = ReferProtocol::new(ReferConfig::default());
        let ctx = runner::construct(cfg.clone(), &mut proto, cfg.warmup);
        Daemon {
            engine: EngineCore::new(proto, WorldView::from_sim(&ctx)),
            socket: UdpSocket::bind("127.0.0.1:0").expect("bind"),
            peers: Vec::new(),
            me: NodeId(3),
            trace: BufWriter::new(Box::new(std::io::sink())),
            line: Vec::new(),
            timers: BinaryHeap::new(),
            packet_bits: cfg.traffic.packet_bits,
            tally: Tally::default(),
        }
    }

    /// A `Data` datagram for node 3 carrying packet `data` toward
    /// `dest_vertex` of cell 0.
    fn data_datagram(data: u64, dest_vertex: u32, created_us: u64) -> Vec<u8> {
        let frame = DataFrame {
            data: DataId(data),
            dest_cell: 0,
            dest_vertex,
            forced: None,
            appended: 0,
            hops: 0,
        };
        wire::encode_datagram(NodeId(3), created_us, &from_7(ReferMsg::Data(frame)))
    }

    fn from_7(payload: ReferMsg) -> Message<ReferMsg> {
        Message {
            from: NodeId(7),
            size_bits: 1024,
            account: EnergyAccount::Communication,
            broadcast: false,
            payload,
        }
    }

    /// Feeds `bytes` to the daemon and requires a counted reject whose
    /// decoding allocated nothing; returns the decoder's error.
    fn counted_reject(daemon: &mut Daemon, bytes: &[u8]) -> wire::WireError {
        let (decoded, allocations) = wire_golden::allocations(|| wire::decode_datagram(bytes));
        let err = decoded.expect_err("hostile datagram decodes");
        assert_eq!(allocations, 0, "{err}");
        let rejects = daemon.tally.rejects;
        daemon.on_datagram(1, bytes);
        assert_eq!(daemon.tally.rejects, rejects + 1, "{err}");
        err
    }

    /// A peer minting a fresh packet id per datagram cannot make the
    /// daemon remember them all: the packet table is a fixed window, so
    /// old ids are forgotten, recent ones resolve, nothing else grows.
    #[test]
    fn a_flood_of_fresh_packet_ids_leaves_bounded_state() {
        let mut daemon = offline_daemon();
        let id = |n: u64| ((n % 19) << 32) | (n / 19);
        const FLOOD: u64 = 100_000;
        for n in 0..FLOOD {
            daemon.on_datagram(n, &data_datagram(id(n), 1, n));
            assert_eq!(daemon.created_us(DataId(id(n))), Some(n), "just registered");
        }
        assert_eq!(daemon.tally.rejects, 0);
        let remembered = (0..FLOOD).filter(|&n| daemon.created_us(DataId(id(n))).is_some()).count();
        assert!((1..=1 << 10).contains(&remembered), "{remembered} of {FLOOD} ids remembered");
        assert!(daemon.timers.is_empty(), "data frames arm nothing");
    }

    /// A `Data` datagram whose destination vertex does not fit a `u32`
    /// is a counted reject at that varint. The largest that fits decodes
    /// and reaches the protocol, whose `forward` drops what the cell graph
    /// does not hold (`hostile_indices_and_cells_are_dropped_not_followed`).
    #[test]
    fn oversized_vertices_are_counted_rejects() {
        let mut daemon = offline_daemon();
        // 2^32 and u64::MAX.
        let too_wide = [vec![0x80, 0x80, 0x80, 0x80, 0x10], [vec![0xff; 9], vec![0x01]].concat()];
        for varint in too_wide {
            let mut bytes = data_datagram(1, 0, 1);
            // The tail is `vertex, forced, appended, hops`.
            let at = bytes.len() - 4;
            assert_eq!(bytes[at], 0);
            bytes.splice(at..=at, varint);
            let err = counted_reject(&mut daemon, &bytes);
            assert_eq!((err.at, err.reason), (at, wire::Reason::OutOfRange("dest_vertex")));
        }
        let largest = data_datagram(1, u32::MAX, 1);
        assert!(wire::decode_datagram(&largest).is_ok());
        daemon.on_datagram(2, &largest);
        assert_eq!(daemon.tally.rejects, 2);
        assert_eq!(daemon.created_us(DataId(1)), Some(1));
        // A later copy of the packet does not move its creation time.
        daemon.on_datagram(3, &data_datagram(1, 1, 99));
        assert_eq!(daemon.created_us(DataId(1)), Some(1));
    }

    /// A sequence count of 2^40 in a 20-byte datagram is refused at the
    /// count, before a `Vec` is sized by it, in every variant that
    /// carries a sequence.
    #[test]
    fn hostile_sequence_counts_are_counted_rejects() {
        let mut daemon = offline_daemon();
        let empty = [
            ReferMsg::Gossip { accused: Arc::default() },
            ReferMsg::PathQuery { qid: 0, ttl: 0, target: NodeId(0), path: Arc::default() },
            ReferMsg::PathAssign { assignments: vec![], hop: 0 },
        ];
        for payload in empty {
            let mut bytes = wire::encode_datagram(NodeId(3), 0, &from_7(payload));
            // Every field here is one byte: the count is the first 0
            // after the tag (PathAssign's trailing `hop` is another).
            let count_at = bytes.len() - if bytes[7] == 3 { 2 } else { 1 };
            assert_eq!(bytes[count_at], 0);
            bytes.splice(count_at..=count_at, [0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
            bytes.resize(20, 0);
            let err = counted_reject(&mut daemon, &bytes);
            assert_eq!((err.at, err.reason), (count_at, wire::Reason::Count(1 << 40)));
        }
    }

    /// A bad item after a count that fits is a counted reject too, but
    /// only after the sequence's `Vec` is sized: one allocation, which
    /// the count check bounds by the datagram's length.
    #[test]
    fn a_bad_item_after_a_fitting_count_allocates_only_its_sequence() {
        let mut daemon = offline_daemon();
        // The second item's node id (2) sits this far from the end.
        let cases = [
            (ReferMsg::Gossip { accused: Arc::new([NodeId(1), NodeId(2)]) }, 1),
            (
                ReferMsg::PathQuery {
                    qid: 0,
                    ttl: 0,
                    target: NodeId(0),
                    path: Arc::new([(NodeId(1), 0.5), (NodeId(2), 0.5)]),
                },
                1 + 8,
            ),
            (
                ReferMsg::PathAssign {
                    assignments: vec![(NodeId(1), 5), (NodeId(2), 5)],
                    hop: 0,
                },
                1 + 1 + 1,
            ),
        ];
        for (payload, from_end) in cases {
            let mut bytes = wire::encode_datagram(NodeId(3), 0, &from_7(payload));
            let at = bytes.len() - from_end;
            assert_eq!(bytes[at], 2);
            bytes.splice(at..=at, [0x82, 0x00]);
            let (decoded, allocations) = wire_golden::allocations(|| wire::decode_datagram(&bytes));
            let err = decoded.expect_err("non-minimal node id decodes");
            assert_eq!((err.at, err.reason), (at, wire::Reason::NonMinimalVarint));
            assert_eq!(allocations, 1, "the sequence's Vec, sized by a count that fits");
            let rejects = daemon.tally.rejects;
            daemon.on_datagram(1, &bytes);
            assert_eq!(daemon.tally.rejects, rejects + 1);
        }
    }

    /// Every byte the layout gives no meaning, and varints it would never
    /// write, are counted rejects.
    #[test]
    fn malformed_envelopes_are_counted_rejects() {
        use wire::Reason;
        let mut daemon = offline_daemon();
        let beacon = wire::encode_datagram(NodeId(3), 0, &from_7(ReferMsg::Beacon));
        assert_eq!(beacon.len(), 8, "format, to, created_us, from, size_bits ×2, flags, tag");
        let patched = |at: usize, byte: u8| {
            let mut bytes = beacon.clone();
            bytes[at] = byte;
            bytes
        };
        let mut eleven = vec![wire::FORMAT];
        eleven.extend_from_slice(&[0x80; 10]);
        eleven.push(0x01);
        let cases = [
            (eleven, Reason::LongVarint),
            ([&[wire::FORMAT, 0x83, 0x00], &beacon[2..]].concat(), Reason::NonMinimalVarint),
            (patched(7, 12), Reason::Unknown("payload tag", 12)),
            (patched(7, 0xff), Reason::Unknown("payload tag", 0xff)),
            (patched(6, 0x05), Reason::Unknown("flag bits", 0x05)),
            (patched(6, 0x81), Reason::Unknown("flag bits", 0x81)),
            (patched(0, wire::FORMAT + 1), Reason::Unknown("format byte", wire::FORMAT + 1)),
            // A version-1 datagram, which carried KIDs as digit strings.
            (patched(0, 0xB1), Reason::Unknown("format byte", 0xB1)),
            (patched(0, b'{'), Reason::Unknown("format byte", b'{')),
        ];
        for (bytes, reason) in cases {
            assert_eq!(counted_reject(&mut daemon, &bytes).reason, reason, "{bytes:02x?}");
        }
    }

    /// A daemon of the JSON-wire build in a mixed-version cluster sends a
    /// u32 length prefix and a JSON document; it is rejected, never
    /// misparsed, framed or bare.
    #[test]
    fn json_datagrams_from_the_previous_wire_are_rejected() {
        let mut daemon = offline_daemon();
        let json = concat!(
            r#"{"to":3,"created_us":1,"from":7,"size_bits":1024,"account":"communication","#,
            r#""broadcast":false,"payload":{"Data":{"data":1,"dest_cell":0,"#,
            r#""dest_kid":{"digits":[0,1,0],"degree":2},"appended":0,"hops":0}}}"#
        );
        let framed = [&(json.len() as u32).to_le_bytes()[..], json.as_bytes()].concat();
        for bytes in [framed, json.as_bytes().to_vec()] {
            counted_reject(&mut daemon, &bytes);
        }
        assert_eq!(daemon.created_us(DataId(1)), None, "nothing reached the packet table");
        assert_eq!(daemon.tally.received, 2);
    }

    /// A datagram for another node decodes but is counted, not processed.
    #[test]
    fn misaddressed_datagrams_are_counted() {
        let mut daemon = offline_daemon();
        let mut other = wire::encode_datagram(NodeId(4), 5, &from_7(ReferMsg::Beacon));
        daemon.on_datagram(1, &other);
        other[1] = 3;
        daemon.on_datagram(2, &other);
        let t = &daemon.tally;
        assert_eq!((t.received, t.received_bytes), (2, 2 * other.len() as u64));
        assert_eq!((t.misaddressed, t.rejects), (1, 0));
    }

    /// What `daemon` traced into `captured`.
    fn traced(daemon: &mut Daemon, captured: &SharedBuf) -> Vec<TraceEvent> {
        daemon.trace.flush().expect("in memory");
        let text = String::from_utf8(captured.bytes()).expect("JSONL");
        text.lines().map(|line| refer_obs::from_jsonl_line(line).expect("a trace line")).collect()
    }

    /// A peer's frame can carry any `PathAssign` index and any destination
    /// cell and vertex. An index with no entry ends the chain; it used to
    /// index the list and panic. A cell that was never planned is a
    /// `NoRoute` drop; it used to be cast to `u32` and could land in
    /// another cell. So is a vertex the cell graph does not hold, which
    /// would index past the cell's roster.
    #[test]
    fn hostile_indices_and_cells_are_dropped_not_followed() {
        let mut daemon = offline_daemon();
        let captured = SharedBuf::new();
        daemon.trace = BufWriter::new(Box::new(captured.clone()));
        for hop in [1, 7, usize::MAX] {
            let assign = ReferMsg::PathAssign { assignments: vec![], hop };
            daemon.on_datagram(1, &wire::encode_datagram(NodeId(3), 0, &from_7(assign)));
        }
        assert!(traced(&mut daemon, &captured).is_empty(), "no chain to pass on");
        // The frame must reach `forward`, so the daemon plays a sensor member.
        let roster = daemon.engine.protocol().roster(0).expect("one cell");
        let sensors = daemon.engine.ctx().world().sensor_ids();
        let member = roster.values().copied().find(|n| sensors.contains(n)).expect("a sensor");
        daemon.me = member;
        let hostile = [(1 << 32, 0), (usize::MAX, 0), (0, 12), (0, u32::MAX)];
        for (n, (dest_cell, dest_vertex)) in hostile.into_iter().enumerate() {
            let frame = DataFrame {
                data: DataId(n as u64),
                dest_cell,
                dest_vertex,
                forced: None,
                appended: 0,
                hops: 0,
            };
            let msg = from_7(ReferMsg::Data(frame));
            daemon.on_datagram(2, &wire::encode_datagram(member, 0, &msg));
        }
        let events = traced(&mut daemon, &captured);
        assert_eq!(events.len(), hostile.len(), "{events:?}");
        for (n, ev) in events.iter().enumerate() {
            assert!(
                matches!(ev, TraceEvent::Dropped { packet, reason: DropReason::NoRoute, .. }
                    if *packet == DataId(n as u64)),
                "{ev:?}"
            );
        }
        assert_eq!(daemon.tally.rejects, 0, "well-formed frames, hostile values");
    }

    /// A datagram naming a sender outside the cluster is a counted reject:
    /// the sender never becomes a beacon source or a replacement
    /// candidate, whose ids maintenance later looks up in the world view.
    #[test]
    fn senders_outside_the_cluster_are_counted_rejects() {
        let mut daemon = offline_daemon();
        let stranger = NodeId(4_000_000);
        for payload in [ReferMsg::Probe, ReferMsg::Beacon] {
            let msg = Message { from: stranger, ..from_7(payload) };
            daemon.on_datagram(1, &wire::encode_datagram(NodeId(3), 0, &msg));
        }
        let t = &daemon.tally;
        assert_eq!((t.received, t.rejects, t.misaddressed), (2, 2, 0));
        let state = format!("{:?}", daemon.engine.protocol());
        assert!(!state.contains(&format!("{stranger:?}")), "the stranger was recorded");
        // A sender inside the cluster still registers.
        daemon.on_datagram(2, &wire::encode_datagram(NodeId(3), 0, &from_7(ReferMsg::Probe)));
        assert_eq!(daemon.tally.rejects, 2);
    }

    /// The launcher must satisfy the cluster's floor: at least 12 real
    /// processes end to end.
    #[test]
    fn default_scenario_spawns_at_least_12_processes() {
        assert!(Scenario::default().node_count() >= 12);
    }
}
