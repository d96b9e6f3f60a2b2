//! `trace` — forensics CLI over simulator trace streams.
//!
//! ```text
//! trace record  --out trace.jsonl [scenario]  # one run's JSONL and digest
//! trace packet  <id> --in trace.jsonl      # one packet's full causal chain
//! trace node    <id> --in trace.jsonl      # packets that crossed a node
//! trace summary --in trace.jsonl           # counts, drops by reason, digest
//! trace diff    <a.jsonl> <b.jsonl>        # compare two traces
//! trace verify  [scenario] [--seeds 3]     # serial ≡ parallel, record ≡ replay
//! trace verify  --sharded [scenario] [--threads 2]
//! trace verify  --live node-*.jsonl
//! ```
//!
//! The flags each subcommand reads are its table below (`RECORD` …
//! `LIVE`); a usage error prints them all and exits 2, so a flag a
//! subcommand does not read is rejected (`verify --seed 3` is an error,
//! not a run of the default seeds). The scenario defaults to `--scale
//! 0.05 --seed 1` and the `--system refer`. A malformed trace file exits 2
//! with `file:line: reason` alone.
//!
//! `verify` proves determinism twice over: the multiset digest of all
//! events from serial per-seed runs must equal the digest from the same
//! runs on parallel threads, and recording the same seed twice must give
//! byte-identical JSONL. A mismatch exits nonzero.
//!
//! `verify --live` ingests traces collected from real `refer-node`
//! daemons: per-node JSONL files are merged into one [`PacketLedger`],
//! structural integrity is checked (origins, connected hop chains, no
//! packet delivered twice). The measured delivery ratio is gated against
//! the sim's prediction by `refer-node cluster`, not here.
//!
//! `verify --sharded` proves the sharded engine's thread-invariance: its
//! verified reference is its own 1-thread execution (the sharded schedule
//! is canonical but deliberately distinct from the serial engine's — the
//! two draw their randomness differently), so the check is
//! `sharded(T) ≡ sharded(1)`: equal event multisets per seed *and*
//! byte-identical JSONL streams. `--workload`/`--offered-load` swap the
//! paper trickle for a traffic matrix, so the invariance check also covers
//! the open-loop injector and its `PacketDest` events.

use refer_bench::cli::{exit_usage, Args, Command, SHARED, SIZE};
use refer_bench::{or_dash, run_system_with_sinks, ScenarioFlags, System};
use refer_obs::{fnv1a64, read_jsonl, EventHash, JsonlSink, PacketLedger, SharedBuf};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use wsan_sim::flood::FloodProtocol;
use wsan_sim::trace::TraceSink;
use wsan_sim::{DataId, Engine, NodeId, ShardedConfig, SimConfig};

/// The systems `--system` names, as [`SYSTEM`] lists them.
const SYSTEMS: [(&str, System); 5] = [
    ("refer", System::Refer),
    ("datree", System::DaTree),
    ("ddear", System::Ddear),
    ("kautz", System::KautzOverlay),
    ("kautz-overlay", System::KautzOverlay),
];

// One table per subcommand: what its usage line shows and what it accepts.
const SYSTEM: &str = "--system refer|datree|ddear|kautz|kautz-overlay";
const IN: &[&str] = &["--in FILE"];
const RECORD: Command = Command {
    name: "trace record",
    positional: "",
    flags: &[&["--out FILE", SYSTEM, "--seed N"], SIZE, SHARED],
};
const PACKET: Command = Command { name: "trace packet", positional: "<id>", flags: &[IN] };
const NODE: Command = Command { name: "trace node", positional: "<id>", flags: &[IN] };
const SUMMARY: Command = Command { name: "trace summary", positional: "", flags: &[IN] };
const DIFF: Command = Command { name: "trace diff", positional: "<a> <b>", flags: &[] };
const VERIFY: Command = Command {
    name: "trace verify",
    positional: "",
    flags: &[&[SYSTEM, "--seeds N"], SIZE, SHARED],
};
const SHARDED: Command = Command {
    name: "trace verify --sharded",
    positional: "",
    flags: &[
        &["--sharded", "--seeds N", "--threads N"],
        SIZE,
        // `--workload` and `--offered-load`.
        &[SHARED[3], SHARED[5]],
    ],
};
const LIVE: Command =
    Command { name: "trace verify --live", positional: "FILE...", flags: &[&["--live"]] };
const COMMANDS: [&Command; 8] =
    [&RECORD, &PACKET, &NODE, &SUMMARY, &DIFF, &VERIFY, &SHARDED, &LIVE];

/// Why a subcommand failed: its arguments, or the data they named.
enum Failure {
    /// A malformed command line: printed with the usage.
    Usage(String),
    /// An unreadable or malformed input file: printed alone.
    Data(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

/// What a subcommand runs once its arguments have parsed.
type Subcommand = fn(&Args) -> Result<ExitCode, Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        exit_usage("missing subcommand", &COMMANDS)
    };
    let mode = |switch: &str| rest.iter().any(|a| a == switch);
    let (command, run): (&Command, Subcommand) = match cmd.as_str() {
        "record" => (&RECORD, cmd_record),
        "packet" => (&PACKET, cmd_packet),
        "node" => (&NODE, cmd_node),
        "summary" => (&SUMMARY, cmd_summary),
        "diff" => (&DIFF, cmd_diff),
        "verify" if mode("--live") => (&LIVE, cmd_verify_live),
        "verify" if mode("--sharded") => (&SHARDED, cmd_verify_sharded),
        "verify" => (&VERIFY, cmd_verify),
        other => exit_usage(&format!("unknown subcommand `{other}`"), &COMMANDS),
    };
    match command.parse(rest.iter().cloned()).map_err(Failure::Usage).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(Failure::Usage(message)) => exit_usage(&message, &COMMANDS),
        Err(Failure::Data(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// The scenario `record` and `verify` run, from their flags.
fn scenario(args: &Args) -> Result<(SimConfig, System), String> {
    let system = args.choice("system", "system", &SYSTEMS)?.unwrap_or(System::Refer);
    Ok((ScenarioFlags::read(args, 0.05, 1)?.config, system))
}

/// The `<id>` and the `--in FILE` ledger that `packet` and `node` read.
fn id_and_ledger<T: FromStr>(args: &Args, cmd: &str) -> Result<(T, PacketLedger), Failure> {
    let [id] = args.positional.as_slice() else {
        return Err(format!("{cmd} needs exactly one <id>").into());
    };
    let id = id.parse().map_err(|_| format!("bad {cmd} id `{id}`"))?;
    let path: String = args.get("in")?.ok_or(format!("{cmd} needs --in FILE"))?;
    Ok((id, PacketLedger::from_events(read_jsonl(&path).map_err(Failure::Data)?)))
}

fn cmd_record(args: &Args) -> Result<ExitCode, Failure> {
    let (cfg, system) = scenario(args)?;
    let out: String = args.get("out")?.ok_or("record needs --out FILE".to_string())?;

    let sink = JsonlSink::create(std::path::Path::new(&out))
        .map_err(|e| Failure::Data(format!("cannot create {out}: {e}")))?;
    let ((summary, _sinks), hash) =
        digest(|hasher| run_system_with_sinks(&cfg, system, vec![Box::new(sink), hasher]));

    println!(
        "recorded {} events from {} seed {} ({} sensors, {} faulty, {:.0}s simulated) to {out}",
        hash.count,
        system.name(),
        cfg.seed,
        cfg.sensors,
        cfg.faults.count,
        cfg.duration.as_secs_f64(),
    );
    println!(
        "delivery {:.1}%  p50 {}  p95 {}  p99 {}  deadline-miss {}",
        summary.delivery_ratio * 100.0,
        or_dash(summary.delay_p50_s * 1e3, 1, "ms"),
        or_dash(summary.delay_p95_s * 1e3, 1, "ms"),
        or_dash(summary.delay_p99_s * 1e3, 1, "ms"),
        or_dash(summary.deadline_miss_ratio * 100.0, 1, "%"),
    );
    println!("digest {}", hash.digest());
    Ok(ExitCode::SUCCESS)
}

fn cmd_packet(args: &Args) -> Result<ExitCode, Failure> {
    let (id, ledger) = id_and_ledger::<u64>(args, "packet")?;
    match ledger.packet(DataId(id)) {
        Some(record) => {
            print!("{}", record.describe());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("packet {id} not in trace ({} packets seen)", ledger.len());
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_node(args: &Args) -> Result<ExitCode, Failure> {
    let (id, ledger) = id_and_ledger::<u32>(args, "node")?;
    let visiting = ledger.visiting(NodeId(id));
    println!("node {id}: {} packets crossed it", visiting.len());
    for record in visiting {
        let outcome = match &record.outcome {
            refer_obs::Outcome::Delivered { delay_s, .. } => {
                format!("delivered after {}", or_dash(*delay_s * 1e3, 1, "ms"))
            }
            refer_obs::Outcome::Dropped { reason, .. } => {
                format!("dropped ({})", refer_obs::codec::drop_reason_str(*reason))
            }
            refer_obs::Outcome::InFlight => "in flight".to_string(),
        };
        println!(
            "  packet {:>6}  {} traced hops  {outcome}",
            record.packet.0,
            record.hops.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-kind counts, ledger stats and the stream digest of one trace.
struct TraceReport {
    by_kind: BTreeMap<&'static str, u64>,
    hash: EventHash,
    ledger: PacketLedger,
}

/// The digest hashes each event's canonical line, as `record`'s does, so
/// a recorded file reports the digest its recording printed.
fn report(path: &str) -> Result<TraceReport, Failure> {
    let events = read_jsonl(path).map_err(Failure::Data)?;
    let mut by_kind = BTreeMap::new();
    let mut hash = EventHash::new();
    for event in &events {
        *by_kind.entry(event.kind()).or_insert(0u64) += 1;
        hash.on_event(event);
    }
    Ok(TraceReport { by_kind, hash, ledger: PacketLedger::from_events(events) })
}

fn cmd_summary(args: &Args) -> Result<ExitCode, Failure> {
    let path: String = args.get("in")?.ok_or("summary needs --in FILE".to_string())?;
    let r = report(&path)?;
    println!("{path}: {} events, digest {}", r.hash.count, r.hash.digest());
    for (kind, n) in &r.by_kind {
        println!("  {kind:<14} {n}");
    }
    let stats = r.ledger.stats();
    println!(
        "packets: {} total, {} delivered, {} dropped, {} in flight, {} traced hops",
        stats.packets, stats.delivered, stats.dropped, stats.in_flight, stats.hops
    );
    let drops = r.ledger.drops_by_reason();
    if !drops.is_empty() {
        let rendered: Vec<String> =
            drops.iter().map(|(reason, n)| format!("{reason} {n}")).collect();
        println!("drops by reason: {}", rendered.join(", "));
    }
    let m = r.ledger.measured();
    let ms = |s: f64| or_dash(s * 1e3, 2, "ms");
    println!(
        "measured: {} offered, {} delivered ({}), delay p50/p95/p99 {} {} {}, hops p50/p99 {} {}",
        m.offered,
        m.delivered,
        or_dash(m.delivery_ratio * 100.0, 1, "%"),
        ms(m.delay_p50_s),
        ms(m.delay_p95_s),
        ms(m.delay_p99_s),
        or_dash(m.hop_p50, 0, ""),
        or_dash(m.hop_p99, 0, ""),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &Args) -> Result<ExitCode, Failure> {
    let [a, b] = args.positional.as_slice() else {
        return Err("diff needs exactly two files".to_string().into());
    };
    let ra = report(a)?;
    let rb = report(b)?;
    if ra.hash == rb.hash {
        println!("traces match: {} events, digest {}", ra.hash.count, ra.hash.digest());
        return Ok(ExitCode::SUCCESS);
    }
    println!("traces DIFFER");
    println!("  {a}: {} events, digest {}", ra.hash.count, ra.hash.digest());
    println!("  {b}: {} events, digest {}", rb.hash.count, rb.hash.digest());
    let kinds: std::collections::BTreeSet<&'static str> =
        ra.by_kind.keys().chain(rb.by_kind.keys()).copied().collect();
    for kind in kinds {
        let na = ra.by_kind.get(kind).copied().unwrap_or(0);
        let nb = rb.by_kind.get(kind).copied().unwrap_or(0);
        if na != nb {
            println!("  {kind:<14} {na} vs {nb}");
        }
    }
    let (sa, sb) = (ra.ledger.stats(), rb.ledger.stats());
    if sa != sb {
        println!(
            "  packets        {}/{}/{} vs {}/{}/{} (delivered/dropped/in-flight)",
            sa.delivered, sa.dropped, sa.in_flight, sb.delivered, sb.dropped, sb.in_flight
        );
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_verify(args: &Args) -> Result<ExitCode, Failure> {
    let (cfg, system) = scenario(args)?;
    let seeds: Vec<u64> = (1..=args.get("seeds")?.unwrap_or(3)).collect();

    let seeded = |seed| SimConfig { seed, ..cfg.clone() };

    // Serial pass: one traced run per seed, digests merged.
    let mut serial = EventHash::new();
    for &seed in &seeds {
        serial.merge(&digest(|sink| run_system_with_sinks(&seeded(seed), system, vec![sink])).1);
    }

    // Parallel pass: same runs on scoped threads.
    let mut parallel = EventHash::new();
    std::thread::scope(|scope| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let cfg = seeded(seed);
                let run = move || digest(|sink| run_system_with_sinks(&cfg, system, vec![sink])).1;
                scope.spawn(run)
            })
            .collect();
        for run in runs {
            parallel.merge(&run.join().expect("a verify run panicked"));
        }
    });

    let order_ok = serial == parallel;
    println!(
        "serial/parallel event multiset: {} ({} events, digest {})",
        if order_ok { "IDENTICAL" } else { "MISMATCH" },
        serial.count,
        serial.digest()
    );
    if !order_ok {
        println!("  serial   {}", serial.digest());
        println!("  parallel {}", parallel.digest());
    }

    // Record/replay pass: same seed twice must stream identical bytes.
    let record = record_bytes(&cfg, system);
    let replay = record_bytes(&cfg, system);
    let replay_ok = record == replay;
    println!(
        "record/replay JSONL: {} ({} bytes, fnv1a {:016x})",
        if replay_ok { "BIT-IDENTICAL" } else { "MISMATCH" },
        record.len(),
        fnv1a64(&record)
    );

    if order_ok && replay_ok {
        println!("verify PASSED");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("verify FAILED");
        Ok(ExitCode::FAILURE)
    }
}

/// What `run` returns, and the digest of the events it streams into the
/// sink it is handed.
fn digest<R>(run: impl FnOnce(Box<dyn TraceSink>) -> R) -> (R, EventHash) {
    let hash = Arc::new(Mutex::new(EventHash::new()));
    let ran = run(Box::new(hash.clone()));
    let hash = *hash.lock().expect("the run is over");
    (ran, hash)
}

/// Runs the scenario once, streaming the trace to an in-memory buffer.
fn record_bytes(cfg: &SimConfig, system: System) -> Vec<u8> {
    let buf = SharedBuf::new();
    let sink = JsonlSink::new(buf.clone());
    run_system_with_sinks(cfg, system, vec![Box::new(sink)]);
    buf.bytes()
}

/// `verify --live`: integrity-checks traces collected from running
/// `refer-node` daemons instead of from a simulation run.
///
/// The per-node JSONL files are merged into one event stream (each daemon
/// traces only what it observed locally; the union is the cluster's
/// story) and folded through the same [`PacketLedger`] the forensics
/// commands use. The checks are structural — every packet that moved has
/// an origin, every hop chain is connected, nothing was delivered twice.
/// The delivery gate against the simulator's prediction is `refer-node
/// cluster`'s, on the same merged ledger.
fn cmd_verify_live(args: &Args) -> Result<ExitCode, Failure> {
    let paths = &args.positional;
    if paths.is_empty() {
        return Err("verify --live needs at least one trace file".to_string().into());
    }

    let mut events = Vec::new();
    for path in paths {
        events.append(&mut read_jsonl(path).map_err(Failure::Data)?);
    }
    let total_events = events.len();
    let ledger = PacketLedger::from_events(events);
    let stats = ledger.stats();

    // Structural integrity of the merged story.
    let mut problems = Vec::new();
    for rec in ledger.packets() {
        let id = rec.packet.0;
        if rec.origin.is_none() {
            problems.push(format!("packet {id}: traced without a PacketOrigin event"));
        }
        if rec.deliveries > 1 {
            problems.push(format!("packet {id}: delivered {} times", rec.deliveries));
        }
        // Each packet's hops come from different processes' files, so
        // their fold order is file order, and cross-process clock skew
        // makes timestamps unreliable for sequencing. The chain is
        // therefore verified structurally: walking from the origin, every
        // hop must be consumable by matching its `from` to the walk's
        // current node — order-independent, and exact for loop-free paths.
        if let Some(origin) = rec.origin {
            let mut remaining: Vec<(u32, u32)> =
                rec.hops.iter().map(|h| (h.from.0, h.to.0)).collect();
            let mut cur = origin.0;
            while let Some(pos) = remaining.iter().position(|&(from, _)| from == cur) {
                cur = remaining.remove(pos).1;
            }
            if let Some(&(from, to)) = remaining.first() {
                problems.push(format!(
                    "packet {id}: {} hop(s) disconnected from the origin walk \
                     (e.g. node {from} -> node {to})",
                    remaining.len()
                ));
            }
        }
    }
    println!(
        "live traces: {} file(s), {} events, {} packets ({} delivered, {} dropped, {} in flight)",
        paths.len(),
        total_events,
        stats.packets,
        stats.delivered,
        stats.dropped,
        stats.in_flight
    );
    let integrity_ok = problems.is_empty();
    if integrity_ok {
        println!("ledger integrity: OK");
    } else {
        println!("ledger integrity: {} problem(s)", problems.len());
        for p in problems.iter().take(20) {
            println!("  {p}");
        }
    }

    if integrity_ok {
        println!("verify --live PASSED");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("verify --live FAILED");
        Ok(ExitCode::FAILURE)
    }
}

/// `verify --sharded`: the sharded engine at `--threads` worker threads
/// must replay its own 1-thread execution exactly — equal event-multiset
/// digests per seed and byte-identical JSONL. The flooding protocol
/// exercises broadcast, delivery claims, mobility replication and fault
/// rotation across every shard boundary.
fn cmd_verify_sharded(args: &Args) -> Result<ExitCode, Failure> {
    let mut cfg = ScenarioFlags::read(args, 0.05, 1)?.config;
    let threads: usize = args.get("threads")?.unwrap_or(2);
    if threads < 2 {
        let why = "comparing the 1-thread reference to itself proves nothing";
        return Err(format!("--threads must be ≥ 2: {why}").into());
    }
    let seeds: Vec<u64> = (1..=args.get("seeds")?.unwrap_or(3)).collect();
    let engine =
        |threads| Engine::Sharded(ShardedConfig { shards: 0, threads, window_micros: 0 });

    let mut reference = EventHash::new();
    let mut threaded = EventHash::new();
    for &seed in &seeds {
        cfg.seed = seed;
        for (threads, hash) in [(1, &mut reference), (threads, &mut threaded)] {
            cfg.engine = engine(threads);
            let flood = &mut FloodProtocol::new(6);
            let run = |sink| wsan_sim::run_sharded_with_sinks(cfg.clone(), flood, vec![sink]);
            hash.merge(&digest(run).1);
        }
    }
    let multiset_ok = reference == threaded;
    println!(
        "sharded(1)/sharded({threads}) event multiset: {} ({} events, digest {})",
        if multiset_ok { "IDENTICAL" } else { "MISMATCH" },
        reference.count,
        reference.digest()
    );
    if !multiset_ok {
        println!("  sharded(1)        {}", reference.digest());
        println!("  sharded({threads})        {}", threaded.digest());
    }

    // Byte pass on the first seed: the merged canonical stream must be
    // bit-for-bit reproducible across thread counts, not just as a
    // multiset.
    cfg.seed = seeds.first().copied().unwrap_or(1);
    let bytes = |cfg: &SimConfig, threads: usize| {
        let mut cfg = cfg.clone();
        cfg.engine = engine(threads);
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        wsan_sim::run_sharded_with_sinks(cfg, &mut FloodProtocol::new(6), vec![Box::new(sink)]);
        buf.bytes()
    };
    let one = bytes(&cfg, 1);
    let many = bytes(&cfg, threads);
    let bytes_ok = one == many;
    println!(
        "sharded(1)/sharded({threads}) JSONL: {} ({} bytes, fnv1a {:016x})",
        if bytes_ok { "BIT-IDENTICAL" } else { "MISMATCH" },
        one.len(),
        fnv1a64(&one)
    );

    if multiset_ok && bytes_ok {
        println!("verify --sharded PASSED");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("verify --sharded FAILED");
        Ok(ExitCode::FAILURE)
    }
}
