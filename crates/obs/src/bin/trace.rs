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
//! ```
//!
//! The flags each subcommand reads are its table below (`RECORD` …
//! `SHARDED`); a usage error prints them all and exits 2, so a flag a
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
        &[SHARED[2], SHARED[4]],
    ],
};
const COMMANDS: [&Command; 7] = [&RECORD, &PACKET, &NODE, &SUMMARY, &DIFF, &VERIFY, &SHARDED];

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
            refer_obs::Outcome::Dropped { reason, .. } => format!("dropped ({})", reason.as_str()),
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

    let run = |seed, sink| {
        run_system_with_sinks(&SimConfig { seed, ..cfg.clone() }, system, vec![sink])
    };
    let hash = |seed| digest(|sink| run(seed, sink)).1;

    // Serial pass: one traced run per seed, digests merged.
    let mut serial = EventHash::new();
    for &seed in &seeds {
        serial.merge(&hash(seed));
    }

    // Parallel pass: same runs on scoped threads.
    let mut parallel = EventHash::new();
    std::thread::scope(|scope| {
        let runs: Vec<_> = seeds.iter().map(|&seed| scope.spawn(move || hash(seed))).collect();
        for handle in runs {
            parallel.merge(&handle.join().expect("a verify run panicked"));
        }
    });

    // Record/replay pass: same seed twice must stream identical bytes.
    let record = || jsonl(|sink| run(cfg.seed, sink));
    let streams = [record(), record()];
    Ok(verdict("verify", ("serial/parallel", [serial, parallel]), ("record/replay", streams)))
}

/// What `run` returns, and the digest of the events it streams into the
/// sink it is handed.
fn digest<R>(run: impl FnOnce(Box<dyn TraceSink>) -> R) -> (R, EventHash) {
    let hash = Arc::new(Mutex::new(EventHash::new()));
    let ran = run(Box::new(hash.clone()));
    let hash = *hash.lock().expect("the run is over");
    (ran, hash)
}

/// The JSONL bytes `run` streams into the sink it is handed.
fn jsonl<R>(run: impl FnOnce(Box<dyn TraceSink>) -> R) -> Vec<u8> {
    let buf = SharedBuf::new();
    run(Box::new(JsonlSink::new(buf.clone())));
    buf.bytes()
}

/// Prints `verify`'s verdict on a pair of event-multiset digests and a
/// pair of JSONL byte streams, each pair labelled `a/b` by its sides, and
/// exits 1 unless both pairs are equal.
fn verdict(
    command: &str,
    (multiset, hashes): (&str, [EventHash; 2]),
    (stream, bytes): (&str, [Vec<u8>; 2]),
) -> ExitCode {
    let digests = hashes.map(|h| format!("{} events, digest {}", h.count, h.digest()));
    let streams = bytes.each_ref().map(|b| format!("{} bytes, fnv1a {:016x}", b.len(), fnv1a64(b)));
    // `&`, not `&&`: the second line prints whatever the first found.
    let ok = compare(multiset, "event multiset", "IDENTICAL", hashes[0] == hashes[1], digests)
        & compare(stream, "JSONL", "BIT-IDENTICAL", bytes[0] == bytes[1], streams);
    println!("{command} {}", if ok { "PASSED" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one comparison of `verify`: `a/b what: SAME (a's value)` when
/// the sides are `equal`, else a `MISMATCH` line and each side's value.
fn compare(pair: &str, what: &str, same: &str, equal: bool, shown: [String; 2]) -> bool {
    println!("{pair} {what}: {} ({})", if equal { same } else { "MISMATCH" }, shown[0]);
    if !equal {
        for (side, value) in pair.split('/').zip(shown) {
            println!("  {side:<8} {value}");
        }
    }
    equal
}

/// `verify --sharded`: the sharded engine at `--threads` worker threads
/// must replay its own 1-thread execution exactly — equal event-multiset
/// digests per seed and byte-identical JSONL. The flooding protocol
/// exercises broadcast, delivery claims, mobility replication and fault
/// rotation across every shard boundary.
fn cmd_verify_sharded(args: &Args) -> Result<ExitCode, Failure> {
    let cfg = ScenarioFlags::read(args, 0.05, 1)?.config;
    let threads: usize = args.get("threads")?.unwrap_or(2);
    if threads < 2 {
        let why = "comparing the 1-thread reference to itself proves nothing";
        return Err(format!("--threads must be ≥ 2: {why}").into());
    }
    let seeds: Vec<u64> = (1..=args.get("seeds")?.unwrap_or(3)).collect();
    let run = |seed, threads, sink| {
        let engine = Engine::Sharded(ShardedConfig { shards: 0, threads, window_micros: 0 });
        let cfg = SimConfig { seed, engine, ..cfg.clone() };
        wsan_sim::run_sharded_with_sinks(cfg, &mut FloodProtocol::new(6), vec![sink])
    };

    let mut hashes = [EventHash::new(); 2];
    for &seed in &seeds {
        for (threads, hash) in [1, threads].into_iter().zip(&mut hashes) {
            hash.merge(&digest(|sink| run(seed, threads, sink)).1);
        }
    }

    // Byte pass on the first seed: the merged canonical stream must be
    // bit-for-bit reproducible across thread counts, not just as a
    // multiset.
    let first = seeds.first().copied().unwrap_or(1);
    let streams = [1, threads].map(|threads| jsonl(|sink| run(first, threads, sink)));
    let pair = format!("sharded(1)/sharded({threads})");
    Ok(verdict("verify --sharded", (&pair, hashes), (&pair, streams)))
}
