//! `trace` — forensics CLI over simulator trace streams.
//!
//! ```text
//! trace record  --out trace.jsonl [--system refer] [--scale 0.05] [--seed 1]
//!               [--sensors N] [--faults N] [--mobility F]
//!               [--fault-model oracle|discovered|byzantine]
//!               [--attacker-fraction F] [--link-pdr P]
//!               [--workload paper|all2all|hotspot]
//!               [--offered-load PPS] [--routing shortest|regular]
//! trace packet  <id> --in trace.jsonl      # one packet's full causal chain
//! trace node    <id> --in trace.jsonl      # packets that crossed a node
//! trace summary --in trace.jsonl           # counts, drops by reason, digest
//! trace diff    <a.jsonl> <b.jsonl>        # compare two traces
//! trace verify  [--system refer] [--scale 0.05] [--seeds 3] [--sensors N]
//!               [--faults N] [--mobility F]
//!               [--fault-model oracle|discovered|byzantine]
//!               [--attacker-fraction F] [--link-pdr P]
//!               [--workload W] [--offered-load PPS] [--routing R]
//! trace verify  --sharded [--scale 0.05] [--seeds 3] [--sensors N]
//!               [--faults N] [--mobility F] [--threads N]
//!               [--workload W] [--offered-load PPS]
//! trace verify  --live node-*.jsonl
//! ```
//!
//! Every subcommand rejects a flag it does not read with exit status 2
//! (`verify --seed 3` is an error, not a run of the default seeds).
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

use refer_bench::{
    base_config, or_dash, run_system_with_sinks, ScenarioFlags, System, SCENARIO_FLAGS,
};
use refer_obs::{
    from_jsonl_line, fnv1a64, EventHash, HashingSink, JsonlSink, PacketLedger, SharedBuf,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use wsan_sim::flood::FloodProtocol;
use wsan_sim::trace::TraceEvent;
use wsan_sim::{DataId, Engine, NodeId, ShardedConfig, SimConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    let result = match cmd.as_str() {
        "record" => cmd_record(rest),
        "packet" => cmd_packet(rest),
        "node" => cmd_node(rest),
        "summary" => cmd_summary(rest),
        "diff" => cmd_diff(rest),
        "verify" => cmd_verify(rest),
        other => return usage(&format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => usage(&msg),
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage:\n  \
         trace record  --out FILE [--system S] [--scale F] [--seed N] [--sensors N]\n                \
         [--faults N] [--mobility F] [--fault-model oracle|discovered|byzantine]\n                \
         [--attacker-fraction F] [--link-pdr P] [--workload W]\n                \
         [--offered-load PPS] [--routing shortest|regular]\n  \
         trace packet  <id> --in FILE\n  \
         trace node    <id> --in FILE\n  \
         trace summary --in FILE\n  \
         trace diff    <a> <b>\n  \
         trace verify  [--system S] [--scale F] [--seeds N] [--sensors N] [--faults N]\n                \
         [--mobility F] [--fault-model oracle|discovered|byzantine]\n                \
         [--attacker-fraction F] [--link-pdr P] [--workload W]\n                \
         [--offered-load PPS] [--routing R]\n  \
         trace verify  --sharded [--scale F] [--seeds N] [--sensors N] [--faults N]\n                \
         [--mobility F] [--threads N] [--workload W] [--offered-load PPS]\n  \
         trace verify  --live FILE...\n\
         systems: refer (default), datree, ddear, kautz\n\
         workloads: paper (default), all2all, hotspot"
    );
    ExitCode::from(2)
}

/// The flags [`scenario`] reads besides the shared [`SCENARIO_FLAGS`] (and
/// `--seed`, which `record` takes and `verify` replaces by `--seeds`).
const SCENARIO: [&str; 5] = ["system", "scale", "sensors", "faults", "mobility"];

/// Splits raw args into positionals and `--flag value` pairs, rejecting a
/// flag `cmd` does not read (a misspelt one would silently run defaults).
fn parse_args(
    args: &[String],
    cmd: &str,
    known: &[&str],
) -> Result<(Vec<String>, BTreeMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("{cmd} takes no --{name}"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

fn parse_system(name: &str) -> Result<System, String> {
    match name {
        "refer" => Ok(System::Refer),
        "datree" => Ok(System::DaTree),
        "ddear" => Ok(System::Ddear),
        "kautz" | "kautz-overlay" => Ok(System::KautzOverlay),
        other => Err(format!("unknown system `{other}` (refer, datree, ddear, kautz)")),
    }
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("--{name}: cannot parse `{raw}`")),
    }
}

/// The scenario shared by `record` and `verify`, from the common flags.
fn scenario(flags: &BTreeMap<String, String>) -> Result<(SimConfig, System), String> {
    let system = parse_system(flags.get("system").map_or("refer", String::as_str))?;
    let scale = flag(flags, "scale", 0.05)?;
    let mut cfg = base_config(scale);
    cfg.seed = flag(flags, "seed", 1u64)?;
    cfg.sensors = flag(flags, "sensors", cfg.sensors)?;
    cfg.faults.count = flag(flags, "faults", cfg.faults.count)?;
    cfg.mobility.max_speed = flag(flags, "mobility", cfg.mobility.max_speed)?;
    // The scenario knobs shared by every CLI live in one parser.
    let mut shared = ScenarioFlags::default();
    shared.apply_map(|name| flags.get(name).map(String::as_str))?;
    shared.apply(&mut cfg);
    Ok((cfg, system))
}

/// Applies the shared `--workload`/`--offered-load` traffic flags to `cfg`
/// (the sharded verify scenario takes no routing or fault flags).
fn traffic_flags(cfg: &mut SimConfig, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mut shared = ScenarioFlags::default();
    shared.apply_map(|name| {
        matches!(name, "workload" | "offered-load")
            .then(|| flags.get(name).map(String::as_str))
            .flatten()
    })?;
    shared.apply(cfg);
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let known = [&["out", "seed"][..], &SCENARIO, &SCENARIO_FLAGS].concat();
    let (positional, flags) = parse_args(args, "record", &known)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    let out = flags.get("out").ok_or("record needs --out FILE")?;
    let (cfg, system) = scenario(&flags)?;

    let sink = JsonlSink::create(std::path::Path::new(out))
        .map_err(|e| format!("cannot create {out}: {e}"))?;
    let (hasher, hash) = HashingSink::new();
    let (summary, _sinks) =
        run_system_with_sinks(&cfg, system, vec![Box::new(sink), Box::new(hasher)]);

    println!(
        "recorded {} events from {} seed {} ({} sensors, {} faulty, {:.0}s simulated) to {out}",
        hash.get().count,
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
    println!("digest {}", hash.get().digest());
    Ok(ExitCode::SUCCESS)
}

/// Loads a JSONL trace: the raw lines and their parsed events.
fn load(path: &str) -> Result<(Vec<String>, Vec<TraceEvent>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = Vec::new();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let event =
            from_jsonl_line(line).map_err(|e| format!("{path}:{}: {}", i + 1, e.0))?;
        lines.push(line.to_string());
        events.push(event);
    }
    Ok((lines, events))
}

fn cmd_packet(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(args, "packet", &["in"])?;
    let [id] = positional.as_slice() else {
        return Err("packet needs exactly one <id>".to_string());
    };
    let id: u64 = id.parse().map_err(|_| format!("bad packet id `{id}`"))?;
    let path = flags.get("in").ok_or("packet needs --in FILE")?;
    let (_, events) = load(path)?;
    let ledger = PacketLedger::from_events(events);
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

fn cmd_node(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(args, "node", &["in"])?;
    let [id] = positional.as_slice() else {
        return Err("node needs exactly one <id>".to_string());
    };
    let id: u32 = id.parse().map_err(|_| format!("bad node id `{id}`"))?;
    let path = flags.get("in").ok_or("node needs --in FILE")?;
    let (_, events) = load(path)?;
    let ledger = PacketLedger::from_events(events);
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

fn report(path: &str) -> Result<TraceReport, String> {
    let (lines, events) = load(path)?;
    let mut by_kind = BTreeMap::new();
    for event in &events {
        *by_kind.entry(event.kind()).or_insert(0u64) += 1;
    }
    let mut hash = EventHash::new();
    for line in &lines {
        hash.update(line);
    }
    Ok(TraceReport { by_kind, hash, ledger: PacketLedger::from_events(events) })
}

fn cmd_summary(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_args(args, "summary", &["in"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    let path = flags.get("in").ok_or("summary needs --in FILE")?;
    let r = report(path)?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let (positional, _) = parse_args(args, "diff", &[])?;
    let [a, b] = positional.as_slice() else {
        return Err("diff needs exactly two files".to_string());
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

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    // `--sharded` and `--live` are bare mode switches, not `--flag value`
    // pairs.
    let mut args: Vec<String> = args.to_vec();
    let mut mode_switch = |name: &str| match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let sharded = mode_switch("--sharded");
    let live = mode_switch("--live");
    if sharded && live {
        return Err("--sharded and --live are mutually exclusive".to_string());
    }
    if live {
        let (paths, _) = parse_args(&args, "verify --live", &[])?;
        return cmd_verify_live(&paths);
    }
    // `--sharded` verifies the engine itself and always runs the flooding
    // protocol, so it takes no `--system` and no fault model.
    let (positional, flags) = if sharded {
        let known =
            ["scale", "seeds", "sensors", "faults", "mobility", "threads", "workload", "offered-load"];
        parse_args(&args, "verify --sharded", &known)?
    } else {
        parse_args(&args, "verify", &[&["seeds"][..], &SCENARIO, &SCENARIO_FLAGS].concat())?
    };
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    if sharded {
        return cmd_verify_sharded(&flags);
    }
    let (cfg, system) = scenario(&flags)?;
    let seeds: u64 = flag(&flags, "seeds", 3)?;
    let seeds: Vec<u64> = (1..=seeds).collect();

    // Serial pass: one traced run per seed, digests merged.
    let mut serial = EventHash::new();
    for &seed in &seeds {
        let mut cfg = cfg.clone();
        cfg.seed = seed;
        let (sink, hash) = HashingSink::new();
        run_system_with_sinks(&cfg, system, vec![Box::new(sink)]);
        serial.merge(&hash.get());
    }

    // Parallel pass: same runs on scoped threads.
    let mut handles = Vec::new();
    std::thread::scope(|scope| {
        for &seed in &seeds {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            let (sink, hash) = HashingSink::new();
            handles.push(hash);
            scope.spawn(move || run_system_with_sinks(&cfg, system, vec![Box::new(sink)]));
        }
    });
    let mut parallel = EventHash::new();
    for hash in &handles {
        parallel.merge(&hash.get());
    }

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
fn cmd_verify_live(paths: &[String]) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("verify --live needs at least one trace file".to_string());
    }

    let mut events = Vec::new();
    for path in paths {
        let (_, mut parsed) = load(path)?;
        events.append(&mut parsed);
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
fn cmd_verify_sharded(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let scale = flag(flags, "scale", 0.05)?;
    let mut cfg = base_config(scale);
    cfg.sensors = flag(flags, "sensors", cfg.sensors)?;
    cfg.faults.count = flag(flags, "faults", cfg.faults.count)?;
    cfg.mobility.max_speed = flag(flags, "mobility", cfg.mobility.max_speed)?;
    traffic_flags(&mut cfg, flags)?;
    let threads: usize = flag(flags, "threads", 2)?;
    if threads < 2 {
        return Err("--threads must be ≥ 2: comparing the 1-thread reference to itself \
                    proves nothing"
            .to_string());
    }
    let seeds: u64 = flag(flags, "seeds", 3)?;
    let seeds: Vec<u64> = (1..=seeds).collect();
    let engine =
        |threads| Engine::Sharded(ShardedConfig { shards: 0, threads, window_micros: 0 });

    let mut reference = EventHash::new();
    let mut threaded = EventHash::new();
    for &seed in &seeds {
        cfg.seed = seed;
        for (threads, hash) in [(1, &mut reference), (threads, &mut threaded)] {
            cfg.engine = engine(threads);
            let (sink, h) = HashingSink::new();
            wsan_sim::run_sharded_with_sinks(
                cfg.clone(),
                &mut FloodProtocol::new(6),
                vec![Box::new(sink)],
            );
            hash.merge(&h.get());
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
