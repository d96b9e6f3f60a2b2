//! The `trace` CLI rejects a flag its subcommand does not read: exit
//! status 2 and the flag named on stderr, before any file is read or any
//! simulation runs.

use std::process::Command;

fn trace(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace")).args(args).output().expect("trace runs");
    (out.status.code(), String::from_utf8(out.stderr).expect("UTF-8"))
}

/// The `error: …` line of a rejection's stderr: the usage printed after
/// it names every flag, so a check against the whole stderr always passes.
fn error_line(stderr: &str) -> &str {
    stderr.lines().next().filter(|line| line.starts_with("error: ")).unwrap_or_default()
}

#[test]
fn every_subcommand_rejects_a_flag_it_does_not_read() {
    let dir = std::env::temp_dir().join(format!("trace-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").expect("write trace");
    let empty = empty.to_str().expect("UTF-8 path");
    let out = dir.join("out.jsonl");
    let out = out.to_str().expect("UTF-8 path");

    let cases: [(&[&str], &str); 8] = [
        (&["record", "--out", out, "--scale", "0.01", "--sead", "3"], "--sead"),
        (&["packet", "1", "--in", empty, "--verbose", "1"], "--verbose"),
        (&["node", "1", "--in", empty, "--window", "5"], "--window"),
        (&["summary", "--in", empty, "--top", "5"], "--top"),
        (&["diff", empty, empty, "--strict", "1"], "--strict"),
        // `--seed` is `record`'s; `verify` runs seeds 1..=--seeds.
        (&["verify", "--scale", "0.01", "--seeds", "1", "--seed", "3"], "--seed"),
        (&["verify", "--sharded", "--scale", "0.01", "--seeds", "1", "--system", "kautz"], "--system"),
        // No live mode: `refer-node cluster` checks its merged ledger.
        (&["verify", "--live", empty], "--live"),
    ];
    let mut failures = Vec::new();
    for (args, flag) in cases {
        let (code, stderr) = trace(args);
        if code != Some(2) || !error_line(&stderr).contains(flag) {
            failures.push(format!("trace {}: exit {code:?}, stderr {stderr:?}", args.join(" ")));
        }
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn read_flags_are_still_accepted() {
    let dir = std::env::temp_dir().join(format!("trace-cli-known-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").expect("write trace");
    let (code, stderr) = trace(&["summary", "--in", empty.to_str().expect("UTF-8 path")]);
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(code, Some(0), "{stderr}");
}

/// A value that parses but that the scenario rejects exits 2 naming the
/// config field, before anything is recorded.
#[test]
fn values_the_scenario_rejects_exit_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("trace-cli-rejects-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("out.jsonl");
    let out = out.to_str().expect("UTF-8 path");
    let cases: [(&[&str], &str); 2] = [
        (&["record", "--out", out, "--sensors", "0"], "`sensors`"),
        (&["record", "--out", out, "--mobility", "-5"], "`mobility.max_speed`"),
    ];
    let mut failures = Vec::new();
    for (args, field) in cases {
        let (code, stderr) = trace(args);
        if code != Some(2) || !error_line(&stderr).contains(field) || stderr.contains("panicked") {
            failures.push(format!("trace {}: exit {code:?}, stderr {stderr:?}", args.join(" ")));
        }
    }
    let recorded = std::path::Path::new(out).exists();
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(!recorded, "a rejected scenario must not create its output");
}

/// A malformed trace file is a data error: `file:line: reason`, exit 2,
/// and no usage block.
#[test]
fn a_malformed_trace_file_is_reported_without_the_usage() {
    let dir = std::env::temp_dir().join(format!("trace-cli-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"NotAnEvent\":{}}\n").expect("write trace");
    let bad = bad.to_str().expect("UTF-8 path").to_string();
    let (code, stderr) = trace(&["summary", "--in", &bad]);
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(&format!("{bad}:1: ")), "{stderr}");
    assert!(!stderr.contains("usage"), "{stderr}");
}
