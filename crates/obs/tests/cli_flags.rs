//! The `trace` CLI rejects a flag its subcommand does not read: exit
//! status 2 and the flag named on stderr, before any file is read or any
//! simulation runs.

use std::process::Command;

fn trace(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace")).args(args).output().expect("trace runs");
    (out.status.code(), String::from_utf8(out.stderr).expect("UTF-8"))
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
        (&["verify", "--live", empty, "--tolerance", "0.1"], "--tolerance"),
    ];
    let mut failures = Vec::new();
    for (args, flag) in cases {
        let (code, stderr) = trace(args);
        if code != Some(2) || !stderr.contains(flag) {
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
