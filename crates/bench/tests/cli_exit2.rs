//! Pins the CLI error contract: a malformed flag makes every binary exit
//! with code 2 and name what it could not read, never panic (exit 101).
//! `ScenarioFlags` owns the shared scenario flags, so one wording covers
//! all CLIs; each binary's own flags go through the same `bail`.

use std::process::Command;

/// Runs `bin` with `args` and returns its stderr after checking exit 2.
fn rejects(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2, stderr:\n{stderr}");
    stderr
}

#[test]
fn malformed_scenario_flag_exits_2_with_shared_wording() {
    for bin in [env!("CARGO_BIN_EXE_figures"), env!("CARGO_BIN_EXE_compare")] {
        let stderr = rejects(bin, &["--fault-model", "nonsense"]);
        assert!(
            stderr.contains("unknown fault model \"nonsense\""),
            "{bin} must surface the shared parser's message, got:\n{stderr}"
        );
    }
}

#[test]
fn malformed_tool_flags_exit_2_naming_the_input() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let compare = env!("CARGO_BIN_EXE_compare");
    let cases: &[(&str, &[&str], &str)] = &[
        (figures, &["--scale", "x"], "--scale"),
        (figures, &["--seeds", "1,a"], "\"a\""),
        (figures, &["--fig", "12"], "no figure 12"),
        (figures, &["--seeds"], "--seeds needs a value"),
        (figures, &["--bogus"], "unknown argument \"--bogus\""),
        (compare, &["--scale", "x"], "--scale"),
        (compare, &["--seed", "1,a"], "\"1,a\""),
        (compare, &["--threads", "-1"], "--threads"),
        (compare, &["--threads"], "--threads needs a value"),
        (compare, &["--bogus"], "unknown argument \"--bogus\""),
    ];
    for &(bin, args, wanted) in cases {
        let stderr = rejects(bin, args);
        assert!(stderr.contains(wanted), "{bin} {args:?}: {wanted:?} missing from:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked:\n{stderr}");
    }
}
