//! Pins the CLI error contract: a malformed flag makes every binary exit
//! with code 2 and name what it could not read, never panic (exit 101).
//! `refer_bench::cli` parses every binary's flags and reads the shared
//! scenario flags, so one wording covers all CLIs.

use std::process::Command;

/// Runs `bin` with `args`, checks exit 2 and returns the first line of
/// its stderr: the `error: …` line alone, since the usage printed after
/// it names every flag.
fn rejects(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2, stderr:\n{stderr}");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(error.starts_with("error: "), "{bin} {args:?}: no error line in:\n{stderr}");
    error.to_string()
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

/// A value that parses but that the scenario rejects exits 2 naming the
/// flag or config field, before any simulation runs.
#[test]
fn values_the_scenario_rejects_exit_2_naming_the_flag_or_field() {
    let compare = env!("CARGO_BIN_EXE_compare");
    let cases: &[(&[&str], &str)] = &[
        (&["--sensors", "0"], "`sensors`"),
        (&["--fabric", "2,0"], "--fabric"),
        (&["--scale", "-1"], "--scale"),
        (&["--scale", "nan"], "--scale"),
        // Too large to run: an endless duration, more sensors than memory.
        (&["--scale", "1e300"], "--scale"),
        (&["--sensors", "430000000"], "--sensors"),
    ];
    for &(args, wanted) in cases {
        let stderr = rejects(compare, args);
        assert!(stderr.contains(wanted), "compare {args:?}: {wanted:?} missing from:\n{stderr}");
        assert!(!stderr.contains("panicked"), "compare {args:?} panicked:\n{stderr}");
    }
}
