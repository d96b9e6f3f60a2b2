//! `compare` prints only what its scenario determines: two runs of one
//! command print the same bytes, so `scripts/pins.sh` can pin both of its
//! tables whole, without cutting a column first.

use std::process::Command;

/// The stdout of a successful `compare` run with `args`.
fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_compare"))
        .args(args)
        .output()
        .expect("spawn compare");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "compare {args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).expect("the table is UTF-8")
}

#[test]
fn two_runs_of_the_smallest_scenarios_print_the_same_bytes() {
    let four_systems: &[&str] = &["--scale", "0.01", "--sensors", "40", "--faults", "2"];
    let fabric: &[&str] = &[
        "--fabric",
        "2,3",
        "--offered-load",
        "100",
        "--scale",
        "0.01",
    ];
    for args in [four_systems, fabric] {
        let first = stdout(args);
        // A wall-clock column is the one thing a run could print that its
        // seed does not decide.
        assert!(
            !first.contains("wall"),
            "compare {args:?} prints a wall-clock column:\n{first}"
        );
        assert_eq!(
            first,
            stdout(args),
            "compare {args:?} printed different bytes"
        );
    }
}
