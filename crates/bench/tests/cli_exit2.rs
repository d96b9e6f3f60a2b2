//! Pins the shared CLI error contract: a malformed scenario flag makes
//! every binary exit with code 2 and print the shared parser's wording.
//! `ScenarioFlags` owns the parsing, so one wording covers all CLIs.

use std::process::Command;

#[test]
fn malformed_scenario_flag_exits_2_with_shared_wording() {
    for bin in [env!("CARGO_BIN_EXE_figures"), env!("CARGO_BIN_EXE_compare")] {
        let out = Command::new(bin)
            .args(["--fault-model", "nonsense"])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{bin} must exit 2 on a malformed flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown fault model \"nonsense\""),
            "{bin} must surface the shared parser's message, got:\n{stderr}"
        );
    }
}
