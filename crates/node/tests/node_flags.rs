//! `refer-node` reads its flags through the workspace's one parser: every
//! malformed flag exits 2 with the parser's wording, before anything binds
//! a socket or spawns a process.

use std::process::Command;

#[test]
fn scenario_flags_validate() {
    let cases: [(&[&str], &str); 6] = [
        (&["run", "--node", "0", "--x"], "unknown argument \"--x\""),
        (&["run", "--node", "0", "--rate"], "--rate needs a value"),
        (
            &["run", "--node", "0", "--sensors", "3"],
            "--sensors must be at least 9 (one K(2,3) cell)",
        ),
        (&["run", "--node", "0", "--rate", "0"], "--rate must be positive"),
        (
            &["run", "--node", "0", "--base-port", "65530"],
            "--base-port 65530 leaves no room for 19 nodes: ports end at 65535",
        ),
        (&["cluster", "--node", "1"], "unknown argument \"--node\""),
    ];
    for (args, wanted) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_refer-node"))
            .args(args)
            .output()
            .expect("refer-node runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(format!("error: {wanted}").as_str()), "{args:?}");
    }
}
