//! Argument errors of the `delta-color` binary exit with code 2 before
//! any graph is loaded or colored.

use std::process::Command;

fn delta_color(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_delta-color"))
        .args(args)
        .output()
        .expect("delta-color runs")
}

#[test]
fn a_trailing_dot_without_a_path_is_a_usage_error() {
    // The graph path does not exist: a run that got past argument
    // parsing would fail to load it with exit code 1 instead.
    let out = delta_color(&["no-such-graph.txt", "--dot"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--dot requires an output path"), "{stderr}");
}
