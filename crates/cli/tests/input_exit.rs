//! Bad input exits 1 with a message, never a panic: the `kodan` binary
//! driven with inputs the pipeline cannot work with.

use std::process::Command;

#[test]
fn a_single_frame_mission_exits_1_with_a_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_kodan"))
        .args(["mission", "--frames", "1"])
        .output()
        .expect("run kodan mission");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("need at least 2"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
