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

#[test]
fn oversized_counts_exit_1_naming_the_flag() {
    // (command, flag, cap) — the caps of `Options::parse`.
    let table = [
        ("mission", "--frames", 100_000u64),
        ("contexts", "--contexts", 1_000),
        ("mission", "--sats", 10_000),
        ("fleet", "--satellites", 10_000),
        ("fleet", "--memtable-budget", 1 << 30),
        ("plan", "--contacts", 10_000),
    ];
    for (command, flag, cap) in table {
        for value in [cap + 1, 1_000_000_000_000] {
            let out = Command::new(env!("CARGO_BIN_EXE_kodan"))
                .args([command, flag, &value.to_string()])
                .output()
                .expect("run kodan");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("kodan {command} {flag} {value}: {stderr}");
            assert_eq!(out.status.code(), Some(1), "{case}");
            assert!(stderr.contains(&format!("{flag} must be at most {cap}")), "{case}");
            assert!(!stderr.contains("panicked"), "{case}");
            assert!(!stderr.contains("memory allocation"), "{case}");
        }
    }
}
