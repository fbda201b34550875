//! End-to-end exit-code contract for the `kodan health` / `kodan diff`
//! observability family, exercised against the real binary. Exit codes
//! are part of the CI interface: 0 healthy/identical, 2 a health rule
//! failed, 3 the snapshots differ, 1 bad input.

use std::path::PathBuf;
use std::process::Command;

use kodan_telemetry::{CounterId, Recorder, SummaryRecorder, TelemetryEvent};

fn kodan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kodan"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A snapshot whose DVD floor (pixels_value / pixels_sent >= 0.35 in the
/// built-in rules) observes `value_px / 100`.
fn snapshot_with_value(value_px: u64) -> String {
    let mut recorder = SummaryRecorder::new();
    recorder.event(TelemetryEvent::FrameCaptured { pixels: 100 });
    recorder.count(CounterId::PixelsSent, 100);
    recorder.count(CounterId::PixelsValue, value_px);
    recorder.snapshot().to_json()
}

#[test]
fn health_exit_codes_reflect_the_verdict() {
    let dir = scratch("health_exit");
    let healthy = dir.join("healthy.json");
    let unhealthy = dir.join("unhealthy.json");
    std::fs::write(&healthy, snapshot_with_value(50)).expect("write healthy");
    std::fs::write(&unhealthy, snapshot_with_value(10)).expect("write unhealthy");

    let pass = kodan()
        .args(["health", "--snapshot"])
        .arg(&healthy)
        .output()
        .expect("run kodan health");
    assert_eq!(pass.status.code(), Some(0), "healthy snapshot must exit 0");
    let stdout = String::from_utf8_lossy(&pass.stdout);
    assert!(stdout.contains("health: PASS"), "stdout: {stdout}");

    let fail = kodan()
        .args(["health", "--snapshot"])
        .arg(&unhealthy)
        .output()
        .expect("run kodan health");
    assert_eq!(fail.status.code(), Some(2), "failing rule must exit 2");
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("health: FAIL"), "stdout: {stdout}");
    assert!(stdout.contains("pixels_value / pixels_sent"), "stdout: {stdout}");
}

#[test]
fn health_honors_a_custom_rule_file_and_writes_the_report() {
    let dir = scratch("health_rules");
    let snap = dir.join("snap.json");
    let rules = dir.join("rules.txt");
    let report = dir.join("report.json");
    std::fs::write(&snap, snapshot_with_value(50)).expect("write snapshot");
    std::fs::write(&rules, "# custom gate\npixels_sent >= 200\n").expect("write rules");

    let out = kodan()
        .args(["health", "--snapshot"])
        .arg(&snap)
        .arg("--rules")
        .arg(&rules)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("run kodan health");
    assert_eq!(out.status.code(), Some(2), "custom rule must fail this snapshot");
    let written = std::fs::read_to_string(&report).expect("report written");
    assert!(written.contains("\"verdict\": \"unhealthy\""), "report: {written}");
    assert!(written.contains("pixels_sent >= 200"), "report: {written}");
}

#[test]
fn planner_floor_violation_fails_health_by_name() {
    // The built-in rule set carries a planner floor: a planned mission
    // that downlinked less value than the all-downlink-raw baseline
    // records a positive planner_dvd_shortfall_ppm counter, and `kodan
    // health` must exit 2 naming that rule. A zero-shortfall snapshot
    // of the same shape stays healthy.
    let dir = scratch("health_planner_floor");
    let shortfall = dir.join("shortfall.json");
    let clean = dir.join("clean.json");
    let with_shortfall = |ppm: u64| {
        let mut recorder = SummaryRecorder::new();
        recorder.event(TelemetryEvent::FrameCaptured { pixels: 100 });
        recorder.count(CounterId::PixelsSent, 100);
        recorder.count(CounterId::PixelsValue, 50);
        if ppm > 0 {
            recorder.count(CounterId::PlannerDvdShortfallPpm, ppm);
        }
        recorder.snapshot().to_json()
    };
    std::fs::write(&shortfall, with_shortfall(120_000)).expect("write shortfall");
    std::fs::write(&clean, with_shortfall(0)).expect("write clean");

    let fail = kodan()
        .args(["health", "--snapshot"])
        .arg(&shortfall)
        .output()
        .expect("run kodan health");
    assert_eq!(fail.status.code(), Some(2), "planner shortfall must exit 2");
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("health: FAIL"), "stdout: {stdout}");
    assert!(
        stdout.contains("planner_dvd_shortfall_ppm"),
        "failure must name the planner floor rule, stdout: {stdout}"
    );

    let pass = kodan()
        .args(["health", "--snapshot"])
        .arg(&clean)
        .output()
        .expect("run kodan health");
    assert_eq!(pass.status.code(), Some(0), "no shortfall must stay healthy");
}

#[test]
fn diff_exit_codes_distinguish_identical_from_differing() {
    let dir = scratch("diff_exit");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    std::fs::write(&a, snapshot_with_value(50)).expect("write a");
    std::fs::write(&b, snapshot_with_value(49)).expect("write b");

    let same = kodan()
        .arg("diff")
        .arg(&a)
        .arg(&a)
        .output()
        .expect("run kodan diff");
    assert_eq!(same.status.code(), Some(0), "identical snapshots must exit 0");
    assert!(String::from_utf8_lossy(&same.stdout).contains("identical"));

    let differ = kodan()
        .arg("diff")
        .arg(&a)
        .arg(&b)
        .output()
        .expect("run kodan diff");
    assert_eq!(differ.status.code(), Some(3), "differing snapshots must exit 3");
    let stdout = String::from_utf8_lossy(&differ.stdout);
    assert!(stdout.contains("pixels_value: 50 -> 49"), "stdout: {stdout}");
}

#[test]
fn bad_inputs_exit_one_with_a_named_error() {
    let dir = scratch("health_bad_input");
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{not json").expect("write junk");

    let health = kodan()
        .args(["health", "--snapshot"])
        .arg(&junk)
        .output()
        .expect("run kodan health");
    assert_eq!(health.status.code(), Some(1), "bad snapshot must exit 1");
    assert!(String::from_utf8_lossy(&health.stderr).contains("junk.json"));

    let diff = kodan()
        .args(["diff", "only-one.json"])
        .output()
        .expect("run kodan diff");
    assert_eq!(diff.status.code(), Some(1), "missing operand must exit 1");
    assert!(String::from_utf8_lossy(&diff.stderr).contains("usage"));
}

#[test]
fn mission_and_health_record_the_same_kodan_day() {
    // `kodan health` flies the Kodan leg of `kodan mission`: the same
    // transformation, selection, runtime and frames feed one recorder, so
    // the two commands write byte-identical snapshots.
    let dir = scratch("kodan_leg");
    let mission = dir.join("mission.json");
    let health = dir.join("health.json");
    let run = |command: &str, snapshot: &PathBuf| {
        let out = kodan()
            .args([command, "--frames", "4", "--workers", "2", "--telemetry"])
            .arg(snapshot)
            .output()
            .expect("run kodan");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(0) | Some(2)),
            "{command} exited {:?}: {stderr}",
            out.status.code()
        );
        std::fs::read(snapshot).expect("read snapshot")
    };
    let from_mission = run("mission", &mission);
    let from_health = run("health", &health);
    assert!(!from_mission.is_empty());
    assert!(
        from_mission == from_health,
        "mission and health snapshots differ"
    );
}
