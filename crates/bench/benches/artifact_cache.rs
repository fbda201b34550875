//! Artifact-cache warm start: ground transformation vs loading the
//! sealed artifact set.
//!
//! The paper's deployment model pays the transformation cost once on the
//! ground and uplinks only the deployable artifacts; every subsequent
//! boot of the on-orbit software starts from those bytes. This bench
//! measures both paths — cold (transform + select) and warm (unseal the
//! artifact store) — verifies they produce identical mission inputs, and
//! writes `BENCH_artifact_cache.json` at the repo root with the speedup
//! and the encoded sizes against the modeled uplink budget.

use kodan::artifact::{load_artifacts, save_artifacts};
use kodan::mission::SpaceEnvironment;
use kodan::pipeline::Transformation;
use kodan_bench::harness::{time, write_baseline, Protocol};
use kodan_bench::{banner, bench_dataset_config, bench_kodan_config, bench_world};
use kodan_geodata::Dataset;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::NullRecorder;
use kodan_wire::UPLINK_BUDGET_BYTES;
use std::path::PathBuf;

/// Both starts are timed as single calls: a cold start is seconds.
const PROTOCOL: Protocol = Protocol::timed(5, 1);

fn main() {
    banner(
        "Artifact cache: cold transformation vs warm artifact load",
        "ground transform+select wall time vs unsealing the kodan-wire store (App 4, Orin 15W)",
    );
    let world = bench_world();
    let dataset = Dataset::sample(&world, &bench_dataset_config());
    let env = SpaceEnvironment::landsat(1);
    let arch = ModelArch::ResNet50DilatedPpm;

    let cold = || {
        let artifacts = Transformation::new(bench_kodan_config())
            .run(&dataset, arch)
            .expect("bench transformation succeeds");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        (artifacts, logic)
    };
    // The last timed cold start is the deployment every check below uses.
    let mut built = None;
    let cold_t = time(PROTOCOL, || built = Some(cold()));
    let (artifacts, logic) = built.expect("timed at least once");

    let dir: PathBuf = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_artifact_cache");
    std::fs::remove_dir_all(&dir).ok();
    let report =
        save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");

    // Warm start must be the same deployment, bit for bit — otherwise the
    // speedup is comparing different missions.
    let loaded = load_artifacts(&dir, &mut NullRecorder).expect("load succeeds");
    assert!(loaded.recovered.is_empty(), "clean store needs no recovery");
    assert_eq!(loaded.artifacts, artifacts, "loaded artifacts diverged");
    assert_eq!(loaded.selection, logic, "loaded selection diverged");

    let warm_t = time(PROTOCOL, || {
        load_artifacts(&dir, &mut NullRecorder).expect("load succeeds")
    });
    let (cold_s, warm_s) = (cold_t.median, warm_t.median);
    let speedup = if warm_s > 0.0 { cold_s / warm_s } else { 0.0 };

    let total_bytes = report.total_bytes;
    let model_bytes: u64 = report
        .manifest
        .entries
        .iter()
        .filter(|e| e.name.starts_with("grid"))
        .map(|e| e.bytes)
        .sum();
    let budget_fraction = total_bytes as f64 / UPLINK_BUDGET_BYTES as f64;

    let count = report.manifest.entries.len();
    write_baseline("artifact_cache", "seconds_per_start", PROTOCOL, |w| {
        cold_t.write(w, "cold_start_s");
        warm_t.write(w, "warm_start_s");
        w.float(Some("warm_speedup"), speedup);
        w.uint(Some("artifact_count"), count as u64);
        w.uint(Some("total_bytes"), total_bytes);
        w.uint(Some("model_bytes"), model_bytes);
        w.uint(Some("uplink_budget_bytes"), UPLINK_BUDGET_BYTES);
        w.float(Some("budget_fraction"), budget_fraction);
        w.bool(Some("loaded_equals_in_memory"), true);
        w.string(
            Some("note"),
            "cold = transformation + selection on the bench dataset; warm = kodan-wire artifact \
             load verified equal to the in-memory set; the warm path is what an on-orbit reboot pays",
        );
    });

    println!();
    println!(
        "cold start {:.2} s  warm start {:.4} s  -> {speedup:.0}x warm speedup",
        cold_s, warm_s
    );
    println!(
        "uplink: {total_bytes} bytes across {count} artifacts ({:.2}% of the {UPLINK_BUDGET_BYTES}-byte budget)",
        budget_fraction * 100.0,
    );
    assert!(
        speedup > 1.0,
        "warm start {speedup:.2}x must beat the cold transformation"
    );
    assert!(!report.over_budget, "artifact set exceeds the uplink budget");

    std::fs::remove_dir_all(&dir).ok();
}
