//! Shared scaffolding for the figure/table benchmark harness.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the Kodan paper (run them with `cargo bench -p kodan-bench --bench
//! figN`). This library holds the pieces they share: the bench-scale
//! dataset and pipeline configuration, artifact construction, plain
//! fixed-width table printing, and the one timing harness and baseline
//! writer ([`harness`]).
//!
//! Bench scale is chosen so the full suite finishes in minutes while
//! keeping the statistics stable: a 40-frame representative dataset,
//! ~8k-pixel training budgets, and 48 sampled frames per simulated
//! mission day. Paper-scale runs just swap in
//! [`kodan::config::KodanConfig::evaluation`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod harness;

use kodan::config::KodanConfig;
use kodan::mission::{Mission, MissionParams, MissionReport, SpaceEnvironment, SystemKind};
use kodan::pipeline::{Transformation, TransformationArtifacts};
use kodan::runtime::Runtime;
use kodan::selection::SelectionLogic;
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{SummaryRecorder, TelemetrySnapshot};

/// The world seed shared by every bench, for cross-figure consistency.
pub const BENCH_SEED: u64 = 42;

/// The representative-dataset world (52 % cloud cover, as in the paper's
/// Sentinel-2 dataset).
pub fn bench_world() -> World {
    World::new(BENCH_SEED)
}

/// The on-orbit climatology world (67 % cloud cover [23]), used by the
/// motivation figures.
pub fn climatology_world() -> World {
    World::with_cloud_coverage(BENCH_SEED, 0.67)
}

/// The bench-scale dataset configuration.
pub fn bench_dataset_config() -> DatasetConfig {
    DatasetConfig {
        seed: BENCH_SEED,
        frame_count: 40,
        frame_px: 132,
        frame_km: 150.0,
        max_latitude_deg: 82.6,
        time_span_days: 8.0,
    }
}

/// The bench-scale Kodan pipeline configuration.
pub fn bench_kodan_config() -> KodanConfig {
    let mut config = KodanConfig::evaluation(BENCH_SEED);
    config.max_train_pixels = 8_000;
    config.max_eval_tiles = 240;
    config.train.epochs = 40;
    config
}

/// Runs the one-time transformation for an application at bench scale.
pub fn bench_artifacts(arch: ModelArch) -> TransformationArtifacts {
    let world = bench_world();
    let dataset = Dataset::sample(&world, &bench_dataset_config());
    Transformation::new(bench_kodan_config())
        .run(&dataset, arch)
        .expect("bench transformation succeeds")
}

/// Mission sampling parameters used by every figure.
pub fn bench_mission_params() -> MissionParams {
    MissionParams {
        sample_frames: 48,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 4.0,
    }
}

/// Runs the three systems (bent pipe / direct deploy / Kodan) for one
/// application on one target, returning their mission reports.
pub fn run_three_systems(
    artifacts: &TransformationArtifacts,
    env: &SpaceEnvironment,
    world: &World,
    target: kodan_hw::HwTarget,
) -> [MissionReport; 3] {
    let mission = Mission::new(env, world, bench_mission_params());
    let bent = mission.run_bent_pipe();

    let direct_logic = SelectionLogic::direct_deploy(
        artifacts,
        target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let direct_rt = Runtime::new(direct_logic, artifacts.engine.clone());
    let direct = mission.run_with_runtime(&direct_rt, SystemKind::DirectDeploy);

    let kodan_logic =
        artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
    let kodan_rt = Runtime::new(kodan_logic, artifacts.engine.clone());
    let kodan = mission.run_with_runtime(&kodan_rt, SystemKind::Kodan);

    [bent, direct, kodan]
}

/// Runs the Kodan system for one mission day with a [`SummaryRecorder`]
/// attached, returning the report plus the rolled-up telemetry snapshot.
/// Ablation benches use this to record a per-arm snapshot, so a shift in
/// any sweep can be attributed to a pipeline stage rather than re-derived
/// from final aggregates.
pub fn run_kodan_recorded(
    artifacts: &TransformationArtifacts,
    env: &SpaceEnvironment,
    world: &World,
    target: kodan_hw::HwTarget,
) -> (MissionReport, TelemetrySnapshot) {
    let logic =
        artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let mission = Mission::new(env, world, bench_mission_params());
    let mut recorder = SummaryRecorder::new();
    let report = mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
    (report, recorder.snapshot())
}

/// Prints a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!("{caption}");
    println!("==============================================================");
}

/// Prints a row of fixed-width cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an integer cell.
pub fn n(v: u64) -> String {
    format!("{v}")
}

/// Formats a label cell.
pub fn s(v: &str) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid() {
        bench_kodan_config().validate();
        assert_eq!(bench_dataset_config().frame_px % 11, 0);
        assert_eq!(bench_dataset_config().frame_px % 12, 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.5), "0.500");
        assert_eq!(n(7), "7");
        assert_eq!(s("x"), "x");
    }
}
