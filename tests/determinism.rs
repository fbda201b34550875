//! Determinism integration tests: the entire system — dataset,
//! transformation, selection and missions — must be bit-reproducible
//! from its seeds, because the paper-figure benches depend on it.

mod common;

use kodan::mission::{Mission, MissionParams, SpaceEnvironment, SystemKind};
use kodan::pipeline::Transformation;
use kodan::runtime::Runtime;
use kodan::KodanConfig;
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_hw::HwTarget;
use kodan_ml::ModelArch;
use kodan_telemetry::SummaryRecorder;

fn small_dataset(seed: u64) -> Dataset {
    let mut cfg = DatasetConfig::small(seed);
    cfg.frame_count = 8;
    cfg.frame_px = 132;
    Dataset::sample(&World::new(42), &cfg)
}

#[test]
fn transformation_is_reproducible() {
    let dataset = small_dataset(1);
    let a = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let b = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_artifacts() {
    let dataset = small_dataset(1);
    let a = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let b = Transformation::new(KodanConfig::fast(10))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    assert_ne!(a, b);
}

#[test]
fn missions_are_reproducible() {
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = || {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        Mission::new(&env, &world, params).run_with_runtime(&runtime, SystemKind::Kodan)
    };
    assert_eq!(run(), run());
}

#[test]
fn telemetry_snapshots_are_byte_identical() {
    // Two runs of the same seeded pipeline — transformation plus a kodan
    // mission, both instrumented — must serialize to byte-identical JSON.
    // This is the observability contract: a snapshot diff is a behavior
    // diff, never serialization noise.
    let dataset = small_dataset(1);
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = || {
        let mut recorder = SummaryRecorder::new();
        let artifacts = Transformation::new(KodanConfig::fast(9))
            .run_recorded(&dataset, ModelArch::MobileNetV2DilatedC1, &mut recorder)
            .expect("transformation succeeds");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        recorder.snapshot().to_json()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes(), "snapshot JSON must be byte-stable");
}

#[test]
fn parallel_missions_match_serial_bitwise() {
    // The data-parallel frame path must be a pure wall-clock optimization:
    // every MissionReport field — f64 aggregates included — must be
    // bit-identical whether one worker or many processed the frames.
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 8,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        Mission::new(&env, &world, params).run_with_runtime(&runtime, SystemKind::Kodan)
    };
    let serial = run(1);
    for workers in [2, 4] {
        assert_eq!(serial, run(workers), "{workers}-worker mission diverged");
    }
}

#[test]
fn parallel_telemetry_snapshots_match_serial_byte_for_byte() {
    // Per-worker tape recorders replayed in frame-index order must
    // reproduce the serial telemetry stream exactly: same counters, same
    // span aggregates, same JSON bytes.
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let mut recorder = SummaryRecorder::new();
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        recorder.snapshot().to_json()
    };
    let serial = run(1);
    assert!(!serial.is_empty());
    for workers in [2, 4] {
        assert_eq!(
            serial.as_bytes(),
            run(workers).as_bytes(),
            "{workers}-worker telemetry diverged from serial"
        );
    }
}

#[test]
fn parallel_training_matches_serial_artifacts_and_selection() {
    // Specialized-model training fans out across workers with per-context
    // seed streams keyed on context identity, so the trained weights —
    // and everything selected from them — must not depend on the worker
    // count. Only the recorded `workers` knob itself may differ.
    let dataset = small_dataset(1);
    let run = |workers: usize| {
        let mut config = KodanConfig::fast(9);
        config.workers = workers;
        Transformation::new(config)
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds")
    };
    let serial = run(1);
    let env = SpaceEnvironment::fixed(0.21);
    let serial_logic = serial.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    for workers in [2, 4] {
        let mut parallel = run(workers);
        let logic = parallel.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        assert_eq!(serial_logic, logic, "{workers}-worker selection diverged");
        // The config records the requested worker count; normalize that
        // one knob and everything else must be bit-identical.
        parallel.config.workers = serial.config.workers;
        assert_eq!(serial, parallel, "{workers}-worker artifacts diverged");
    }
}

#[test]
fn fault_injected_missions_are_byte_identical_at_any_worker_count() {
    // The fault-injection contract: a mission flown under a fault plan is
    // just as reproducible as a clean one. Same fault seed => identical
    // MissionReport, identical detailed (queue-replay) report, and
    // byte-identical telemetry JSON, at 1, 2 and 4 workers — because every
    // fault decision is a pure function of (seed, site identity), never of
    // thread arrival order.
    use kodan_cote::sim::ServedPass;
    use kodan_cote::time::{Duration, Epoch};
    use kodan_faults::{FaultConfig, FaultPlan};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let passes: Vec<ServedPass> = (0..12)
        .map(|i| {
            let start = Epoch::mission_start() + Duration::from_minutes(90.0 * i as f64);
            ServedPass {
                satellite: 0,
                station: 0,
                start,
                end: start + Duration::from_minutes(8.0),
                rate_bps: 3.0e8,
            }
        })
        .collect();

    let run = |workers: usize| {
        let plan = FaultPlan::new(FaultConfig::nominal(99)).expect("nominal plan is valid");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let fallback = artifacts
            .grid_artifacts(logic.grid())
            .expect("selected grid exists")
            .global_model
            .clone();
        let runtime = Runtime::new(logic, artifacts.engine.clone())
            .with_workers(workers)
            .with_fault_plan(plan.clone(), fallback);
        let mission = Mission::new(&env, &world, params);
        let mut recorder = SummaryRecorder::new();
        let report =
            mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
        let detailed = mission.run_detailed_faulted(
            &runtime,
            &passes,
            1.0e9,
            100.0,
            Some(&plan),
            &mut recorder,
        );
        (report, detailed, recorder.snapshot().to_json())
    };

    let (report_1, detailed_1, json_1) = run(1);
    // The plan actually fired: this is a determinism test of the faulted
    // path, not the clean one.
    assert!(
        json_1.contains("fault_injected"),
        "nominal plan injected nothing over the mission"
    );
    for workers in [2, 4] {
        let (report_n, detailed_n, json_n) = run(workers);
        assert_eq!(report_1, report_n, "{workers}-worker faulted mission diverged");
        assert_eq!(detailed_1, detailed_n, "{workers}-worker detailed replay diverged");
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker faulted telemetry diverged"
        );
    }
}

#[test]
fn saved_artifacts_reload_byte_identically() {
    // The uplink contract: what the ground seals is exactly what the
    // satellite unseals. A clean save→load round trip must reproduce the
    // full artifact set and selection logic with `==` — and saving twice
    // must produce byte-identical stores (canonical encoding leaves no
    // room for incidental variation).
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );

    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_artifacts");
    std::fs::remove_dir_all(&root).ok();
    let dir_a = root.join("a");
    let dir_b = root.join("b");
    let report_a = save_artifacts(&artifacts, &logic, &dir_a, &mut NullRecorder)
        .expect("save succeeds");
    let report_b = save_artifacts(&artifacts, &logic, &dir_b, &mut NullRecorder)
        .expect("second save succeeds");
    assert_eq!(report_a, report_b, "re-saving must be byte-deterministic");
    assert!(report_a.total_bytes > 0);
    assert!(!report_a.over_budget, "test artifacts fit the uplink budget");

    // Every on-disk byte matches: manifest text and all objects.
    let read = |dir: &Path, name: &str| std::fs::read(dir.join(name)).expect("read store file");
    assert_eq!(read(&dir_a, "manifest.txt"), read(&dir_b, "manifest.txt"));
    for entry in &report_a.manifest.entries {
        let object = format!("objects/{:016x}.bin", entry.digest);
        assert_eq!(read(&dir_a, &object), read(&dir_b, &object), "{object} differs");
    }

    let loaded = load_artifacts(&dir_a, &mut NullRecorder).expect("load succeeds");
    assert!(loaded.recovered.is_empty(), "clean store needs no recovery");
    assert!(loaded.quarantined_slots.is_empty());
    assert_eq!(loaded.artifacts, artifacts, "artifacts round-trip exactly");
    assert_eq!(loaded.selection, logic, "selection logic round-trips exactly");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn missions_from_loaded_artifacts_match_in_memory_at_any_worker_count() {
    // Flying a mission from an unsealed artifact set is the same mission:
    // identical MissionReport and byte-identical telemetry JSON as the
    // in-memory path, at 1, 2 and 4 workers.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_loaded_mission");
    std::fs::remove_dir_all(&dir).ok();
    save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
    let loaded = load_artifacts(&dir, &mut NullRecorder).expect("load succeeds");

    let fly = |logic: &kodan::SelectionLogic,
               engine: &kodan::ContextEngine,
               quarantined: &[usize],
               workers: usize| {
        let runtime = Runtime::new(logic.clone(), engine.clone())
            .with_workers(workers)
            .with_quarantined_models(quarantined.to_vec());
        let mut recorder = SummaryRecorder::new();
        let report = Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (report, recorder.snapshot().to_json())
    };

    for workers in [1, 2, 4] {
        let (memory_report, memory_json) = fly(&logic, &artifacts.engine, &[], workers);
        let (loaded_report, loaded_json) = fly(
            &loaded.selection,
            &loaded.artifacts.engine,
            &loaded.quarantined_slots,
            workers,
        );
        assert_eq!(
            memory_report, loaded_report,
            "{workers}-worker loaded-artifact mission diverged"
        );
        assert_eq!(
            memory_json.as_bytes(),
            loaded_json.as_bytes(),
            "{workers}-worker loaded-artifact telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantized_missions_from_loaded_artifacts_are_byte_identical_at_any_worker_count() {
    // With `config.quantize` set, every saved model slot carries an
    // i16/i32 companion blob; a loaded mission then flies the
    // fixed-point fast path. Integer kernels have no accumulation-order
    // sensitivity at all, so worker-count byte-identity must hold here
    // by construction: identical MissionReport and telemetry JSON at 1,
    // 2 and 4 workers.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    let dataset = small_dataset(1);
    let mut config = KodanConfig::fast(9);
    config.quantize = true;
    let artifacts = Transformation::new(config)
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_quantized_mission");
    std::fs::remove_dir_all(&dir).ok();
    let report =
        save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
    assert!(
        report.quantized_models > 0,
        "config.quantize must write companion blobs"
    );
    let loaded = load_artifacts(&dir, &mut NullRecorder).expect("load succeeds");
    assert!(loaded.recovered.is_empty(), "clean store needs no recovery");
    assert!(loaded.degraded_quantized.is_empty());
    assert!(
        loaded.quantized_attached > 0,
        "quantized companions must attach on load"
    );
    assert!(
        loaded.selection.models().iter().any(|m| m.is_quantized()),
        "the flying model table must carry the fast path"
    );

    let fly = |workers: usize| {
        let runtime = Runtime::new(loaded.selection.clone(), loaded.artifacts.engine.clone())
            .with_workers(workers)
            .with_quarantined_models(loaded.quarantined_slots.clone());
        let mut recorder = SummaryRecorder::new();
        let report = Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (report, recorder.snapshot().to_json())
    };
    let (base_report, base_json) = fly(1);
    for workers in [2, 4] {
        let (mission_report, json) = fly(workers);
        assert_eq!(
            base_report, mission_report,
            "{workers}-worker quantized mission diverged"
        );
        assert_eq!(
            base_json.as_bytes(),
            json.as_bytes(),
            "{workers}-worker quantized telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_reports_and_telemetry_are_byte_identical_at_any_worker_count() {
    // The constellation-scale acceptance gate: a 24-satellite fleet day
    // under a memtable budget small enough to force spilling must
    // produce an identical FleetReport and byte-identical telemetry
    // JSON at 1, 2 and 4 workers. Satellites fan out across workers but
    // their tapes replay in satellite order, and the spill combiner
    // ingests a globally (satellite, seq)-sorted journal stream, so
    // neither scheduling nor spill boundaries can reorder the fold.
    use kodan::fleet::{Fleet, FleetConfig};
    use kodan_wire::ArtifactStore;
    use std::path::Path;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    };
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_fleet");
    std::fs::remove_dir_all(&root).ok();
    let budget = 4 * kodan::fleet::combine::JournalRecord::ENCODED_BYTES;

    let run = |workers: usize| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        let config = FleetConfig {
            satellites: 24,
            memtable_budget: budget,
            workers,
            plan: None,
        };
        let dir = root.join(format!("w{workers}"));
        let store = ArtifactStore::create(&dir).expect("create spill store");
        let mut recorder = SummaryRecorder::new();
        let report = Fleet::new(&world, &runtime, params, config)
            .run_recorded(&store, &mut recorder)
            .expect("fleet run succeeds");
        (report, recorder.snapshot().to_json())
    };

    let (report_1, json_1) = run(1);
    assert_eq!(report_1.satellites, 24);
    assert!(report_1.spill.runs > 0, "budget must force spilling");
    assert!(report_1.spill.peak_memtable_bytes <= budget);
    assert!(
        report_1.spill.ingested_bytes > budget,
        "the fleet journal must exceed the memtable budget"
    );
    for workers in [2, 4] {
        let (report_n, json_n) = run(workers);
        assert_eq!(report_1, report_n, "{workers}-worker fleet report diverged");
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker fleet telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planned_missions_are_byte_identical_at_any_worker_count() {
    // The execution planner's contract: placement decisions are made
    // once, in frame-index order, from worker-invariant estimates — so
    // a planned mission (estimate pass, plan, planned flight) must
    // produce an identical PlannedMissionReport and byte-identical
    // telemetry JSON at 1, 2 and 4 workers.
    use kodan::{ExecutionPlanner, PlanConfig};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        let planner = ExecutionPlanner::new(
            PlanConfig::default_plan(),
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let mut recorder = SummaryRecorder::new();
        let planned =
            Mission::new(&env, &world, params).run_planned_recorded(&runtime, &planner, &mut recorder);
        (planned, recorder.snapshot().to_json())
    };
    let (planned_1, json_1) = run(1);
    let placed = planned_1.ledger.frames_on_orbit
        + planned_1.ledger.frames_downlink_raw
        + planned_1.ledger.frames_deferred;
    assert_eq!(placed, 6, "every sampled frame gets exactly one placement");
    for workers in [2, 4] {
        let (planned_n, json_n) = run(workers);
        assert_eq!(planned_1, planned_n, "{workers}-worker planned mission diverged");
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker planned telemetry diverged"
        );
    }
}

#[test]
fn plan_off_missions_are_untouched_by_planner_availability() {
    // With no plan installed the runtime must fly the exact pre-planner
    // path: an ordinary mission produces identical reports and telemetry
    // bytes whether or not the same runtime was also used to drive a
    // planned mission beside it (`run_planned_recorded` clones before
    // installing the plan, so the caller's runtime stays plan-free).
    use kodan::{ExecutionPlanner, PlanConfig};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mission = Mission::new(&env, &world, params);

    let baseline = |runtime: &Runtime| {
        let mut recorder = SummaryRecorder::new();
        let report = mission.run_with_runtime_recorded(runtime, SystemKind::Kodan, &mut recorder);
        (report, recorder.snapshot().to_json())
    };

    let fresh = Runtime::new(logic.clone(), artifacts.engine.clone());
    let (report_before, json_before) = baseline(&fresh);

    // Fly a planned mission on the same runtime, then the ordinary
    // mission again: the planner must leave no trace on the plan-off path.
    let planner = ExecutionPlanner::new(
        PlanConfig::default_plan(),
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let _ = mission.run_planned(&fresh, &planner);
    let (report_after, json_after) = baseline(&fresh);

    assert_eq!(report_before, report_after, "plan-off mission drifted");
    assert_eq!(
        json_before.as_bytes(),
        json_after.as_bytes(),
        "plan-off telemetry drifted"
    );
}

#[test]
fn selection_is_reproducible_across_rederivations() {
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    for target in HwTarget::ALL {
        let a = artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
        let b = artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
        assert_eq!(a, b, "selection for {target} not reproducible");
    }
}

#[test]
fn trace_export_is_byte_identical_at_any_worker_count() {
    // The trace exporter is just another Recorder fed through the same
    // tape-replay path as the summary recorder, so the Chrome trace JSON
    // — event order, modeled timestamps, thread lanes — must not depend
    // on the worker count.
    use kodan_telemetry::TraceBuilder;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let mut tracer = TraceBuilder::new();
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut tracer,
        );
        tracer.to_chrome_json()
    };
    let serial = run(1);
    assert!(serial.contains("\"traceEvents\""));
    assert!(serial.contains("\"cat\": \"runtime\""));
    for workers in [2, 4] {
        assert_eq!(
            serial.as_bytes(),
            run(workers).as_bytes(),
            "{workers}-worker trace diverged from serial"
        );
    }
}

#[test]
fn tape_replay_feeds_trace_export_identically() {
    // A TapeRecorder capture replayed into a TraceBuilder must produce
    // the same trace as recording live: the tape preserves the nested
    // span structure (frame -> classification/elision/model execution)
    // that the trace lanes are built from.
    use kodan_telemetry::{Recorder, TapeRecorder, TelemetryEvent, TraceBuilder};
    use kodan_telemetry::StageId;

    let mut live = TraceBuilder::new();
    let mut tape = TapeRecorder::new();
    for frame in 0..3u64 {
        for r in [&mut live as &mut dyn Recorder, &mut tape as &mut dyn Recorder] {
            r.event(TelemetryEvent::FrameCaptured { pixels: 100 + frame });
            r.span(StageId::Classification, 0.25, 36);
            r.span(StageId::ModelExecution, 0.5, 12);
            r.span(StageId::Frame, 1.0, 1);
        }
    }
    let mut replayed = TraceBuilder::new();
    tape.replay_into(&mut replayed);
    assert_eq!(
        live.to_chrome_json().as_bytes(),
        replayed.to_chrome_json().as_bytes(),
        "tape replay diverged from live trace capture"
    );
}

#[test]
fn black_box_reports_are_byte_identical_at_any_worker_count() {
    // Every degradation freezes a black-box window of the frames leading
    // up to it. Under a fault plan the set of degradations is a pure
    // function of (seed, site identity), so the whole black-box log —
    // report count, trigger kinds, captured event windows — must be
    // byte-identical at 1, 2 and 4 workers.
    use kodan_faults::{FaultConfig, FaultPlan};
    use kodan_telemetry::{open_blackbox, seal_blackbox, FlightRecorder};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let plan = FaultPlan::new(FaultConfig::nominal(99)).expect("nominal plan is valid");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let fallback = artifacts
            .grid_artifacts(logic.grid())
            .expect("selected grid exists")
            .global_model
            .clone();
        let runtime = Runtime::new(logic, artifacts.engine.clone())
            .with_workers(workers)
            .with_fault_plan(plan, fallback);
        let mut recorder = FlightRecorder::new(SummaryRecorder::new());
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (recorder.blackbox_json(), seal_blackbox(&recorder.log()))
    };
    let (json_1, wire_1) = run(1);
    // The plan actually fired, so the log is non-trivial.
    let log_1 = open_blackbox(&wire_1).expect("sealed log opens");
    assert!(
        !log_1.reports.is_empty(),
        "nominal plan produced no black-box reports over the mission"
    );
    for workers in [2, 4] {
        let (json_n, wire_n) = run(workers);
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker black-box log diverged from serial"
        );
        assert_eq!(wire_1, wire_n, "{workers}-worker sealed black-box diverged");
    }
}

/// Cross-commit golden pins: `fnv1a64` digests of a report's `Debug`
/// text and of the run's telemetry snapshot JSON. The worker-count tests
/// above compare runs within one build; these catch a refactor that
/// changes any output byte, at any worker count, against the recorded
/// values. A deliberate behaviour change re-records them and says so.
fn assert_golden(case: &str, report_debug: &str, snapshot_json: &str, expected: (u64, u64)) {
    let actual = (
        kodan_wire::digest::fnv1a64(report_debug.as_bytes()),
        kodan_wire::digest::fnv1a64(snapshot_json.as_bytes()),
    );
    assert_eq!(
        actual, expected,
        "{case}: golden digests moved to ({:#018x}, {:#018x})",
        actual.0, actual.1
    );
}

#[test]
fn golden_planned_mission_is_pinned() {
    use kodan::{ExecutionPlanner, PlanConfig};

    let artifacts = common::test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let mut config = PlanConfig::default_plan();
    config.contacts = 2;
    let planner = ExecutionPlanner::new(
        config,
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mut recorder = SummaryRecorder::new();
    let planned =
        Mission::new(&env, &world, params).run_planned_recorded(&runtime, &planner, &mut recorder);
    let ledger = &planned.ledger;
    assert!(
        ledger.frames_on_orbit > 0 && ledger.frames_downlink_raw > 0 && ledger.frames_deferred > 0,
        "the pinned plan must exercise every placement: {ledger:?}"
    );
    assert_golden(
        "planned mission",
        &format!("{planned:?}"),
        &recorder.snapshot().to_json(),
        (0x1a9d086e1969ac8e, 0x078f36c71183d1c8),
    );
}

#[test]
fn golden_faulted_detailed_mission_is_pinned() {
    use kodan_cote::sim::ServedPass;
    use kodan_cote::time::{Duration, Epoch};
    use kodan_faults::{FaultConfig, FaultPlan};

    let artifacts = common::test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let passes: Vec<ServedPass> = (0..12)
        .map(|i| {
            let start = Epoch::mission_start() + Duration::from_minutes(90.0 * i as f64);
            ServedPass {
                satellite: 0,
                station: 0,
                start,
                end: start + Duration::from_minutes(8.0),
                rate_bps: 3.0e8,
            }
        })
        .collect();
    let mut config = FaultConfig::nominal(99);
    config.seu_rate = 0.5;
    config.slowdown_rate = 0.5;
    config.contact_drop_rate = 0.3;
    config.contact_shorten_rate = 0.5;
    let plan = FaultPlan::new(config).expect("fault config is valid");
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let fallback = artifacts
        .grid_artifacts(logic.grid())
        .expect("selected grid exists")
        .global_model
        .clone();
    let runtime =
        Runtime::new(logic, artifacts.engine.clone()).with_fault_plan(plan.clone(), fallback);
    let mut recorder = SummaryRecorder::new();
    let detailed = Mission::new(&env, &world, params).run_detailed_faulted(
        &runtime,
        &passes,
        4.0e4,
        100.0,
        Some(&plan),
        &mut recorder,
    );
    assert!(
        detailed.contacts_dropped > 0 && detailed.contacts_shortened > 0,
        "the pinned plan must degrade contacts: {detailed:?}"
    );
    assert_golden(
        "faulted detailed mission",
        &format!("{detailed:?}"),
        &recorder.snapshot().to_json(),
        (0x921be58f44947b99, 0x3077c2bd6e493338),
    );
}

#[test]
fn golden_fleet_days_are_pinned() {
    use kodan::fleet::{Fleet, FleetConfig};
    use kodan::PlanConfig;
    use kodan_wire::ArtifactStore;
    use std::path::Path;

    let artifacts = common::test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_fleet");
    std::fs::remove_dir_all(&root).ok();
    let fly = |plan: Option<PlanConfig>, tag: &str| {
        let config = FleetConfig {
            satellites: 2,
            memtable_budget: 2 * kodan::fleet::combine::JournalRecord::ENCODED_BYTES,
            workers: 0,
            plan,
        };
        let store = ArtifactStore::create(&root.join(tag)).expect("create spill store");
        let mut recorder = SummaryRecorder::new();
        let report = Fleet::new(&world, &runtime, params, config)
            .run_recorded(&store, &mut recorder)
            .expect("fleet run succeeds");
        (format!("{report:?}"), recorder.snapshot().to_json())
    };
    let (report, json) = fly(None, "plain");
    assert_golden(
        "unplanned fleet",
        &report,
        &json,
        (0xcc2c4e74d600d31b, 0x0b5bb3e6c272de37),
    );
    let (report, json) = fly(Some(PlanConfig::default_plan()), "planned");
    assert_golden(
        "planned fleet",
        &report,
        &json,
        (0x194ddc7d10ae11a6, 0xd6a82766948b8266),
    );
    std::fs::remove_dir_all(&root).ok();
}
