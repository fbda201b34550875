//! The `kodan` CLI subcommands.

use crate::args::Options;
use kodan::config::ContextGenerationKind;
use kodan::coverage::coverage_comparison;
use kodan::fleet::{Fleet, FleetConfig};
use kodan::mission::{Mission, MissionParams, SpaceEnvironment, SystemKind};
use kodan::pipeline::{Transformation, TransformationArtifacts};
use kodan::runtime::Runtime;
use kodan::selection::SelectionLogic;
use kodan::KodanConfig;
use kodan::{ExecutionPlanner, PlanConfig, PlanMode};
use kodan_faults::{FaultConfig, FaultPlan};
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_telemetry::{
    default_health_rules, diff_snapshots, evaluate_health, parse_health_rules, CounterId,
    FlightRecorder, NullRecorder, Recorder, StageId, SummaryRecorder, TelemetrySnapshot,
    TraceBuilder,
};
use std::process::ExitCode;

/// Usage text shown by `kodan help` and on argument errors.
pub const USAGE: &str = "\
kodan — orbital edge computing under the computational bottleneck

USAGE:
  kodan <command> [flags]

COMMANDS:
  dataset     summarize the procedural representative dataset
  contexts    generate and describe geospatial contexts
  transform   run the one-time transformation for an application
  select      derive the selection logic for a hardware target
  mission     fly a simulated day: bent pipe vs direct deploy vs kodan
  plan        fly the day under the hybrid space–ground execution
              planner (per-frame placement against energy, thermal
              and contact budgets) and compare its DVD against the
              all-on-orbit and all-downlink-raw baselines
  fleet       fly every satellite of the constellation through one
              shared day — contended ground stations, per-satellite
              queue replay, bounded-memory spill aggregation
  coverage    constellation sizing for full ground-track coverage
  artifacts   inspect PATH [--telemetry OUT] — verify a saved
              artifact directory (optionally writing the inspection
              counters as a telemetry snapshot)
  trace       fly the kodan mission and export the modeled-time span
              forest as Chrome trace-event JSON (open in Perfetto)
  health      evaluate declarative threshold rules over the mission
              telemetry; exits 2 when any rule fails
  diff        BEFORE.json AFTER.json — compare two telemetry
              snapshots field by field; exits 3 when they differ
  help        show this text

FLAGS:
  --app N        application 1..7 (Table 1 architectures)   [4]
  --target T     orin | i7 | 1070ti                         [orin]
  --seed N       master seed                                [42]
  --frames N     representative-dataset frames              [32]
  --contexts K   automatic context count                    [6]
  --expert       expert (surface-type) contexts
  --sats N       constellation size for the environment     [1]
  --satellites N fleet: satellites actually flown            [24]
  --memtable-budget B  fleet: combiner memtable budget in
                 bytes; journals past it spill to the store [8192]
  --telemetry P  write a telemetry snapshot (JSON) to path P
  --workers N    worker threads (0 = auto; outputs are
                 identical for any worker count)          [0]
  --faults P     inject faults from `key = value` plan file P
                 (mission only; see kodan-faults)
  --fault-seed N inject the built-in nominal fault plan with
                 seed N (ignored when --faults is given)
  --save-artifacts D  after transform, seal the deployable set
                 (config, contexts, engine, models, selection)
                 into directory D for the modeled uplink
  --quantize     with --save-artifacts: seal an i16/i32 quantized
                 companion blob beside every model so loaded
                 missions fly the fixed-point fast path
  --load-artifacts D  fly the mission from the artifact set in
                 directory D instead of retraining; corrupted
                 models degrade to the global-model fallback
  --out P        trace: write the Chrome trace JSON to P instead
                 of stdout; health: also write the JSON report to P;
                 fleet: spill-run store directory (replaced on each
                 run; defaults to a scratch directory)
  --rules P      health: read threshold rules from P (one
                 `metric >= t` / `metric <= t` line each) instead
                 of the built-in rule set
  --snapshot P   health: evaluate the snapshot file P instead of
                 flying a mission
  --blackbox P   mission/health: write the flight recorder's
                 black-box log (JSON) to P
  --plan         fleet: fly every satellite under the execution
                 planner (plan itself always plans)
  --energy E     plan/fleet: cubesat | smallsat power profile for
                 the planner's energy budget            [cubesat]
  --contacts N   plan/fleet: ground passes the planner spreads the
                 day's downlink capacity over                 [4]";

fn build_dataset(options: &Options) -> (World, Dataset) {
    let world = World::new(options.seed);
    let mut cfg = DatasetConfig::evaluation(options.seed);
    cfg.frame_count = options.frames;
    let dataset = Dataset::sample(&world, &cfg);
    (world, dataset)
}

fn build_config(options: &Options) -> KodanConfig {
    let mut config = KodanConfig::evaluation(options.seed);
    config.context_count = options.contexts;
    config.max_train_pixels = 8_000;
    config.max_eval_tiles = 240;
    config.train.epochs = 40;
    if options.expert {
        config.generation = ContextGenerationKind::Expert;
    }
    config.workers = options.workers;
    config.quantize = options.quantize;
    config
}

fn build_artifacts(options: &Options) -> Result<(World, TransformationArtifacts), String> {
    build_artifacts_recorded(options, &mut NullRecorder)
}

fn build_artifacts_recorded(
    options: &Options,
    recorder: &mut dyn Recorder,
) -> Result<(World, TransformationArtifacts), String> {
    let (world, dataset) = build_dataset(options);
    let artifacts = Transformation::new(build_config(options))
        .run_recorded(&dataset, options.app, recorder)
        .map_err(|e| format!("transformation failed: {e}"))?;
    Ok((world, artifacts))
}

/// Prints the per-stage span breakdown from a telemetry snapshot as an
/// indented table. Stages with zero calls are omitted; child stages are
/// indented under their parents following [`StageId::parent`].
fn print_stage_table(snapshot: &TelemetrySnapshot) {
    println!("  stage                       modeled-s      items    calls");
    for stage in StageId::ALL {
        let Some(span) = snapshot.spans.get(stage.name()) else {
            continue;
        };
        if span.calls == 0 {
            continue;
        }
        let mut depth = 0;
        let mut cursor = stage;
        while let Some(parent) = cursor.parent() {
            depth += 1;
            cursor = parent;
        }
        let label = format!("{}{}", "  ".repeat(depth), stage.name());
        println!(
            "  {label:<25} {:>11.3} {:>10} {:>8}",
            span.modeled_seconds, span.items, span.calls
        );
    }
}

/// Builds the fault plan selected by `--faults` / `--fault-seed`, or
/// `None` when neither flag was given.
fn build_fault_plan(options: &Options) -> Result<Option<FaultPlan>, String> {
    let config = if let Some(path) = &options.faults {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read fault plan {path}: {e}"))?;
        Some(FaultConfig::parse(&text).map_err(|e| format!("bad fault plan {path}: {e}"))?)
    } else {
        options.fault_seed.map(FaultConfig::nominal)
    };
    config
        .map(FaultPlan::new)
        .transpose()
        .map_err(|e| format!("invalid fault config: {e}"))
}

/// Arms `runtime` with `plan`, using the selected grid's global model —
/// the one model guaranteed to cover every context — as the
/// degradation fallback.
fn arm_fault_plan(
    runtime: Runtime,
    artifacts: &TransformationArtifacts,
    plan: &FaultPlan,
) -> Result<Runtime, String> {
    let grid = runtime.logic().grid();
    let fallback = artifacts
        .grid_artifacts(grid)
        .map_err(|e| e.to_string())?
        .global_model
        .clone();
    Ok(runtime.with_fault_plan(plan.clone(), fallback))
}

/// Runs the full kodan path — ground transformation, selection, and the
/// on-orbit mission (with `--faults` / `--fault-seed` honored) — feeding
/// every stage through `recorder`. Shared by `trace` and `health`,
/// which differ only in the recorder they attach.
fn fly_kodan_recorded(options: &Options, recorder: &mut dyn Recorder) -> Result<(), String> {
    let (world, artifacts) = build_artifacts_recorded(options, recorder)?;
    let env = SpaceEnvironment::landsat(options.sats);
    let logic = artifacts.select_with_capacity(
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mission = Mission::new(&env, &world, MissionParams::default());
    let mut runtime =
        Runtime::new(logic, artifacts.engine.clone()).with_workers(options.workers);
    if let Some(plan) = build_fault_plan(options)? {
        runtime = arm_fault_plan(runtime, &artifacts, &plan)?;
    }
    let _ = mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, recorder);
    Ok(())
}

/// Writes the flight recorder's black-box log to `--blackbox PATH` when
/// the flag was given.
fn write_blackbox(
    options: &Options,
    recorder: &FlightRecorder<SummaryRecorder>,
) -> Result<(), String> {
    if let Some(path) = &options.blackbox {
        std::fs::write(path, recorder.blackbox_json())
            .map_err(|e| format!("failed to write black-box log to {path}: {e}"))?;
        println!(
            "  black-box log written to {path} ({} report(s))",
            recorder.reports().len()
        );
    }
    Ok(())
}

/// Writes the snapshot to `--telemetry PATH` when the flag was given.
fn write_telemetry(options: &Options, snapshot: &TelemetrySnapshot) -> Result<(), String> {
    if let Some(path) = &options.telemetry {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("failed to write telemetry to {path}: {e}"))?;
        println!("  telemetry snapshot written to {path}");
    }
    Ok(())
}

/// `kodan dataset`
pub fn dataset(options: &Options) -> Result<(), String> {
    let (_, dataset) = build_dataset(options);
    let stats = kodan_geodata::stats::DatasetStats::compute(&dataset, 6);
    print!("{stats}");
    Ok(())
}

/// `kodan contexts`
pub fn contexts(options: &Options) -> Result<(), String> {
    let (_, dataset) = build_dataset(options);
    let tiles = dataset.tiles(6);
    let set = if options.expert {
        kodan::ContextSet::generate_expert(&tiles)
    } else {
        kodan::ContextSet::generate_auto(
            &tiles,
            options.contexts.min(tiles.len()),
            kodan_ml::DistanceMetric::Euclidean,
            kodan_ml::transform::TransformKind::Standardize,
            options.seed,
        )
    };
    println!(
        "{} contexts over {} tiles ({} generation):",
        set.len(),
        tiles.len(),
        if options.expert { "expert" } else { "k-means" }
    );
    for ctx in set.contexts() {
        println!(
            "  {}  {:>5} tiles ({:>5.1}%)  {:>5.1}% high-value  dominant: {}",
            ctx.id,
            ctx.tile_count,
            ctx.weight * 100.0,
            ctx.high_value_fraction * 100.0,
            ctx.description
        );
    }
    Ok(())
}

/// `kodan transform`
pub fn transform(options: &Options) -> Result<(), String> {
    let (_, artifacts) = build_artifacts(options)?;
    println!(
        "transformed {} with {} contexts (engine agreement {:.2})",
        options.app,
        artifacts.contexts.len(),
        artifacts.engine_val_agreement
    );
    println!("per-grid validation statistics (global model):");
    println!("  tiles/frame   accuracy   precision");
    for ga in &artifacts.grids {
        println!(
            "  {:>11} {:>10.3} {:>11.3}",
            ga.grid * ga.grid,
            ga.global_eval_all.accuracy(),
            ga.global_eval_all.precision()
        );
    }
    println!("context-specialized composite at 36 tiles/frame:");
    let ga = artifacts.grid_artifacts(6).map_err(|e| e.to_string())?;
    println!(
        "  accuracy {:.3} -> {:.3}, precision {:.3} -> {:.3}",
        ga.global_eval_all.accuracy(),
        ga.composite_eval_all.accuracy(),
        ga.global_eval_all.precision(),
        ga.composite_eval_all.precision()
    );
    if let Some(dir) = &options.save_artifacts {
        save_artifact_set(options, &artifacts, dir)?;
    }
    Ok(())
}

/// Seals the deployable set into `dir` and prints the uplink-cost
/// accounting (`transform --save-artifacts`).
fn save_artifact_set(
    options: &Options,
    artifacts: &TransformationArtifacts,
    dir: &str,
) -> Result<(), String> {
    let env = SpaceEnvironment::landsat(options.sats);
    let logic = artifacts.select_with_capacity(
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mut recorder = SummaryRecorder::new();
    let report = kodan::artifact::save_artifacts(
        artifacts,
        &logic,
        std::path::Path::new(dir),
        &mut recorder,
    )
    .map_err(|e| format!("failed to save artifacts to {dir}: {e}"))?;
    let snapshot = recorder.snapshot();
    println!(
        "artifact set sealed to {dir} ({} artifacts):",
        snapshot.counter(CounterId::ArtifactsSaved)
    );
    if report.quantized_models > 0 {
        println!(
            "  quantized companions: {} (i16/i32 fixed-point fast path)",
            report.quantized_models
        );
    }
    println!("  artifact                bytes");
    for entry in &report.manifest.entries {
        println!("  {:<22} {:>7}", entry.name, entry.bytes);
    }
    println!(
        "  uplink cost: {} bytes ({:.1}% of the {} MiB budget){}",
        report.total_bytes,
        report.total_bytes as f64 / kodan_wire::UPLINK_BUDGET_BYTES as f64 * 100.0,
        kodan_wire::UPLINK_BUDGET_BYTES / (1024 * 1024),
        if report.over_budget {
            " — OVER BUDGET"
        } else {
            ""
        }
    );
    Ok(())
}

/// `kodan select`
pub fn select(options: &Options) -> Result<(), String> {
    let mut recorder = SummaryRecorder::new();
    let (_, artifacts) = build_artifacts_recorded(options, &mut recorder)?;
    let env = SpaceEnvironment::landsat(options.sats);
    let logic = artifacts.select_with_capacity(
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    println!(
        "selection logic for {} on {} ({} satellites):",
        options.app, options.target, options.sats
    );
    println!(
        "  tiles/frame: {} | deadline {:.1} s | capacity {:.1}% of observations",
        logic.tiles_per_frame(),
        env.frame_deadline.as_seconds(),
        env.capacity_fraction * 100.0
    );
    for (c, action) in logic.actions().iter().enumerate() {
        let ctx = artifacts.contexts.context(kodan::ContextId(c));
        println!(
            "  C{c} ({:>9}, {:>5.1}% hv): {action}",
            ctx.description,
            ctx.high_value_fraction * 100.0
        );
    }
    let e = logic.estimate();
    println!(
        "  estimate: frame {:.1} s, processed {:.0}%, dvd {:.3}",
        e.frame_time.as_seconds(),
        e.processed_fraction * 100.0,
        e.dvd
    );
    let snapshot = recorder.snapshot();
    println!("transformation stage breakdown:");
    print_stage_table(&snapshot);
    write_telemetry(options, &snapshot)?;
    Ok(())
}

/// `kodan mission`
pub fn mission(options: &Options) -> Result<(), String> {
    // One recorder spans the whole kodan path: ground-side transformation
    // (or the artifact load replacing it) plus the on-orbit mission run,
    // so the snapshot covers both halves. The flight recorder wraps it so
    // every degradation freezes a black-box window of the frames leading
    // up to it.
    let mut recorder = FlightRecorder::new(SummaryRecorder::new());
    let (world, artifacts, kodan_logic, quarantined) =
        if let Some(dir) = &options.load_artifacts {
            let loaded =
                kodan::artifact::load_artifacts(std::path::Path::new(dir), &mut recorder)
                    .map_err(|e| format!("failed to load artifacts from {dir}: {e}"))?;
            println!(
                "loaded artifact set from {dir} (target {}, seed {})",
                loaded.manifest.target, loaded.manifest.seed
            );
            for r in &loaded.recovered {
                println!(
                    "  recovered {}: corrupted on load, serving the grid {} global model",
                    r.name, r.grid
                );
            }
            for name in &loaded.degraded_quantized {
                println!(
                    "  degraded {name}: quantized blob corrupt, serving the f64 reference"
                );
            }
            if loaded.quantized_attached > 0 {
                println!(
                    "  inference path: quantized fixed-point ({} model(s))",
                    loaded.quantized_attached
                );
            } else {
                println!("  inference path: f64 reference");
            }
            let world = World::new(loaded.artifacts.config.seed);
            (
                world,
                loaded.artifacts,
                loaded.selection,
                loaded.quarantined_slots,
            )
        } else {
            let (world, artifacts) = build_artifacts_recorded(options, &mut recorder)?;
            let env = SpaceEnvironment::landsat(options.sats);
            let logic = artifacts.select_with_capacity(
                options.target,
                env.frame_deadline,
                env.capacity_fraction,
            );
            (world, artifacts, logic, Vec::new())
        };
    let env = SpaceEnvironment::landsat(options.sats);
    let mission = Mission::new(&env, &world, MissionParams::default());

    let bent = mission.run_bent_pipe();
    let direct_logic = SelectionLogic::direct_deploy(
        &artifacts,
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let direct = mission.run_with_runtime(
        &Runtime::new(direct_logic, artifacts.engine.clone()).with_workers(options.workers),
        SystemKind::DirectDeploy,
    );
    let fault_plan = build_fault_plan(options)?;
    let mut kodan_runtime = Runtime::new(kodan_logic, artifacts.engine.clone())
        .with_workers(options.workers)
        .with_quarantined_models(quarantined);
    if let Some(plan) = &fault_plan {
        kodan_runtime = arm_fault_plan(kodan_runtime, &artifacts, plan)?;
    }
    let kodan = mission.run_with_runtime_recorded(&kodan_runtime, SystemKind::Kodan, &mut recorder);

    println!(
        "day-scale mission: {} on {} ({} satellites)",
        options.app, options.target, options.sats
    );
    println!("  system          dvd   frame-s   processed   HV-yield");
    for r in [&bent, &direct, &kodan] {
        println!(
            "  {:<13} {:>5.3} {:>9.1} {:>10.0}% {:>9.1}%",
            r.system.to_string(),
            r.dvd,
            r.mean_frame_time.as_seconds(),
            r.processed_fraction * 100.0,
            r.observed_hv_downlinked * 100.0
        );
    }
    println!(
        "  kodan improves DVD {:+.0}% over the bent pipe",
        (kodan.dvd / bent.dvd - 1.0) * 100.0
    );
    let snapshot = recorder.inner().snapshot();
    println!(
        "kodan telemetry ({} frames, {} events):",
        snapshot.frames, snapshot.events
    );
    print_stage_table(&snapshot);
    if let Some(plan) = &fault_plan {
        println!("fault injection (seed {}):", plan.config().seed);
        for counter in [
            CounterId::FaultSeuInjected,
            CounterId::FaultSlowdownFrames,
            CounterId::FaultClassifyRetries,
            CounterId::FaultClassifyExhausted,
            CounterId::ModelFallbacks,
        ] {
            println!("  {:<26} {}", counter.name(), snapshot.counter(counter));
        }
    }
    if !recorder.reports().is_empty() || recorder.reports_truncated() > 0 {
        println!(
            "flight recorder: {} black-box report(s) captured ({} dropped past the cap)",
            recorder.reports().len(),
            recorder.reports_truncated()
        );
    }
    write_blackbox(options, &recorder)?;
    write_telemetry(options, &snapshot)?;
    Ok(())
}

/// Builds the planner configuration selected by `--energy` /
/// `--contacts`, with `mode` overridden per run.
fn build_plan_config(options: &Options, mode: PlanMode) -> PlanConfig {
    let mut config = PlanConfig::default_plan();
    config.mode = mode;
    config.energy = options.energy.budget();
    config.contacts = options.contact_passes;
    config
}

/// `kodan plan` — flies the same sampled day three times under the
/// execution planner: once with the auto placement rule and once per
/// degenerate baseline (everything on-orbit, everything downlinked
/// raw), then prints the placement ledger and the three-way DVD
/// comparison. Telemetry (`--telemetry`) covers the auto run; `--out`
/// writes a compact machine-readable JSON point for benchmark sweeps.
pub fn plan(options: &Options) -> Result<(), String> {
    let mut recorder = SummaryRecorder::new();
    let (world, artifacts) = build_artifacts_recorded(options, &mut recorder)?;
    let env = SpaceEnvironment::landsat(options.sats);
    let logic = artifacts.select_with_capacity(
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mission = Mission::new(&env, &world, MissionParams::default());
    let runtime =
        Runtime::new(logic, artifacts.engine.clone()).with_workers(options.workers);

    let run = |mode: PlanMode, rec: &mut dyn Recorder| {
        let planner = ExecutionPlanner::new(
            build_plan_config(options, mode),
            options.target,
            env.frame_deadline,
            env.capacity_fraction,
        );
        mission.run_planned_recorded(&runtime, &planner, rec)
    };
    let auto = run(PlanMode::Auto, &mut recorder);
    let on_orbit = run(PlanMode::AllOnOrbit, &mut NullRecorder);
    let downlink = run(PlanMode::AllDownlinkRaw, &mut NullRecorder);

    println!(
        "execution plan: {} on {} ({} energy, {} contact passes)",
        options.app, options.target, options.energy, options.contact_passes
    );
    let ledger = &auto.ledger;
    println!(
        "  placements: {} on-orbit ({} throttled), {} downlink-raw, {} deferred",
        ledger.frames_on_orbit,
        ledger.frames_throttled,
        ledger.frames_downlink_raw,
        ledger.frames_deferred
    );
    println!(
        "  raw tiles: {} downlinked, {} dropped ({:.3e} px deferred, storage peak {:.3e} of {:.3e})",
        ledger.tiles_raw_downlinked,
        ledger.tiles_raw_dropped,
        ledger.deferred_px,
        ledger.storage_peak_px,
        ledger.storage_px
    );
    println!(
        "  energy: {:.0} J used of {:.0} J harvested ({:.0}% headroom)",
        ledger.energy_used_j,
        ledger.energy_available_j,
        ledger.energy_headroom() * 100.0
    );
    println!(
        "  thermal: peak {:+.1} K vs {:.1} K throttle onset",
        ledger.peak_temperature_k, ledger.throttle_onset_k
    );
    println!(
        "  contacts: {:.3e} px committed of {:.3e} px capacity ({:.0}% headroom)",
        ledger.contact_used_px,
        ledger.contact_capacity_px,
        ledger.contact_headroom() * 100.0
    );
    println!(
        "  placement        dvd   frame-s   processed   HV-yield   link-util   produced"
    );
    for (label, r) in [
        ("auto", &auto.report),
        ("all-on-orbit", &on_orbit.report),
        ("all-downlink", &downlink.report),
    ] {
        // `produced` is production relative to link capacity (can exceed
        // 100%: overproduction is thinned, underproduction idles the
        // link), while `link-util` is clipped at 100%.
        let produced = if r.accounting.capacity_px > 0.0 {
            r.accounting.produced_px / r.accounting.capacity_px
        } else {
            0.0
        };
        println!(
            "  {:<13} {:>5.3} {:>9.1} {:>10.0}% {:>9.1}% {:>10.0}% {:>9.0}%",
            label,
            r.dvd,
            r.mean_frame_time.as_seconds(),
            r.processed_fraction * 100.0,
            r.observed_hv_downlinked * 100.0,
            r.accounting.capacity_utilization() * 100.0,
            produced * 100.0
        );
    }
    let best_baseline = on_orbit.report.dvd.max(downlink.report.dvd);
    if best_baseline > 0.0 {
        println!(
            "  auto placement improves DVD {:+.1}% over the best baseline",
            (auto.report.dvd / best_baseline - 1.0) * 100.0
        );
    }

    if let Some(path) = &options.out {
        let json = format!(
            "{{\n  \"energy\": \"{}\",\n  \"contacts\": {},\n  \"workers\": {},\n  \
             \"dvd_auto\": {:.6},\n  \"dvd_all_on_orbit\": {:.6},\n  \
             \"dvd_all_downlink_raw\": {:.6},\n  \"frames_on_orbit\": {},\n  \
             \"frames_downlink_raw\": {},\n  \"frames_deferred\": {},\n  \
             \"frames_throttled\": {},\n  \"energy_headroom\": {:.6},\n  \
             \"contact_headroom\": {:.6},\n  \"peak_temperature_k\": {:.6}\n}}\n",
            options.energy,
            options.contact_passes,
            options.workers,
            auto.report.dvd,
            on_orbit.report.dvd,
            downlink.report.dvd,
            ledger.frames_on_orbit,
            ledger.frames_downlink_raw,
            ledger.frames_deferred,
            ledger.frames_throttled,
            ledger.energy_headroom(),
            ledger.contact_headroom(),
            ledger.peak_temperature_k
        );
        std::fs::write(path, json)
            .map_err(|e| format!("failed to write plan summary to {path}: {e}"))?;
        println!("  plan summary written to {path}");
    }

    let snapshot = recorder.snapshot();
    println!(
        "planner telemetry ({} frames, {} events):",
        snapshot.frames, snapshot.events
    );
    print_stage_table(&snapshot);
    write_telemetry(options, &snapshot)?;
    Ok(())
}

/// `kodan fleet` — flies every satellite of a same-plane constellation
/// through one shared day: the space segment is simulated once (ground
/// stations contended across the whole fleet), each satellite replays
/// its own pass schedule through the bounded downlink queue, and the
/// per-satellite journals are merge-reduced through the bounded-memory
/// spill combiner. Byte-identical for any `--workers` value.
pub fn fleet(options: &Options) -> Result<(), String> {
    let mut recorder = SummaryRecorder::new();
    let (world, artifacts) = build_artifacts_recorded(options, &mut recorder)?;
    let env = SpaceEnvironment::landsat(options.satellites);
    let logic = artifacts.select_with_capacity(
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let config = FleetConfig {
        satellites: options.satellites,
        memtable_budget: options.memtable_budget,
        workers: options.workers,
        plan: options
            .plan
            .then(|| build_plan_config(options, PlanMode::Auto)),
    };

    // Spill runs go through an artifact store: `--out DIR` when given,
    // else a scratch directory. Either way the directory is replaced.
    let spill_dir = match &options.out {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("kodan-fleet-spill-{}", options.seed)),
    };
    std::fs::remove_dir_all(&spill_dir).ok();
    let store = kodan_wire::ArtifactStore::create(&spill_dir).map_err(|e| {
        format!(
            "failed to create spill store at {}: {e}",
            spill_dir.display()
        )
    })?;

    let fleet = Fleet::new(&world, &runtime, MissionParams::default(), config);
    let report = fleet
        .run_recorded(&store, &mut recorder)
        .map_err(|e| format!("fleet run failed: {e}"))?;

    println!(
        "fleet mission: {} satellites flying {} on {}",
        report.satellites, options.app, options.target
    );
    println!("  passes served           {:>14}", report.passes_served);
    println!("  observed px             {:>14.3e}", report.observed_px);
    println!("  downlinked px           {:>14.3e}", report.sent_px);
    println!("  high-value px           {:>14.3e}", report.sent_value_px);
    println!("  storage-dropped px      {:>14.3e}", report.storage_dropped_px);
    println!("  residual px             {:>14.3e}", report.residual_px);
    println!("  tiles processed         {:>14}", report.tiles_processed);
    println!("  tiles elided            {:>14}", report.tiles_elided);
    if options.plan {
        println!(
            "  planned placements: {} on-orbit, {} downlink-raw, {} deferred ({} energy, {} contacts)",
            report.planned_on_orbit,
            report.planned_raw,
            report.planned_deferred,
            options.energy,
            options.contact_passes
        );
    }
    println!(
        "  coverage {:.2}%  fleet DVD {:.3}  transmitted density {:.3}",
        report.coverage * 100.0,
        report.fleet_dvd,
        report.transmitted_density
    );
    println!(
        "spill combine: {} run(s), {} bytes spilled, peak memtable {} of {} budget ({} ingested)",
        report.spill.runs,
        report.spill.spilled_bytes,
        report.spill.peak_memtable_bytes,
        config.memtable_budget,
        report.spill.ingested_bytes
    );

    let snapshot = recorder.snapshot();
    println!(
        "fleet telemetry ({} frames, {} events):",
        snapshot.frames, snapshot.events
    );
    print_stage_table(&snapshot);
    write_telemetry(options, &snapshot)?;
    Ok(())
}

/// `kodan trace` — flies the kodan mission with a [`TraceBuilder`]
/// attached and emits the modeled-time span forest as Chrome
/// trace-event JSON (load it at `ui.perfetto.dev` or
/// `chrome://tracing`). Byte-identical for any `--workers` value.
pub fn trace(options: &Options) -> Result<(), String> {
    let mut tracer = TraceBuilder::new();
    fly_kodan_recorded(options, &mut tracer)?;
    let json = tracer.to_chrome_json();
    match &options.out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| format!("failed to write trace to {path}: {e}"))?;
            println!(
                "trace written to {path} ({} events over {} frames)",
                tracer.len(),
                tracer.frames()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// `kodan health` — evaluates threshold rules (built-in or `--rules`)
/// against mission telemetry: either a `--snapshot` file from an
/// earlier run, or a fresh mission flown under the flight recorder.
/// Exits 0 when healthy, 2 when any rule fails.
pub fn health(options: &Options) -> Result<ExitCode, String> {
    let rules = match &options.rules {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("failed to read rules from {path}: {e}"))?;
            parse_health_rules(&text).map_err(|e| format!("bad rule file {path}: {e}"))?
        }
        None => default_health_rules(),
    };
    let snapshot = match &options.snapshot {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("failed to read snapshot from {path}: {e}"))?;
            TelemetrySnapshot::from_json(&text)
                .map_err(|e| format!("bad snapshot {path}: {e}"))?
        }
        None => {
            let mut recorder = FlightRecorder::new(SummaryRecorder::new());
            fly_kodan_recorded(options, &mut recorder)?;
            write_blackbox(options, &recorder)?;
            recorder.inner().snapshot()
        }
    };
    let report = evaluate_health(&snapshot, &rules);
    print!("{}", report.to_text());
    if let Some(path) = &options.out {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("failed to write health report to {path}: {e}"))?;
        println!("health report written to {path}");
    }
    write_telemetry(options, &snapshot)?;
    Ok(if report.healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `kodan diff BEFORE.json AFTER.json` — field-by-field comparison of
/// two telemetry snapshots for regression triage. Exits 0 when the
/// snapshots are identical, 3 when they differ.
pub fn diff(rest: &[String]) -> Result<ExitCode, String> {
    let [before_path, after_path] = rest else {
        return Err("usage: kodan diff BEFORE.json AFTER.json".to_string());
    };
    let mut snapshots = Vec::new();
    for path in [before_path, after_path] {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read snapshot from {path}: {e}"))?;
        snapshots.push(
            TelemetrySnapshot::from_json(&text)
                .map_err(|e| format!("bad snapshot {path}: {e}"))?,
        );
    }
    let d = diff_snapshots(&snapshots[0], &snapshots[1]);
    print!("{}", d.to_text());
    Ok(if d.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

/// `kodan artifacts inspect PATH [--telemetry OUT]` — positional
/// arguments, not flags, so this command is dispatched before
/// [`Options::parse`]. With `--telemetry OUT`, the inspection counters
/// (objects inspected / corrupt, total bytes) are written to `OUT` as a
/// snapshot, so a store check slots into the same `kodan diff` /
/// `kodan health --snapshot` triage loop as a mission run.
pub fn artifacts(rest: &[String]) -> Result<(), String> {
    let (path, telemetry_out) = match rest {
        [action, path] if action == "inspect" => (path, None),
        [action, path, flag, out] if action == "inspect" && flag == "--telemetry" => {
            (path, Some(out))
        }
        _ => return Err("usage: kodan artifacts inspect PATH [--telemetry OUT]".to_string()),
    };
    let root = std::path::Path::new(path);
    let health = kodan_wire::store::verify(root)
        .map_err(|e| format!("failed to inspect {path}: {e}"))?;
    print!("{}", health.render(root));
    if let Some(out) = telemetry_out {
        let mut recorder = SummaryRecorder::new();
        recorder.count(
            CounterId::ArtifactsInspected,
            health.objects.len() as u64,
        );
        recorder.count(CounterId::ArtifactsCorrupt, health.corrupt_count());
        recorder.count(CounterId::ArtifactBytes, health.total_bytes);
        std::fs::write(out, recorder.snapshot().to_json())
            .map_err(|e| format!("failed to write telemetry to {out}: {e}"))?;
        println!("  inspection telemetry written to {out}");
    }
    Ok(())
}

/// `kodan coverage`
pub fn coverage(options: &Options) -> Result<(), String> {
    let (_, artifacts) = build_artifacts(options)?;
    let env = SpaceEnvironment::landsat(1);
    let cmp = coverage_comparison(
        &artifacts,
        options.target,
        env.frame_deadline,
        env.capacity_fraction,
    );
    println!(
        "satellites for full ground-track coverage ({} on {}):",
        options.app, options.target
    );
    println!("  direct deploy:        {}", cmp.direct_deploy);
    println!("  max-precision tiling: {}", cmp.max_precision_tiling);
    println!("  kodan:                {}", cmp.kodan);
    println!(
        "  reduction vs direct:  {:.1}x",
        cmp.reduction_vs_direct()
    );
    Ok(())
}
