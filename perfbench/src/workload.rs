//! The workloads: what set-up builds and what one simulated day flies.
//!
//! Set-up and the untraced day make the same public library calls as
//! `kodan mission`, `kodan plan --target 1070ti` and `kodan fleet` at
//! their defaults. The traced day calls the public pieces those
//! high-level calls are made of, on the same inputs, with a span around
//! each, and must produce identical outputs.

use crate::trace::Tracer;
use kodan::context::ContextSet;
use kodan::dvd::DownlinkAccounting;
use kodan::engine::ContextEngine;
use kodan::fleet::{Fleet, FleetConfig, FleetReport};
use kodan::mission::{
    Mission, MissionParams, MissionReport, PlannedMissionReport, SpaceEnvironment, SystemKind,
};
use kodan::pipeline::{Transformation, TransformationArtifacts};
use kodan::runtime::{bent_pipe_frame, FrameOutcome, Runtime};
use kodan::selection::SelectionLogic;
use kodan::specialize::SpecializedModel;
use kodan::{ExecutionPlanner, KodanConfig, PlanConfig, PlanMode};
use kodan_cote::time::Duration;
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_hw::HwTarget;
use kodan_ml::ModelArch;
use kodan_wire::ArtifactStore;
use std::hint::black_box;
use std::path::Path;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// App 4 on the Orin 15 W, one satellite: bent pipe, direct deploy
    /// and Kodan over the same sampled day (`kodan mission`).
    MissionDay,
    /// App 4 on the GTX 1070 Ti under the execution planner, cubesat
    /// energy, four contacts: auto, all-on-orbit and all-downlink-raw
    /// placements (`kodan plan --target 1070ti`).
    PlannedDay,
    /// A same-plane fleet on the Orin sharing one contended day, default
    /// memtable budget, no planning (`kodan fleet`).
    FleetDay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MissionDay,
        Workload::PlannedDay,
        Workload::FleetDay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissionDay => "mission_day",
            Workload::PlannedDay => "planned_day",
            Workload::FleetDay => "fleet_day",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn target(self) -> HwTarget {
        match self {
            Workload::PlannedDay => HwTarget::Gtx1070Ti,
            Workload::MissionDay | Workload::FleetDay => HwTarget::OrinAgx15W,
        }
    }

    fn satellites(self, scale: &Scale) -> usize {
        match self {
            Workload::FleetDay => scale.satellites,
            Workload::MissionDay | Workload::PlannedDay => 1,
        }
    }

    /// Sampled frame-flights in one day: every system or placement
    /// mode, or every satellite, flies `sample_frames` frames.
    pub fn frames_per_day(self, scale: &Scale) -> usize {
        match self {
            Workload::MissionDay | Workload::PlannedDay => 3 * scale.sample_frames,
            Workload::FleetDay => scale.satellites * scale.sample_frames,
        }
    }
}

/// Input sizes of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Frames in the representative dataset set-up trains on.
    pub dataset_frames: usize,
    /// Frames sampled along the ground track per system or satellite.
    pub sample_frames: usize,
    /// Satellites flown on `fleet_day`.
    pub satellites: usize,
}

impl Scale {
    /// The CLI defaults: 32 dataset frames, 48 sampled frames, 24
    /// satellites.
    pub const FULL: Scale = Scale {
        dataset_frames: 32,
        sample_frames: 48,
        satellites: 24,
    };
    /// A reduced scale for the smoke test.
    pub const SMOKE: Scale = Scale {
        dataset_frames: 6,
        sample_frames: 2,
        satellites: 2,
    };
}

/// What one run flies: workload, seed, scale and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// The workload.
    pub workload: Workload,
    /// Seed of the world, the dataset and training.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Worker threads handed to the library.
    pub workers: usize,
}

impl Job {
    fn arch(&self) -> ModelArch {
        ModelArch::ResNet50DilatedPpm
    }

    /// The transformation configuration `kodan` builds from its flags.
    fn config(&self) -> KodanConfig {
        let mut config = KodanConfig::evaluation(self.seed);
        config.context_count = 6;
        config.max_train_pixels = 8_000;
        config.max_eval_tiles = 240;
        config.train.epochs = 40;
        config.workers = self.workers;
        config
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            satellites: self.scale.satellites,
            workers: self.workers,
            ..FleetConfig::default_fleet()
        }
    }

    fn params(&self) -> MissionParams {
        MissionParams {
            sample_frames: self.scale.sample_frames,
            ..MissionParams::default_sampling()
        }
    }
}

/// Everything a day needs that set-up built.
#[derive(Debug)]
pub(crate) struct Setup {
    world: World,
    dataset: Dataset,
    config: KodanConfig,
    artifacts: TransformationArtifacts,
    env: SpaceEnvironment,
    logic: SelectionLogic,
    direct_logic: Option<SelectionLogic>,
}

impl Setup {
    /// Set-up's outputs in canonical form: the selection estimates and
    /// the engine's validation agreement.
    pub(crate) fn canonical(&self) -> String {
        format!(
            "{:?} {:?} {:?}",
            self.logic.estimate(),
            self.direct_logic.as_ref().map(|l| l.estimate()),
            self.artifacts.engine_val_agreement
        )
    }
}

/// World, dataset synthesis, the transformation, the space segment and
/// selection, with a layer span around each call when `tracer` records.
pub(crate) fn set_up(job: &Job, tracer: &mut Tracer) -> Result<Setup, String> {
    let world = World::new(job.seed);
    let mut dataset_config = DatasetConfig::evaluation(job.seed);
    dataset_config.frame_count = job.scale.dataset_frames;
    let dataset = tracer.layer("geodata.dataset_s", || {
        Dataset::sample(&world, &dataset_config)
    });
    let config = job.config();
    let artifacts = tracer
        .layer("core.transform_s", || {
            Transformation::new(config).run(&dataset, job.arch())
        })
        .map_err(|e| format!("transformation failed: {e}"))?;
    let sats = job.workload.satellites(&job.scale);
    let env = tracer.layer("cote.space_segment_s", || SpaceEnvironment::landsat(sats));
    let target = job.workload.target();
    let (logic, direct_logic) = tracer.layer("core.selection_s", || {
        let logic =
            artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
        let direct = (job.workload == Workload::MissionDay).then(|| {
            SelectionLogic::direct_deploy(
                &artifacts,
                target,
                env.frame_deadline,
                env.capacity_fraction,
            )
        });
        (logic, direct)
    });
    Ok(Setup {
        world,
        dataset,
        config,
        artifacts,
        env,
        logic,
        direct_logic,
    })
}

/// The simulated outputs of one day, compared exactly across days.
#[derive(Debug, Clone)]
pub(crate) enum DayOutputs {
    /// Bent pipe, direct deploy and Kodan, in that order.
    Mission(Vec<MissionReport>),
    /// Auto, all-on-orbit and all-downlink-raw placements, in that order.
    Planned(Vec<PlannedMissionReport>),
    /// The fleet totals and spill accounting.
    Fleet(FleetReport),
}

impl DayOutputs {
    /// The headline DVD: Kodan's, auto placement's, or the fleet's.
    pub(crate) fn dvd(&self) -> f64 {
        match self {
            DayOutputs::Mission(r) => r.last().map_or(f64::NAN, |r| r.dvd),
            DayOutputs::Planned(r) => r.first().map_or(f64::NAN, |r| r.report.dvd),
            DayOutputs::Fleet(r) => r.fleet_dvd,
        }
    }

    /// Every output field in canonical form. `Debug` prints each `f64`
    /// in its shortest round-trip form, so two days print the same text
    /// exactly when their outputs are bit-identical.
    pub(crate) fn canonical(&self) -> String {
        format!("{self:?}")
    }

    /// One human-readable line per system, placement mode or fleet.
    pub(crate) fn describe(&self) -> Vec<String> {
        match self {
            DayOutputs::Mission(reports) => reports
                .iter()
                .map(|r| {
                    format!(
                        "{:<14} dvd {:.3}  modeled frame {:.3} s",
                        r.system.to_string(),
                        r.dvd,
                        r.mean_frame_time.as_seconds()
                    )
                })
                .collect(),
            DayOutputs::Planned(reports) => PLAN_MODES
                .iter()
                .zip(reports)
                .map(|(mode, r)| {
                    let l = &r.ledger;
                    format!(
                        "{:<16} dvd {:.3}  modeled frame {:.3} s  on-orbit {} ({} throttled)  raw {}  deferred {}",
                        mode.to_string(),
                        r.report.dvd,
                        r.report.mean_frame_time.as_seconds(),
                        l.frames_on_orbit,
                        l.frames_throttled,
                        l.frames_downlink_raw,
                        l.frames_deferred
                    )
                })
                .collect(),
            DayOutputs::Fleet(r) => vec![format!(
                "fleet of {}     dvd {:.3}  coverage {:.4}  passes {}  spill runs {} ({} bytes, peak memtable {})",
                r.satellites,
                r.fleet_dvd,
                r.coverage,
                r.passes_served,
                r.spill.runs,
                r.spill.spilled_bytes,
                r.spill.peak_memtable_bytes
            )],
        }
    }
}

const PLAN_MODES: [PlanMode; 3] = [
    PlanMode::Auto,
    PlanMode::AllOnOrbit,
    PlanMode::AllDownlinkRaw,
];

/// A fresh artifact store for the fleet's spill runs under `run_dir`.
fn spill_store(run_dir: &Path) -> Result<ArtifactStore, String> {
    let dir = run_dir.join("spill");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    ArtifactStore::create(&dir)
        .map_err(|e| format!("cannot create spill store {}: {e}", dir.display()))
}

impl Setup {
    fn runtime(&self, logic: &SelectionLogic, workers: usize) -> Runtime {
        Runtime::new(logic.clone(), self.artifacts.engine.clone()).with_workers(workers)
    }

    fn planner(&self, job: &Job, mode: PlanMode) -> ExecutionPlanner {
        ExecutionPlanner::new(
            PlanConfig {
                mode,
                ..PlanConfig::default_plan()
            },
            job.workload.target(),
            self.env.frame_deadline,
            self.env.capacity_fraction,
        )
    }

    fn direct_logic(&self) -> Result<&SelectionLogic, String> {
        self.direct_logic
            .as_ref()
            .ok_or_else(|| "set-up built no direct-deploy logic".to_string())
    }

    /// Flies one day through the high-level library calls.
    pub(crate) fn fly_day(&self, job: &Job, run_dir: &Path) -> Result<DayOutputs, String> {
        let mission = Mission::new(&self.env, &self.world, job.params());
        match job.workload {
            Workload::MissionDay => {
                let bent = mission.run_bent_pipe();
                let direct = self.runtime(self.direct_logic()?, job.workers);
                let direct = mission.run_with_runtime(&direct, SystemKind::DirectDeploy);
                let kodan = mission
                    .run_with_runtime(&self.runtime(&self.logic, job.workers), SystemKind::Kodan);
                Ok(DayOutputs::Mission(vec![bent, direct, kodan]))
            }
            Workload::PlannedDay => {
                let runtime = self.runtime(&self.logic, job.workers);
                Ok(DayOutputs::Planned(
                    PLAN_MODES
                        .iter()
                        .map(|&mode| mission.run_planned(&runtime, &self.planner(job, mode)))
                        .collect(),
                ))
            }
            Workload::FleetDay => {
                let store = spill_store(run_dir)?;
                // The CLI builds the fleet's runtime without a worker count:
                // satellites, not frames, are the fleet's parallel axis.
                let runtime = Runtime::new(self.logic.clone(), self.artifacts.engine.clone());
                let fleet = Fleet::new(&self.world, &runtime, job.params(), job.fleet_config());
                fleet
                    .run(&store)
                    .map(DayOutputs::Fleet)
                    .map_err(|e| format!("fleet run failed: {e}"))
            }
        }
    }

    /// Flies one day through the public pieces of the high-level calls,
    /// with a layer span around each piece and the layers' work counts
    /// recorded at the same boundaries.
    pub(crate) fn fly_day_traced(
        &self,
        job: &Job,
        run_dir: &Path,
        tracer: &mut Tracer,
    ) -> Result<DayOutputs, String> {
        let mission = Mission::new(&self.env, &self.world, job.params());
        let render = |tracer: &mut Tracer| {
            let frames = tracer.layer("geodata.render_s", || mission.sample_frames());
            tracer.count("geodata.frames_rendered", frames.len() as f64);
            frames
        };
        match job.workload {
            Workload::MissionDay => {
                // run_bent_pipe
                let frames = render(tracer);
                let total = tracer.layer("core.runtime.bent_pipe_s", || {
                    let mut total = FrameOutcome::default();
                    for frame in &frames {
                        total.absorb(&bent_pipe_frame(frame));
                    }
                    total
                });
                let bent = self.summarize(job, SystemKind::BentPipe, &total, Duration::ZERO);
                // run_with_runtime, direct deploy then Kodan
                let mut reports = vec![bent];
                for (logic, system, layer) in [
                    (
                        self.direct_logic()?,
                        SystemKind::DirectDeploy,
                        "core.runtime.direct_s",
                    ),
                    (&self.logic, SystemKind::Kodan, "core.runtime.kodan_s"),
                ] {
                    let runtime = self.runtime(logic, job.workers);
                    let frames = render(tracer);
                    let (total, mean) =
                        tracer.layer(layer, || runtime.process_frames(frames.iter()));
                    count_tiles(tracer, &total);
                    reports.push(self.summarize(job, system, &total, mean));
                }
                Ok(DayOutputs::Mission(reports))
            }
            Workload::PlannedDay => {
                // run_planned, once per placement mode
                let runtime = self.runtime(&self.logic, job.workers);
                let mut reports = Vec::with_capacity(PLAN_MODES.len());
                for mode in PLAN_MODES {
                    let planner = self.planner(job, mode);
                    let frames = render(tracer);
                    let estimates = tracer.layer("core.plan.estimate_s", || {
                        mission.estimate_frames(&runtime, &frames)
                    });
                    let plan = tracer.layer("core.plan.plan_s", || planner.plan_day(&estimates));
                    let ledger = plan.ledger.clone();
                    for (name, value) in [
                        ("core.plan.on_orbit", ledger.frames_on_orbit),
                        ("core.plan.downlink_raw", ledger.frames_downlink_raw),
                        ("core.plan.deferred", ledger.frames_deferred),
                        ("core.plan.throttled", ledger.frames_throttled),
                    ] {
                        tracer.count(name, value as f64);
                    }
                    let planned = runtime.clone().with_plan(plan);
                    let (total, mean) = tracer.layer("core.runtime.kodan_s", || {
                        planned.process_frames(frames.iter())
                    });
                    count_tiles(tracer, &total);
                    let report = self.summarize(job, SystemKind::Planned, &total, mean);
                    reports.push(PlannedMissionReport { report, ledger });
                }
                Ok(DayOutputs::Planned(reports))
            }
            Workload::FleetDay => {
                // Fleet::run has no public pieces: the space segment, the
                // per-satellite queue replay and the spill combine all
                // happen inside one span.
                let store = spill_store(run_dir)?;
                let runtime = Runtime::new(self.logic.clone(), self.artifacts.engine.clone());
                let fleet = Fleet::new(&self.world, &runtime, job.params(), job.fleet_config());
                let report = tracer
                    .layer("core.fleet_s", || fleet.run(&store))
                    .map_err(|e| format!("fleet run failed: {e}"))?;
                for (name, value) in [
                    ("cote.passes_served", report.passes_served),
                    ("core.fleet.spill_runs", report.spill.runs),
                    ("core.fleet.spill_bytes", report.spill.spilled_bytes),
                    (
                        "core.fleet.peak_memtable_bytes",
                        report.spill.peak_memtable_bytes,
                    ),
                ] {
                    tracer.count(name, value as f64);
                }
                Ok(DayOutputs::Fleet(report))
            }
        }
    }

    /// `Mission::summarize`, which is private, rebuilt from public
    /// fields with the same arithmetic, so the traced day can score the
    /// outcomes it assembled from the pieces. The output check holds the
    /// result equal to the library's own report.
    fn summarize(
        &self,
        job: &Job,
        system: SystemKind,
        total: &FrameOutcome,
        mean_frame_time: Duration,
    ) -> MissionReport {
        let env = &self.env;
        let params = job.params();
        let sent_fraction = total.sent_px as f64 / total.observed_px.max(1) as f64;
        let value_fraction = total.value_px as f64 / total.observed_px.max(1) as f64;
        let hv_prevalence = total.observed_value_px as f64 / total.observed_px.max(1) as f64;
        let processed_fraction =
            if system == SystemKind::BentPipe || mean_frame_time <= env.frame_deadline {
                1.0
            } else {
                env.frame_deadline / mean_frame_time
            };
        let px_per_frame = (params.frame_px * params.frame_px) as f64;
        let day_observed = env.frames_per_day as f64 * px_per_frame;
        let accounting = DownlinkAccounting {
            capacity_px: env.capacity_fraction * day_observed,
            produced_px: processed_fraction * sent_fraction * day_observed,
            produced_value_px: processed_fraction * value_fraction * day_observed,
            observed_px: day_observed,
            observed_value_px: hv_prevalence * day_observed,
        };
        MissionReport {
            system,
            frames_observed: env.frames_per_day,
            mean_frame_time,
            processed_fraction,
            dvd: accounting.dvd(),
            observed_hv_downlinked: accounting.observed_hv_downlinked(),
            accounting,
        }
    }

    /// Times the training work inside `Transformation::run` that its
    /// single call hides, by calling the same public pieces on the same
    /// inputs as the transformation does: context generation plus engine
    /// training at the context grid, and the global model of every grid.
    pub(crate) fn probe_training(&self, job: &Job, tracer: &mut Tracer) {
        let c = &self.config;
        let (train, _) = self.dataset.split(c.train_fraction, c.seed);
        let context_grid = c
            .tile_grids
            .iter()
            .copied()
            .min_by_key(|&g| g.abs_diff(6))
            .unwrap_or(6);
        let tiles = train.tiles(context_grid);
        black_box(tracer.layer("core.context_engine_s", || {
            let contexts = ContextSet::generate_auto(
                &tiles,
                c.context_count.min(tiles.len()),
                c.metric,
                c.transform,
                c.seed,
            );
            ContextEngine::train(&tiles, &contexts)
        }));
        for (i, &grid) in c.tile_grids.iter().enumerate() {
            let seed = kodan::par::stream_seed(c.seed, i as u64 * 101);
            let mut tiles = train.tiles(grid);
            if c.augment {
                let extra = kodan_geodata::augment::augment_tiles(&tiles, seed);
                tiles.extend(extra);
            }
            let mut train_config = c.train;
            train_config.seed = seed;
            black_box(tracer.layer("ml.train_global_s", || {
                SpecializedModel::train_global(
                    &tiles,
                    job.arch(),
                    c.max_train_pixels,
                    &train_config,
                )
            }));
        }
    }
}

fn count_tiles(tracer: &mut Tracer, total: &FrameOutcome) {
    tracer.count("core.runtime.tiles_processed", total.tiles_processed as f64);
    tracer.count("core.runtime.tiles_elided", total.tiles_elided as f64);
}
