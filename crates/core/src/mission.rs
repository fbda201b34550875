//! End-to-end mission simulation: Kodan against the space segment.
//!
//! A mission couples four substrates: `cote` supplies the orbit, frame
//! deadline and (contention-resolved) downlink capacity; `geodata`
//! renders what the satellite actually sees along its ground track;
//! the runtime processes frames under the `hw` latency model; and the
//! DVD accounting scores what reaches the ground.
//!
//! Day-scale missions observe thousands of frames; rendering all of them
//! is unnecessary — value statistics converge with a few dozen sampled
//! frames spread along the ground track, and the compute/downlink
//! bookkeeping is exact arithmetic on top. `sample_frames` controls the
//! trade. A mission renders its sampled frames at most once, in
//! parallel, and every run over it shares that one frame set.

use crate::dvd::DownlinkAccounting;
use crate::par;
use crate::plan::{ExecutionPlanner, FrameEstimate, PlacementLedger, TileEstimate};
use crate::queue::{DownlinkQueue, DrainReport, QueueEntry};
use crate::runtime::{bent_pipe_frame, fold_outcomes, tile_pixels, FrameOutcome, Runtime};
use kodan_cote::constellation::Constellation;
use kodan_cote::ground::GroundSegment;
use kodan_cote::orbit::Orbit;
use kodan_cote::sensor::{capture_schedule, Imager};
use kodan_cote::sim::{simulate_space_segment, ServedPass, SpaceSegmentReport};
use kodan_cote::time::Duration;
use kodan_faults::{ContactFault, ContactOutcome, FaultPlan};
use kodan_geodata::frame::{FrameImage, World};
use kodan_geodata::tile::tile_frame;
use kodan_telemetry::{
    CounterId, FaultKind, NullRecorder, Recorder, RecoveryKind, StageId, TelemetryEvent,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Which data-handling system a mission runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Downlink raw observations indiscriminately.
    BentPipe,
    /// The reference application deployed unchanged (densest tiling,
    /// full model, no contexts).
    DirectDeploy,
    /// The full Kodan pipeline.
    Kodan,
    /// The Kodan pipeline under an [`ExecutionPlanner`] placement plan:
    /// per-frame hybrid space–ground execution.
    Planned,
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::BentPipe => f.write_str("bent pipe"),
            SystemKind::DirectDeploy => f.write_str("direct deploy"),
            SystemKind::Kodan => f.write_str("kodan"),
            SystemKind::Planned => f.write_str("planned"),
        }
    }
}

/// The space-segment context of a mission: orbit, sensor, deadline and
/// downlink capacity, derived from a `cote` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceEnvironment {
    /// The satellite's orbit.
    pub orbit: Orbit,
    /// The imaging payload.
    pub imager: Imager,
    /// Frame deadline for this orbit/sensor pair.
    pub frame_deadline: Duration,
    /// Frames observed per satellite per day.
    pub frames_per_day: u64,
    /// Downlink capacity per satellite per day divided by the raw data
    /// volume observed per satellite per day.
    pub capacity_fraction: f64,
}

impl SpaceEnvironment {
    /// Builds the Landsat-like environment used throughout the paper's
    /// evaluation: a sun-synchronous 705 km orbit, an OLI-class imager,
    /// and the Landsat ground segment shared among `satellite_count`
    /// same-plane satellites, each credited the fleet-average capacity.
    pub fn landsat(satellite_count: usize) -> SpaceEnvironment {
        let (_, segment) = landsat_segment(satellite_count);
        let capacity_bits = segment.capacity_bits / satellite_count as f64;
        SpaceEnvironment::on_segment(landsat_orbit(), &segment, capacity_bits)
    }

    /// The environment of a satellite on `orbit` that flies `segment`
    /// with `capacity_bits` of downlink per day. Its capacity fraction is
    /// that capacity over the raw bits it observes per day, capped at 1.
    pub(crate) fn on_segment(
        orbit: Orbit,
        segment: &SpaceSegmentReport,
        capacity_bits: f64,
    ) -> SpaceEnvironment {
        let observed_bits = segment.frames_seen_per_satellite as f64 * segment.frame_bits;
        SpaceEnvironment {
            orbit,
            imager: Imager::landsat_oli(),
            frame_deadline: segment.frame_deadline,
            frames_per_day: segment.frames_seen_per_satellite,
            capacity_fraction: (capacity_bits / observed_bits).min(1.0),
        }
    }

    /// A fixed environment for tests: the Landsat geometry with a pinned
    /// capacity fraction, skipping the contact-window simulation.
    pub fn fixed(capacity_fraction: f64) -> SpaceEnvironment {
        let orbit = landsat_orbit();
        let imager = Imager::landsat_oli();
        let frame_deadline = imager.frame_deadline(&orbit);
        let frames_per_day = imager.frames_in(&orbit, Duration::from_days(1.0));
        SpaceEnvironment {
            orbit,
            imager,
            frame_deadline,
            frames_per_day,
            capacity_fraction,
        }
    }
}

/// The Landsat orbit: sun-synchronous at 705 km.
fn landsat_orbit() -> Orbit {
    Orbit::sun_synchronous(705_000.0)
}

/// Simulates one day of the Landsat ground segment shared by
/// `satellite_count` same-plane satellites on the Landsat orbit: the one
/// contact-window simulation behind [`SpaceEnvironment::landsat`] and a
/// fleet day.
pub(crate) fn landsat_segment(satellite_count: usize) -> (Constellation, SpaceSegmentReport) {
    let constellation = Constellation::same_plane(landsat_orbit(), satellite_count);
    let segment = simulate_space_segment(
        &constellation,
        &Imager::landsat_oli(),
        &GroundSegment::landsat(),
        Duration::from_days(1.0),
    );
    (constellation, segment)
}

/// Sampling parameters for a mission run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionParams {
    /// Number of frames rendered and actually pushed through the data
    /// path; statistics scale to the full day.
    pub sample_frames: usize,
    /// Native resolution of rendered frames (must be divisible by the
    /// runtime's tile grid).
    pub frame_px: usize,
    /// Rendered frame ground extent, km.
    pub frame_km: f64,
    /// Days of ground track the sampled frames are spread over. The
    /// capacity model is always per-day; a multi-day sampling window just
    /// averages out day-scale cloud-system variance in the statistics.
    pub sample_window_days: f64,
}

impl MissionParams {
    /// Default sampling: 48 frames at the 132 px working resolution,
    /// spread over four days of ground track.
    pub fn default_sampling() -> MissionParams {
        MissionParams {
            sample_frames: 48,
            frame_px: 132,
            frame_km: 150.0,
            sample_window_days: 4.0,
        }
    }
}

impl Default for MissionParams {
    fn default() -> Self {
        MissionParams::default_sampling()
    }
}

/// The result of a day-scale mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionReport {
    /// Which system ran.
    pub system: SystemKind,
    /// Frames observed over the day.
    pub frames_observed: u64,
    /// Mean modeled compute time per frame.
    pub mean_frame_time: Duration,
    /// Fraction of frames processed within the deadline.
    pub processed_fraction: f64,
    /// The downlink ledger (pixel units, scaled to the full day).
    pub accounting: DownlinkAccounting,
    /// Data value density of the saturated downlink.
    pub dvd: f64,
    /// Fraction of observed high-value data downlinked (Figure 5's
    /// metric).
    pub observed_hv_downlinked: f64,
}

/// The result of a planned mission: the usual day-scale report plus the
/// planner's placement ledger for the sampled window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedMissionReport {
    /// The mission report, scored like any other system.
    pub report: MissionReport,
    /// Placement classes, energy/thermal/contact totals and storage
    /// pressure for the planned window.
    pub ledger: PlacementLedger,
}

/// A mission's sampled frames, rendered once and shared: cloning the
/// handle shares the frames, it never copies one.
#[derive(Debug, Clone)]
pub struct SampledFrames(Arc<[FrameImage]>);

impl Deref for SampledFrames {
    type Target = [FrameImage];

    fn deref(&self) -> &[FrameImage] {
        &self.0
    }
}

impl<'f> IntoIterator for &'f SampledFrames {
    type Item = &'f FrameImage;
    type IntoIter = std::slice::Iter<'f, FrameImage>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A mission runner bound to an environment and a world.
///
/// The sampled frames are rendered on first use and cached, so every
/// `run_*` on one mission flies the same frames without re-rendering.
#[derive(Debug, Clone)]
pub struct Mission<'a> {
    env: &'a SpaceEnvironment,
    world: &'a World,
    params: MissionParams,
    frames: OnceLock<SampledFrames>,
}

impl<'a> Mission<'a> {
    /// Creates a mission runner.
    ///
    /// # Panics
    ///
    /// Panics if `sample_frames` is zero.
    pub fn new(env: &'a SpaceEnvironment, world: &'a World, params: MissionParams) -> Mission<'a> {
        assert!(params.sample_frames > 0, "mission needs sample frames");
        Mission {
            env,
            world,
            params,
            frames: OnceLock::new(),
        }
    }

    /// The sampled frames along the day's ground track, rendered on the
    /// first call across the host's cores and shared afterwards.
    pub fn sample_frames(&self) -> SampledFrames {
        self.frames_with(par::resolve_workers(0))
    }

    /// [`Mission::sample_frames`], rendering on `workers` threads if no
    /// frames are cached yet. The frames are the same at any worker
    /// count; a caller that is already parallel (a fleet satellite)
    /// renders serially with `workers = 1`.
    pub(crate) fn frames_with(&self, workers: usize) -> SampledFrames {
        self.frames.get_or_init(|| self.render(workers)).clone()
    }

    /// Renders the sampled frames: this thread allocates every frame and
    /// `workers` threads fill them in place (see [`par::par_for_each_mut`]).
    fn render(&self, workers: usize) -> SampledFrames {
        let schedule = capture_schedule(
            &self.env.orbit,
            &self.env.imager,
            0,
            Duration::from_days(self.params.sample_window_days.max(0.05)),
        );
        let n = self.params.sample_frames.min(schedule.len());
        let stride = (schedule.len() / n).max(1);
        let placements: Vec<(f64, f64, f64)> = schedule
            .iter()
            .step_by(stride)
            .take(n)
            .map(|cap| {
                let t_days = (cap.epoch - self.env.orbit.epoch()).as_days();
                (cap.center.latitude_deg(), cap.center.longitude_deg(), t_days)
            })
            .collect();
        let mut frames: Vec<FrameImage> = placements
            .iter()
            .map(|_| FrameImage::blank(self.params.frame_px))
            .collect();
        par::par_for_each_mut(workers, &mut frames, |i, frame| {
            if let Some(&(lat, lon, t_days)) = placements.get(i) {
                self.world.render_into(frame, lat, lon, t_days, self.params.frame_km);
            }
        });
        SampledFrames(frames.into())
    }

    /// Runs the bent-pipe baseline.
    pub fn run_bent_pipe(&self) -> MissionReport {
        let frames = self.sample_frames();
        let mut total = FrameOutcome::default();
        for frame in &frames {
            total.absorb(&bent_pipe_frame(frame));
        }
        self.summarize(SystemKind::BentPipe, &total, Duration::ZERO)
    }

    /// Runs a mission with a prepared runtime (direct deploy or Kodan,
    /// depending on how the runtime's selection logic was built).
    pub fn run_with_runtime(&self, runtime: &Runtime, system: SystemKind) -> MissionReport {
        self.run_with_runtime_recorded(runtime, system, &mut NullRecorder)
    }

    /// [`Mission::run_with_runtime`] with telemetry: frame sampling and
    /// every per-frame runtime decision are reported to `recorder` (see
    /// [`Runtime::process_frame`]). Any `Recorder` works —
    /// summary, tape, trace builder, flight recorder — and each sees the
    /// same byte-identical stream at any worker count, which is what the
    /// `kodan trace` / `kodan health` surfaces are built on.
    pub fn run_with_runtime_recorded(
        &self,
        runtime: &Runtime,
        system: SystemKind,
        recorder: &mut dyn Recorder,
    ) -> MissionReport {
        let day = self.fly(&self.sample_frames(), runtime, None, recorder);
        self.summarize(system, &day.total, day.mean_frame_time)
    }

    /// Flies one satellite's day over `frames`: the one day body behind
    /// every runtime-flown mission and every fleet satellite.
    ///
    /// Records the `FrameSampling` span; with a `planner`, estimates every
    /// frame on the unplanned `runtime`, plans the day, records the
    /// `Planning` span and flies `runtime` under the plan; processes every
    /// frame in frame order through [`Runtime::frame_outcomes`] — fanned
    /// out over the runtime's workers, bit-identical to serial — and
    /// records the `Mission` span with the frame-order sum of modeled
    /// compute.
    pub(crate) fn fly(
        &self,
        frames: &[FrameImage],
        runtime: &Runtime,
        planner: Option<&ExecutionPlanner>,
        recorder: &mut dyn Recorder,
    ) -> FlownDay {
        recorder.span(StageId::FrameSampling, 0.0, frames.len() as u64);
        let planned = planner.map(|planner| {
            let plan = planner.plan_day(&self.estimate_frames(runtime, frames));
            recorder.span(StageId::Planning, 0.0, plan.frames().len() as u64);
            runtime.clone().with_plan(plan)
        });
        let runtime = planned.as_ref().unwrap_or(runtime);
        let outcomes = runtime.frame_outcomes(frames, recorder);
        let (total, mean_frame_time) = fold_outcomes(&outcomes);
        recorder.span(StageId::Mission, total.compute.as_seconds(), frames.len() as u64);
        FlownDay {
            outcomes,
            total,
            mean_frame_time,
            ledger: runtime.plan().map(|plan| plan.ledger.clone()),
        }
    }

    /// Builds the planner's view of each sampled frame: the unplanned
    /// runtime's per-frame outcome (compute time and downlink volume if
    /// the frame were processed on orbit) plus the raw per-tile pixel
    /// and clear-pixel counts the raw-fill rule ranks by.
    ///
    /// `runtime` should be the *unplanned* runtime — an installed plan
    /// would fold its own placements into the estimates it is supposed
    /// to inform.
    pub fn estimate_frames(
        &self,
        runtime: &Runtime,
        frames: &[FrameImage],
    ) -> Vec<FrameEstimate> {
        let outcomes = runtime.frame_outcomes(frames, &mut NullRecorder);
        frames
            .iter()
            .zip(outcomes.iter())
            .map(|(frame, o)| {
                let tiles = tile_frame(frame, runtime.logic().grid());
                let tile_estimates = tiles
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let (px, clear_px) = tile_pixels(t);
                        TileEstimate {
                            index: i as u32,
                            px,
                            clear_px,
                        }
                    })
                    .collect();
                FrameEstimate {
                    busy_seconds: o.compute.as_seconds(),
                    sent_px: o.sent_px,
                    value_px: o.value_px,
                    observed_px: o.observed_px,
                    observed_value_px: o.observed_value_px,
                    tiles: tile_estimates,
                }
            })
            .collect()
    }

    /// Runs a planned mission: estimate, plan, then fly the plan. See
    /// [`Mission::run_planned_recorded`].
    pub fn run_planned(
        &self,
        runtime: &Runtime,
        planner: &ExecutionPlanner,
    ) -> PlannedMissionReport {
        self.run_planned_recorded(runtime, planner, &mut NullRecorder)
    }

    /// Runs a mission under an [`ExecutionPlanner`] in two passes.
    ///
    /// Pass one dry-runs the unplanned runtime over the sampled frames
    /// to build [`FrameEstimate`]s (worker-invariant — outcomes come
    /// back in frame order); the planner turns them into a
    /// [`crate::plan::DayPlan`]. Pass two re-processes the same frames
    /// with the plan installed, so `DownlinkRaw`/`Defer` frames skip
    /// inference and ship their chosen tiles raw while `OnOrbit` frames
    /// run normally.
    ///
    /// The report is scored exactly like any other mission; afterwards
    /// the `planner_dvd_shortfall_ppm` counter records how far (in parts
    /// per million, rounded up) the planned DVD fell *below* the
    /// all-downlink-raw baseline — zero for any plan that does its job,
    /// which is what the default `kodan health` floor checks.
    pub fn run_planned_recorded(
        &self,
        runtime: &Runtime,
        planner: &ExecutionPlanner,
        recorder: &mut dyn Recorder,
    ) -> PlannedMissionReport {
        let day = self.fly(&self.sample_frames(), runtime, Some(planner), recorder);
        let report = self.summarize(SystemKind::Planned, &day.total, day.mean_frame_time);

        // The all-downlink-raw baseline's DVD is the high-value
        // prevalence of what was observed: shipping everything raw fills
        // the pipe with average-density data (uniform thinning cannot
        // change the density). A plan below that floor made things
        // worse, and the default health rules flag it.
        let baseline = if report.accounting.observed_px > 0.0 {
            report.accounting.observed_value_px / report.accounting.observed_px
        } else {
            0.0
        };
        if baseline > 0.0 && report.dvd < baseline {
            let ppm = (((baseline - report.dvd) / baseline) * 1e6).ceil();
            recorder.count(CounterId::PlannerDvdShortfallPpm, ppm as u64);
        }

        PlannedMissionReport {
            report,
            ledger: day.ledger.unwrap_or_default(),
        }
    }

    fn summarize(
        &self,
        system: SystemKind,
        total: &FrameOutcome,
        mean_frame_time: Duration,
    ) -> MissionReport {
        let sent_fraction = total.sent_px as f64 / total.observed_px.max(1) as f64;
        let value_fraction = total.value_px as f64 / total.observed_px.max(1) as f64;
        let hv_prevalence =
            total.observed_value_px as f64 / total.observed_px.max(1) as f64;

        let processed_fraction = if system == SystemKind::BentPipe
            || mean_frame_time <= self.env.frame_deadline
        {
            1.0
        } else {
            self.env.frame_deadline / mean_frame_time
        };

        // Scale to the full day in pixel units.
        let px_per_frame = (self.params.frame_px * self.params.frame_px) as f64;
        let day_observed = self.env.frames_per_day as f64 * px_per_frame;
        let accounting = DownlinkAccounting {
            capacity_px: self.env.capacity_fraction * day_observed,
            produced_px: processed_fraction * sent_fraction * day_observed,
            produced_value_px: processed_fraction * value_fraction * day_observed,
            observed_px: day_observed,
            observed_value_px: hv_prevalence * day_observed,
        };

        MissionReport {
            system,
            frames_observed: self.env.frames_per_day,
            mean_frame_time,
            processed_fraction,
            dvd: accounting.dvd(),
            observed_hv_downlinked: accounting.observed_hv_downlinked(),
            accounting,
        }
    }
}

/// Result of a pass-by-pass (queue-replay) mission: what the aggregate
/// capacity model abstracts away — on-board storage pressure and the
/// burstiness of ground contacts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetailedMissionReport {
    /// Pixels transmitted over the day's passes.
    pub sent_px: f64,
    /// High-value pixels transmitted.
    pub sent_value_px: f64,
    /// Pixels evicted on board because storage filled between contacts.
    pub storage_dropped_px: f64,
    /// Pixels still queued at the end of the day.
    pub residual_px: f64,
    /// Data value density of what was transmitted.
    pub transmitted_density: f64,
    /// Pixels shed from the queue to absorb contact capacity lost to
    /// injected faults (zero without a fault plan).
    pub shed_px: f64,
    /// Ground contacts dropped entirely by injected faults.
    pub contacts_dropped: u64,
    /// Ground contacts shortened by injected faults.
    pub contacts_shortened: u64,
}

impl<'a> Mission<'a> {
    /// Replays a full day pass-by-pass through a bounded, value-aware
    /// downlink queue (see [`crate::queue`]), under an optional
    /// contact-level fault plan, with telemetry.
    ///
    /// Frame captures arrive every frame deadline; each enqueues the
    /// (cyclically reused) outcome of one sampled frame, scaled to pixel
    /// units. Ground passes drain the queue highest-value-density first.
    /// `storage_px` bounds on-board storage; `passes` of satellites other
    /// than 0 are ignored. The frames are flown without telemetry;
    /// `recorder` sees the queue replay.
    ///
    /// Contacts are identified by their index in the time-sorted
    /// own-satellite pass list, so the fault hitting a given pass is a
    /// pure function of `(plan seed, contact index)`. A dropped contact
    /// drains nothing; a shortened or rain-faded contact drains with its
    /// reduced capacity. Either way the queue *sheds* its lowest-density
    /// entries by the lost capacity — giving up data the shrunken
    /// downlink could never carry preserves storage headroom for
    /// higher-value captures still to come.
    ///
    /// Frame-level faults (upsets, throttling, classify failures) are not
    /// decided here: arm them on the runtime itself with
    /// [`Runtime::with_fault_plan`], keyed by sampled-frame index.
    ///
    /// # Panics
    ///
    /// Panics if `storage_px` or `bits_per_px` is not positive.
    pub fn run_detailed_faulted(
        &self,
        runtime: &Runtime,
        passes: &[ServedPass],
        storage_px: f64,
        bits_per_px: f64,
        faults: Option<&FaultPlan>,
        recorder: &mut dyn Recorder,
    ) -> DetailedMissionReport {
        assert!(storage_px > 0.0, "storage must be positive");
        assert!(bits_per_px > 0.0, "pixels must have bits");
        let flown = self.fly(&self.sample_frames(), runtime, None, &mut NullRecorder);
        let own = own_passes(passes, 0);
        let day = self.replay_day(&flown, &own, faults, storage_px, bits_per_px, recorder);
        let mut sent_px = 0.0;
        let mut sent_value_px = 0.0;
        for drained in &day.drains {
            sent_px += drained.sent_bits;
            sent_value_px += drained.sent_value_bits;
        }
        DetailedMissionReport {
            sent_px,
            sent_value_px,
            storage_dropped_px: day.storage_dropped_px,
            residual_px: day.residual_px,
            transmitted_density: if sent_px > 0.0 {
                sent_value_px / sent_px
            } else {
                0.0
            },
            shed_px: day.shed_px,
            contacts_dropped: day.contacts_dropped,
            contacts_shortened: day.contacts_shortened,
        }
    }

    /// Replays one satellite's day through a bounded, value-aware
    /// downlink queue holding `storage_px` pixels: the one queue replay
    /// behind both [`Mission::run_detailed_faulted`] and a fleet
    /// satellite's day.
    ///
    /// Frame captures arrive every frame deadline, `frames_per_day` of
    /// them; each enqueues the (cyclically reused) outcome of one sampled
    /// frame, and captures beyond the compute budget are skipped before
    /// they reach the queue. `passes` are the satellite's own passes,
    /// sorted by start time; each drains the queue highest value density
    /// first when it starts. Contact `k` is `passes[k]` degraded by
    /// `faults` (fault-free without a plan); a dropped contact drains
    /// nothing, and the capacity a faulted contact lost is shed from the
    /// queue's lowest-density entries.
    pub(crate) fn replay_day(
        &self,
        flown: &FlownDay,
        passes: &[ServedPass],
        faults: Option<&FaultPlan>,
        storage_px: f64,
        bits_per_px: f64,
        recorder: &mut dyn Recorder,
    ) -> DayReplay {
        let contacts: Vec<ContactOutcome> = match faults {
            Some(plan) => plan.degrade_passes(passes),
            None => passes
                .iter()
                .map(|p| ContactOutcome {
                    pass: Some(p.clone()),
                    fault: ContactFault::none(),
                    lost_bits: 0.0,
                })
                .collect(),
        };
        let outcomes = &flown.outcomes;
        let processed_fraction = if flown.mean_frame_time <= self.env.frame_deadline {
            1.0
        } else {
            self.env.frame_deadline / flown.mean_frame_time
        };

        let deadline_s = self.env.frame_deadline.as_seconds();
        let mut queue = DownlinkQueue::new(storage_px);
        let mut day = DayReplay::default();
        let mut next_contact = 0usize;
        for i in 0..self.env.frames_per_day {
            let t = i as f64 * deadline_s;
            // Serve any contacts that started before this capture.
            while let Some(contact) = contacts.get(next_contact) {
                let starts = passes
                    .get(next_contact)
                    .map_or(f64::INFINITY, |p| p.start.seconds_since_start());
                if starts <= t {
                    serve_contact(contact, bits_per_px, &mut queue, &mut day, recorder);
                    next_contact += 1;
                } else {
                    break;
                }
            }
            // Frames beyond the compute budget are skipped before they
            // reach the queue: frame i is processed iff the cumulative
            // processed count advances at rate `processed_fraction`.
            let processed_before = ((i as f64) * processed_fraction).floor();
            let processed_after = ((i as f64 + 1.0) * processed_fraction).floor();
            if processed_after > processed_before {
                let slot = (i as usize).checked_rem(outcomes.len()).unwrap_or(0);
                let o = match outcomes.get(slot) {
                    Some(o) => o,
                    None => continue,
                };
                day.tiles_processed += o.tiles_processed as u64;
                day.tiles_elided += o.tiles_elided as u64;
                if o.sent_px > 0 {
                    // A corrupt outcome (injected or numeric) must not
                    // take the mission down: drop the entry, count it,
                    // and keep flying.
                    match QueueEntry::new(o.sent_px as f64, o.value_px as f64) {
                        Ok(entry) => queue.push(entry),
                        Err(_) => recorder.count(CounterId::QueueEntriesRejected, 1),
                    }
                }
            }
        }
        // Remaining contacts after the last capture.
        for contact in contacts.iter().skip(next_contact) {
            serve_contact(contact, bits_per_px, &mut queue, &mut day, recorder);
        }
        day.storage_dropped_px = queue.dropped_bits();
        day.residual_px = queue.occupied_bits();
        day
    }
}

/// One satellite's day as [`Mission::fly`] flew it.
#[derive(Debug)]
pub(crate) struct FlownDay {
    /// Per-frame outcomes, in frame order.
    pub outcomes: Vec<FrameOutcome>,
    /// The outcomes folded in frame order.
    pub total: FrameOutcome,
    /// Mean modeled compute time per frame.
    pub mean_frame_time: Duration,
    /// The placement ledger of the plan the frames were flown under.
    pub ledger: Option<PlacementLedger>,
}

/// What [`Mission::replay_day`] reports for one satellite's day, in
/// pixel units.
#[derive(Debug, Default)]
pub(crate) struct DayReplay {
    /// What each contact drained, in contact order (nothing for a
    /// dropped contact).
    pub drains: Vec<DrainReport>,
    /// Pixels evicted on board because storage filled between contacts.
    pub storage_dropped_px: f64,
    /// Pixels still queued at the end of the day.
    pub residual_px: f64,
    /// Pixels shed to absorb contact capacity lost to faults.
    pub shed_px: f64,
    /// Tiles processed by a model over the captured frames.
    pub tiles_processed: u64,
    /// Tiles elided over the captured frames.
    pub tiles_elided: u64,
    /// Contacts dropped entirely by faults.
    pub contacts_dropped: u64,
    /// Contacts shortened by faults.
    pub contacts_shortened: u64,
}

/// Satellite `satellite`'s passes, sorted by start time: the contact
/// order [`Mission::replay_day`] and the fault plan key on.
pub(crate) fn own_passes(passes: &[ServedPass], satellite: usize) -> Vec<ServedPass> {
    let mut own: Vec<ServedPass> = passes
        .iter()
        .filter(|p| p.satellite == satellite)
        .cloned()
        .collect();
    own.sort_by(|a, b| {
        a.start
            .seconds_since_start()
            .total_cmp(&b.start.seconds_since_start())
    });
    own
}

/// Serves one contact: drains the queue by what the contact can carry,
/// records its fault, and sheds the capacity it lost.
fn serve_contact(
    contact: &ContactOutcome,
    bits_per_px: f64,
    queue: &mut DownlinkQueue,
    day: &mut DayReplay,
    recorder: &mut dyn Recorder,
) {
    day.drains.push(match &contact.pass {
        Some(p) => queue.drain(p.bits() / bits_per_px),
        None => DrainReport::default(),
    });
    let fault = contact.fault;
    if fault.dropped {
        day.contacts_dropped += 1;
        recorder.count(CounterId::FaultContactsDropped, 1);
        recorder.event(TelemetryEvent::FaultInjected {
            kind: FaultKind::ContactDrop,
        });
    } else {
        if fault.keep_fraction < 1.0 {
            day.contacts_shortened += 1;
            recorder.count(CounterId::FaultContactsShortened, 1);
            recorder.event(TelemetryEvent::FaultInjected {
                kind: FaultKind::ContactShorten,
            });
        }
        if fault.fade_db > 0.0 {
            recorder.event(TelemetryEvent::FaultInjected {
                kind: FaultKind::RainFade,
            });
        }
    }
    if contact.lost_bits > 0.0 {
        let shed = queue.shed_lowest(contact.lost_bits / bits_per_px);
        if shed.entries_shed > 0 {
            day.shed_px += shed.shed_bits;
            recorder.count(CounterId::QueueEntriesShed, shed.entries_shed as u64);
            recorder.event(TelemetryEvent::FaultRecovered {
                kind: RecoveryKind::QueueShed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::{Transformation, TransformationArtifacts};
    use crate::selection::SelectionLogic;
    use kodan_geodata::{Dataset, DatasetConfig};
    use kodan_hw::targets::HwTarget;
    use kodan_ml::zoo::ModelArch;

    fn artifacts(world: &World) -> TransformationArtifacts {
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(world, &ds_cfg);
        Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds")
    }

    fn params() -> MissionParams {
        MissionParams {
            sample_frames: 6,
            frame_px: 132,
            frame_km: 150.0,
            sample_window_days: 2.0,
        }
    }

    #[test]
    fn bent_pipe_dvd_tracks_prevalence() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_bent_pipe();
        let prevalence =
            report.accounting.observed_value_px / report.accounting.observed_px;
        assert!((report.dvd - prevalence).abs() < 1e-9);
        assert_eq!(report.processed_fraction, 1.0);
        assert_eq!(report.system, SystemKind::BentPipe);
    }

    #[test]
    fn kodan_beats_bent_pipe_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let bent = mission.run_bent_pipe();
        let kodan = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        assert!(
            kodan.dvd > bent.dvd,
            "kodan {} vs bent pipe {}",
            kodan.dvd,
            bent.dvd
        );
    }

    #[test]
    fn direct_deploy_misses_the_deadline_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = SelectionLogic::direct_deploy(
            &a,
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_with_runtime(&runtime, SystemKind::DirectDeploy);
        assert!(report.processed_fraction < 0.2, "{}", report.processed_fraction);
        assert!(report.mean_frame_time > env.frame_deadline);
    }

    #[test]
    fn kodan_meets_the_deadline_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        assert!(
            report.processed_fraction > 0.9,
            "processed fraction {}",
            report.processed_fraction
        );
    }

    #[test]
    fn recorded_mission_matches_plain_mission() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let plain = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        let recorded =
            mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
        assert_eq!(plain, recorded);
        let snap = recorder.snapshot();
        assert_eq!(snap.frames, 6);
        assert_eq!(snap.span(kodan_telemetry::StageId::FrameSampling).items, 6);
        // Mission span totals are inclusive of their frame children.
        let mission_s = snap.span(kodan_telemetry::StageId::Mission).modeled_seconds;
        let frame_s = snap.span(kodan_telemetry::StageId::Frame).modeled_seconds;
        assert!((mission_s - frame_s).abs() < 1e-9);
    }

    #[test]
    fn sampled_frames_follow_the_ground_track() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let mission = Mission::new(&env, &world, params());
        let frames = mission.sample_frames();
        assert_eq!(frames.len(), 6);
        // Polar orbit: sampled frames span a wide latitude range.
        let lats: Vec<f64> = frames.iter().map(|f| f.center_lat_deg()).collect();
        let span = lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - lats.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(span > 30.0, "latitude span {span}");
    }

    #[test]
    fn a_mission_renders_its_frames_once() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let mission = Mission::new(&env, &world, params());
        let first = mission.sample_frames();
        let second = mission.sample_frames();
        assert!(Arc::ptr_eq(&first.0, &second.0));
    }

    #[test]
    fn frames_do_not_depend_on_render_workers() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let serial = Mission::new(&env, &world, params()).frames_with(1);
        let parallel = Mission::new(&env, &world, params()).frames_with(4);
        assert_eq!(serial.len(), 6);
        assert_eq!(*serial, *parallel);
    }

    #[test]
    fn detailed_mission_agrees_with_aggregate_model() {
        // The queue-replay and the aggregate capacity model should tell
        // the same story when storage is plentiful: similar transmitted
        // value density, transmitted volume within the passes' capacity.
        let world = World::new(42);
        let a = artifacts(&world);
        let orbit = kodan_cote::orbit::Orbit::sun_synchronous(705_000.0);
        let report = kodan_cote::sim::simulate_space_segment(
            &kodan_cote::constellation::Constellation::single(orbit),
            &kodan_cote::sensor::Imager::landsat_oli(),
            &kodan_cote::ground::GroundSegment::landsat(),
            Duration::from_days(1.0),
        );
        let env = SpaceEnvironment::landsat(1);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let aggregate = mission.run_with_runtime(&runtime, SystemKind::Kodan);

        let bits_per_px = env.imager.frame_bits() / (132.0 * 132.0);
        let detailed = mission.run_detailed_faulted(
            &runtime,
            &report.passes,
            1e9,
            bits_per_px,
            None,
            &mut NullRecorder,
        );
        assert!(detailed.sent_px > 0.0);
        assert!(
            (detailed.transmitted_density - aggregate.dvd).abs() < 0.2,
            "detailed density {} vs aggregate dvd {}",
            detailed.transmitted_density,
            aggregate.dvd
        );
        // Conservation: transmitted + dropped + residual is what was
        // produced.
        assert!(detailed.storage_dropped_px >= 0.0);
        assert!(detailed.residual_px >= 0.0);
        // The passes carry no more than their capacity.
        assert!(
            detailed.sent_px * bits_per_px <= report.capacity_bits * (1.0 + 1e-9),
            "sent {} bits over {} bits of pass capacity",
            detailed.sent_px * bits_per_px,
            report.capacity_bits
        );
        // Priority ordering: what went down is denser than the queue's
        // average entry.
        let queue_density =
            aggregate.accounting.produced_value_px / aggregate.accounting.produced_px;
        assert!(
            detailed.transmitted_density > queue_density,
            "drained density {} vs queue average {queue_density}",
            detailed.transmitted_density
        );
    }

    #[test]
    fn tight_storage_drops_data_but_keeps_value() {
        let world = World::new(42);
        let a = artifacts(&world);
        let orbit = kodan_cote::orbit::Orbit::sun_synchronous(705_000.0);
        let report = kodan_cote::sim::simulate_space_segment(
            &kodan_cote::constellation::Constellation::single(orbit),
            &kodan_cote::sensor::Imager::landsat_oli(),
            &kodan_cote::ground::GroundSegment::landsat(),
            Duration::from_days(1.0),
        );
        let env = SpaceEnvironment::landsat(1);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let bits_per_px = env.imager.frame_bits() / (132.0 * 132.0);
        let roomy = mission.run_detailed_faulted(
            &runtime,
            &report.passes,
            1e9,
            bits_per_px,
            None,
            &mut NullRecorder,
        );
        let tight = mission.run_detailed_faulted(
            &runtime,
            &report.passes,
            4.0e4,
            bits_per_px,
            None,
            &mut NullRecorder,
        );
        assert!(tight.storage_dropped_px > roomy.storage_dropped_px);
        // The value-aware queue preferentially keeps high-value data, so
        // transmitted density does not collapse under storage pressure.
        assert!(
            tight.transmitted_density >= roomy.transmitted_density - 0.1,
            "tight {} vs roomy {}",
            tight.transmitted_density,
            roomy.transmitted_density
        );
    }

    #[test]
    fn landsat_environment_is_sane() {
        let env = SpaceEnvironment::landsat(1);
        assert!((20.0..26.0).contains(&env.frame_deadline.as_seconds()));
        assert!(env.frames_per_day > 3000);
        assert!(
            (0.005..0.6).contains(&env.capacity_fraction),
            "capacity fraction {}",
            env.capacity_fraction
        );
    }
}
