//! Telemetry overhead baseline: `Runtime::process_frames` with the
//! no-op `NullRecorder` vs the accumulating `SummaryRecorder` vs the
//! black-box `FlightRecorder` armed on top of it.
//!
//! The recorder contract promises that instrumentation is effectively
//! free when disabled and cheap when enabled (the runtime's cost is
//! dominated by tile featurization and model inference, not counter
//! bumps). This bench pins that promise to numbers and writes
//! `BENCH_telemetry_overhead.json` at the repo root so future PRs have an
//! overhead budget to compare against.

use kodan::mission::SpaceEnvironment;
use kodan::runtime::Runtime;
use kodan_bench::harness::{time, write_baseline, Protocol};
use kodan_bench::{banner, bench_artifacts, bench_world};
use kodan_geodata::frame::FrameImage;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{FlightRecorder, NullRecorder, SummaryRecorder};

/// Frames timed per batch; small enough to keep the bench fast, large
/// enough that per-call dispatch noise averages out.
const BATCH_FRAMES: usize = 8;

/// 21 samples of 2 batches (a batch is ~12 ms).
const PROTOCOL: Protocol = Protocol::timed(21, 2);

fn sample_frames(world: &kodan_geodata::World) -> Vec<FrameImage> {
    (0..BATCH_FRAMES)
        .map(|i| world.render_frame(12.0 + i as f64, -71.0, 0.0, 132, 150.0))
        .collect()
}

fn main() {
    banner(
        "Telemetry overhead: NullRecorder vs SummaryRecorder",
        "Runtime::process_frames wall time, 8-frame batches (App 4, Orin 15W)",
    );
    let world = bench_world();
    let artifacts = bench_artifacts(ModelArch::ResNet50DilatedPpm);
    let env = SpaceEnvironment::landsat(1);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let frames = sample_frames(&world);

    let null_t =
        time(PROTOCOL, || runtime.process_frames_recorded(frames.iter(), &mut NullRecorder));
    let summary_t = time(PROTOCOL, || {
        let mut recorder = SummaryRecorder::new();
        runtime.process_frames_recorded(frames.iter(), &mut recorder)
    });
    // The flight recorder keeps the summary underneath and adds the
    // per-frame ring-buffer maintenance on top — the worst-case armed
    // configuration (`kodan mission` flies with exactly this stack).
    let flight_t = time(PROTOCOL, || {
        let mut recorder = FlightRecorder::new(SummaryRecorder::new());
        runtime.process_frames_recorded(frames.iter(), &mut recorder)
    });
    let (null_s, summary_s, flight_s) = (null_t.median, summary_t.median, flight_t.median);
    let ratio = if null_s > 0.0 { summary_s / null_s } else { 0.0 };
    let flight_ratio = if null_s > 0.0 { flight_s / null_s } else { 0.0 };

    // One recorded batch, so the baseline pins the event volume the
    // overhead pays for.
    let mut recorder = SummaryRecorder::new();
    runtime.process_frames_recorded(frames.iter(), &mut recorder);
    let snapshot = recorder.snapshot();

    write_baseline(
        "telemetry_overhead",
        &format!("seconds_per_{BATCH_FRAMES}_frame_batch"),
        PROTOCOL,
        |w| {
            null_t.write(w, "null_recorder_s");
            summary_t.write(w, "summary_recorder_s");
            flight_t.write(w, "flight_recorder_s");
            w.float(Some("overhead_ratio"), ratio);
            w.float(Some("flight_overhead_ratio"), flight_ratio);
            w.uint(Some("events_per_batch"), snapshot.events);
            w.uint(Some("frames_per_batch"), snapshot.frames);
            w.string(
                Some("budget_note"),
                "future PRs should keep overhead_ratio and flight_overhead_ratio under 1.10",
            );
        },
    );
    println!();
    println!(
        "null {:.3} ms  summary {:.3} ms  flight {:.3} ms  ratios {:.3}/{:.3}  ({} events/batch)",
        null_s * 1e3,
        summary_s * 1e3,
        flight_s * 1e3,
        ratio,
        flight_ratio,
        snapshot.events
    );
}
