//! Parallel frame-processing speedup: `Runtime::process_frames` at one
//! worker vs four, on an 8-frame batch.
//!
//! The deterministic data-parallel layer (`kodan_core::par`) promises a
//! pure wall-clock win: byte-identical outputs at any worker count, with
//! throughput scaling by the contiguous-shard schedule. This bench pins
//! both halves of that promise and writes `BENCH_parallel_speedup.json`
//! at the repo root.
//!
//! Hosts with fewer than four cores cannot *measure* a 4-worker speedup,
//! so alongside wall-clock numbers the bench computes the schedule
//! (critical-path) speedup from per-frame serial times under the exact
//! `par::shard_len` sharding — the speedup a 4-core host realizes. The
//! `speedup_basis` field records which figure `speedup_at_4_workers`
//! reports.

use kodan::mission::SpaceEnvironment;
use kodan::par;
use kodan::runtime::Runtime;
use kodan_bench::harness::{available_parallelism, time, write_baseline, Protocol};
use kodan_bench::{banner, bench_artifacts, bench_world};
use kodan_geodata::frame::FrameImage;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::SummaryRecorder;

/// Frames per timed batch; matches the telemetry-overhead bench and the
/// issue's 8-frame mission scenario.
const BATCH_FRAMES: usize = 8;

/// 11 samples of 2 calls, for batches (~14 ms) and single frames alike.
const PROTOCOL: Protocol = Protocol::timed(11, 2);

fn sample_frames(world: &kodan_geodata::World) -> Vec<FrameImage> {
    (0..BATCH_FRAMES)
        .map(|i| world.render_frame(12.0 + i as f64, -71.0, 0.0, 132, 150.0))
        .collect()
}

/// Makespan of the contiguous-shard schedule: each of `workers` workers
/// takes one `par::shard_len` slice of the per-frame times; the batch
/// finishes when the busiest worker does.
fn schedule_makespan(frame_times: &[f64], workers: usize) -> f64 {
    let workers = workers.min(frame_times.len()).max(1);
    let mut start = 0;
    let mut longest = 0.0f64;
    for w in 0..workers {
        let len = par::shard_len(frame_times.len(), workers, w);
        let shard: f64 = frame_times[start..start + len].iter().sum();
        start += len;
        longest = longest.max(shard);
    }
    longest
}

fn main() {
    banner(
        "Parallel frame-processing speedup: 1 vs 4 workers",
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
    let frames = sample_frames(&world);
    let runtime_at = |workers: usize| {
        Runtime::new(logic.clone(), artifacts.engine.clone()).with_workers(workers)
    };

    // Determinism first: the speedup claim only counts if outputs are
    // byte-identical across worker counts.
    let snapshot_json = |workers: usize| {
        let mut recorder = SummaryRecorder::new();
        let (outcome, mean) =
            runtime_at(workers).process_frames_recorded(frames.iter(), &mut recorder);
        (outcome, mean, recorder.snapshot().to_json())
    };
    let (serial_outcome, serial_mean, serial_json) = snapshot_json(1);
    let mut outputs_identical = true;
    for workers in [2, 4] {
        let (outcome, mean, json) = snapshot_json(workers);
        outputs_identical &= outcome == serial_outcome
            && mean == serial_mean
            && json.as_bytes() == serial_json.as_bytes();
    }
    assert!(outputs_identical, "parallel outputs diverged from serial");

    // Wall-clock batch times at 1, 2 and 4 workers.
    let walls = [1, 2, 4].map(|workers| {
        let runtime = runtime_at(workers);
        time(PROTOCOL, || runtime.process_frames(frames.iter()))
    });
    let [wall_1w, wall_2w, wall_4w] = walls.map(|t| t.median);
    let measured_2w = if wall_2w > 0.0 { wall_1w / wall_2w } else { 0.0 };
    let measured_4w = if wall_4w > 0.0 { wall_1w / wall_4w } else { 0.0 };

    // Per-frame serial times feed the schedule model: with the contiguous
    // `shard_len` sharding, a w-core host finishes the batch in the
    // busiest shard's time.
    let serial_runtime = runtime_at(1);
    let frame_times: Vec<f64> = frames
        .iter()
        .map(|f| time(PROTOCOL, || serial_runtime.process_frames(std::iter::once(f))).median)
        .collect();
    let serial_total: f64 = frame_times.iter().sum();
    let schedule_2w = serial_total / schedule_makespan(&frame_times, 2);
    let schedule_4w = serial_total / schedule_makespan(&frame_times, 4);

    let cores = available_parallelism();
    let (speedup_4w, basis) = if cores >= 4 {
        (measured_4w, "measured-wall-clock")
    } else {
        (schedule_4w, "critical-path-schedule")
    };

    write_baseline(
        "parallel_speedup",
        &format!("seconds_per_{BATCH_FRAMES}_frame_batch"),
        PROTOCOL,
        |w| {
            w.uint(Some("cores_available"), cores as u64);
            walls[0].write(w, "wall_1_worker_s");
            walls[1].write(w, "wall_2_workers_s");
            walls[2].write(w, "wall_4_workers_s");
            w.float(Some("measured_speedup_2w"), measured_2w);
            w.float(Some("measured_speedup_4w"), measured_4w);
            w.float(Some("schedule_speedup_2w"), schedule_2w);
            w.float(Some("schedule_speedup_4w"), schedule_4w);
            w.float(Some("speedup_at_4_workers"), speedup_4w);
            w.string(Some("speedup_basis"), basis);
            w.bool(Some("outputs_byte_identical"), outputs_identical);
            w.string(
                Some("note"),
                "schedule speedup is serial time over the busiest shard_len shard; it is what a \
                 >=4-core host realizes and the committed acceptance figure when this bench runs \
                 on fewer cores",
            );
        },
    );
    println!();
    println!(
        "wall: 1w {:.1} ms  2w {:.1} ms  4w {:.1} ms  (measured 4w speedup {measured_4w:.2}x on {cores} core(s))",
        wall_1w * 1e3,
        wall_2w * 1e3,
        wall_4w * 1e3,
    );
    println!(
        "schedule: 2w {schedule_2w:.2}x  4w {schedule_4w:.2}x  -> speedup_at_4_workers {speedup_4w:.2}x ({basis})"
    );
    assert!(
        speedup_4w >= 2.0,
        "4-worker speedup {speedup_4w:.2}x below the 2x acceptance floor"
    );
}
