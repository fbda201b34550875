//! Constellation-scale fleet streaming: bounded-memory spill aggregation
//! and the downlink-queue eviction fix, measured end to end.
//!
//! Three lanes, all committed to `BENCH_fleet_streaming.json`:
//!
//! 1. **Acceptance** — a 24-satellite fleet day under a memtable budget
//!    far below its journal volume must spill (peak memtable <= budget
//!    while ingested bytes exceed it) and produce an identical
//!    `FleetReport` plus byte-identical telemetry JSON at 1, 2 and 4
//!    workers.
//! 2. **Throughput** — fleet-day wall time at 6, 12 and 24 satellites
//!    under the same fixed budget, so constellation scaling has a
//!    committed baseline.
//! 3. **Queue pressure** — the one-pass sorted-front eviction in
//!    `DownlinkQueue::push` against the previous implementation
//!    (re-sort the whole queue, then `remove(0)` per victim — O(n² log n)
//!    over a sustained-overflow day), reproduced here verbatim so the
//!    before/after is measured, not remembered. `crates/core/src/queue.rs`
//!    cites this lane.
//!
//! The fleet lanes fly a fast-transform runtime (small dataset, fast
//! config): the subject is the streaming combine and queue replay, not
//! inference throughput — the inference benches own that axis.

use kodan::fleet::combine::JournalRecord;
use kodan::fleet::{Fleet, FleetConfig};
use kodan::mission::{MissionParams, SpaceEnvironment};
use kodan::pipeline::Transformation;
use kodan::queue::{DownlinkQueue, QueueEntry};
use kodan::runtime::Runtime;
use kodan::KodanConfig;
use kodan_bench::harness::{time, write_baseline, Protocol};
use kodan_bench::{banner, f, n, row, s, BENCH_SEED};
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::SummaryRecorder;
use kodan_wire::ArtifactStore;
use std::path::PathBuf;

/// Five single-call samples per lane: a 24-satellite fleet day is the
/// expensive unit (~4 s), and the median of five rides out a stalled
/// sample of the ~2 ms queue lane.
const PROTOCOL: Protocol = Protocol::timed(5, 1);

/// Memtable budget for every fleet lane: 4 journal records — a 6-sat
/// day already ingests several times this, so every lane spills.
const BUDGET: u64 = 4 * JournalRecord::ENCODED_BYTES;

fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("kodan-bench-fleet-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::create(&dir).expect("create scratch store");
    (dir, store)
}

fn fleet_runtime(world: &World) -> Runtime {
    let mut ds_cfg = DatasetConfig::small(1);
    ds_cfg.frame_count = 12;
    ds_cfg.frame_px = 132;
    let dataset = Dataset::sample(world, &ds_cfg);
    let artifacts = Transformation::new(KodanConfig::fast(3))
        .run(&dataset, ModelArch::ResNet50DilatedPpm)
        .expect("bench transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    Runtime::new(logic, artifacts.engine.clone())
}

fn fleet_params() -> MissionParams {
    MissionParams {
        sample_frames: 8,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    }
}

/// The pre-fix `DownlinkQueue::push`, reproduced for the before/after:
/// entries kept unsorted, every overflow re-sorts the whole queue and
/// `remove(0)`s per victim — O(n log n) sort plus O(n) shift per push
/// under sustained overflow.
struct LegacyQueue {
    storage_bits: f64,
    entries: Vec<QueueEntry>,
    occupied_bits: f64,
    dropped_bits: f64,
}

impl LegacyQueue {
    fn new(storage_bits: f64) -> LegacyQueue {
        LegacyQueue {
            storage_bits,
            entries: Vec::new(),
            occupied_bits: 0.0,
            dropped_bits: 0.0,
        }
    }

    fn push(&mut self, entry: QueueEntry) {
        if entry.bits <= 0.0 {
            return;
        }
        self.entries.push(entry);
        self.occupied_bits += entry.bits;
        if self.occupied_bits > self.storage_bits {
            self.entries
                .sort_by(|a, b| a.density().total_cmp(&b.density()));
            while self.occupied_bits > self.storage_bits && !self.entries.is_empty() {
                let victim = self.entries.remove(0);
                self.occupied_bits -= victim.bits;
                self.dropped_bits += victim.bits;
            }
        }
    }
}

/// A sustained-overflow workload: storage holds ~`capacity` entries and
/// `total` entries arrive, so almost every push evicts.
fn pressure_entries(total: usize) -> Vec<QueueEntry> {
    (0..total)
        .map(|i| {
            let bits = 60.0 + (i % 13) as f64 * 7.0;
            let density = 0.05 + 0.9 * ((i % 97) as f64 / 97.0);
            QueueEntry::new(bits, bits * density).expect("bench entry is valid")
        })
        .collect()
}

fn main() {
    banner(
        "Fleet streaming: spill aggregation, scaling and queue pressure",
        "24-sat byte-identity + spill, fleet-day wall time vs size, push eviction before/after",
    );
    let world = World::new(BENCH_SEED);
    let runtime = fleet_runtime(&world);
    let params = fleet_params();

    // Lane 1: acceptance. One fleet day per worker count, reports and
    // telemetry compared against the serial run.
    let fly = |satellites: usize, workers: usize, tag: &str| {
        let (dir, store) = scratch_store(tag);
        let config = FleetConfig {
            satellites,
            memtable_budget: BUDGET,
            workers,
            plan: None,
        };
        let mut recorder = SummaryRecorder::new();
        let report = Fleet::new(&world, &runtime, params, config)
            .run_recorded(&store, &mut recorder)
            .expect("fleet run succeeds");
        std::fs::remove_dir_all(&dir).ok();
        (report, recorder.snapshot().to_json())
    };
    let (report_1w, json_1w) = fly(24, 1, "acc-w1");
    let mut byte_identical = true;
    for workers in [2usize, 4] {
        let (report, json) = fly(24, workers, &format!("acc-w{workers}"));
        byte_identical &= report == report_1w && json.as_bytes() == json_1w.as_bytes();
    }
    assert!(byte_identical, "fleet outputs diverged across worker counts");
    assert!(report_1w.spill.runs > 0, "budget must force spilling");
    assert!(report_1w.spill.peak_memtable_bytes <= BUDGET);
    assert!(
        report_1w.spill.ingested_bytes > BUDGET,
        "journal volume must exceed the memtable budget"
    );

    // Lane 2: fleet-day wall time vs constellation size. The last timed
    // day supplies the spill statistics.
    let sizes = [6usize, 12, 24];
    row(&[s("satellites"), s("wall s"), s("spill runs"), s("spilled B"), s("ingested B")]);
    let lanes = sizes.map(|satellites| {
        let mut last = None;
        let wall = time(PROTOCOL, || last = Some(fly(satellites, 0, "wall")));
        let (report, _) = last.expect("timed at least once");
        row(&[
            n(satellites as u64),
            f(wall.median),
            n(report.spill.runs),
            n(report.spill.spilled_bytes),
            n(report.spill.ingested_bytes),
        ]);
        (wall, report.spill)
    });

    // Lane 3: queue pressure. Sustained overflow — storage holds ~200
    // entries, 4000 arrive — times the pre-fix sort+remove(0) push
    // against the sorted one-pass eviction now in DownlinkQueue.
    const PRESSURE_TOTAL: usize = 4_000;
    const PRESSURE_STORAGE: f64 = 200.0 * 90.0;
    let entries = pressure_entries(PRESSURE_TOTAL);
    let legacy_t = time(PROTOCOL, || {
        let mut q = LegacyQueue::new(PRESSURE_STORAGE);
        for e in &entries {
            q.push(*e);
        }
        (q.occupied_bits, q.dropped_bits)
    });
    let sorted_t = time(PROTOCOL, || {
        let mut q = DownlinkQueue::new(PRESSURE_STORAGE);
        for e in &entries {
            q.push(*e);
        }
        (q.occupied_bits(), q.dropped_bits())
    });
    let (legacy_s, sorted_s) = (legacy_t.median, sorted_t.median);
    let push_speedup = if sorted_s > 0.0 { legacy_s / sorted_s } else { 0.0 };
    println!();
    println!(
        "queue pressure ({PRESSURE_TOTAL} pushes, ~200-entry storage): \
         legacy {:.1} ms, sorted {:.1} ms ({push_speedup:.1}x)",
        legacy_s * 1e3,
        sorted_s * 1e3,
    );
    assert!(
        push_speedup > 1.0,
        "one-pass eviction must beat sort+remove(0), got {push_speedup:.2}x"
    );

    write_baseline("fleet_streaming", "seconds_per_fleet_day", PROTOCOL, |w| {
        w.uint(Some("memtable_budget_bytes"), BUDGET);
        w.bool(Some("outputs_byte_identical_1_2_4_workers"), byte_identical);
        w.uint(Some("spill_runs_24sat"), report_1w.spill.runs);
        w.uint(Some("spill_peak_memtable_bytes_24sat"), report_1w.spill.peak_memtable_bytes);
        w.uint(Some("spill_ingested_bytes_24sat"), report_1w.spill.ingested_bytes);
        for (satellites, (wall, _)) in sizes.iter().zip(&lanes) {
            wall.write(w, &format!("fleet_day_{satellites}sat_s"));
        }
        w.open_array(Some("spill_runs"));
        lanes.iter().for_each(|(_, spill)| w.uint(None, spill.runs));
        w.close_array();
        w.open_array(Some("spilled_bytes"));
        lanes.iter().for_each(|(_, spill)| w.uint(None, spill.spilled_bytes));
        w.close_array();
        w.open_array(Some("ingested_bytes"));
        lanes.iter().for_each(|(_, spill)| w.uint(None, spill.ingested_bytes));
        w.close_array();
        w.uint(Some("queue_pressure_pushes"), PRESSURE_TOTAL as u64);
        legacy_t.write(w, "queue_pressure_legacy_push_s");
        sorted_t.write(w, "queue_pressure_sorted_push_s");
        w.float(Some("queue_pressure_speedup"), push_speedup);
        w.string(
            Some("note"),
            "fleet lanes fly a fast-transform runtime: the subject is the bounded-memory spill \
             combine and queue replay, not inference throughput. queue_pressure compares the \
             pre-fix sort+remove(0) overflow eviction (reproduced in this bench) against the \
             sorted one-pass eviction under sustained overflow.",
        );
    });
}
