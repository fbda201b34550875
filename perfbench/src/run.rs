//! One benchmark run: set up, fly days until the time budget is spent,
//! check every day's outputs, and turn the timings into metrics.
//!
//! Untraced runs (`--trace 0`) time whole set-ups and days, with no
//! span recording; they give the end-to-end metrics. Traced runs
//! (`--trace 1`) set up once with a span around each layer call, then
//! alternate traced and untraced days; they give the per-layer metrics,
//! and the two kinds of day give the tracer's own overhead.

use crate::metrics::{unit_of, RunResult};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workload::{set_up, DayOutputs, Job, Setup};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A run's inputs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// What to fly.
    pub job: Job,
    /// Seconds of days to measure after set-up. At least one day (one
    /// traced and one untraced day when tracing) always flies.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Directory for the fleet's spill store.
    pub run_dir: PathBuf,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Human-readable report: protocol, per-metric statistics, outputs.
    pub lines: Vec<String>,
    /// The result line's content.
    pub result: RunResult,
    /// The spans as Chrome trace JSON (traced runs only).
    pub trace_json: Option<String>,
}

/// Checks each day's outputs against the first day's and counts
/// failures.
#[derive(Debug, Default)]
struct Checker {
    reference: Option<DayOutputs>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// Flies one day via `fly`, catching panics; true when the day
    /// succeeded and matched the reference.
    fn day(&mut self, label: &str, fly: impl FnOnce() -> Result<DayOutputs, String>) -> bool {
        self.attempted += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(fly)).unwrap_or_else(|_| Err("panicked".to_string()));
        let problem = match (&outcome, &self.reference) {
            (Err(e), _) => Some(e.clone()),
            (Ok(out), Some(reference)) if out.canonical() != reference.canonical() => {
                Some("outputs differ from the first day's".to_string())
            }
            _ => None,
        };
        if let Some(problem) = problem {
            self.failed += 1;
            self.notes
                .push(format!("{label} {}: {problem}", self.attempted));
            return false;
        }
        if self.reference.is_none() {
            self.reference = outcome.ok();
        }
        true
    }
}

/// Runs set-up `SETUP_REPS` times (once when traced) and fails unless
/// every set-up built the same selection.
fn timed_setups(
    job: &Job,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<(Setup, Vec<f64>, Option<usize>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(Setup, Option<usize>)> = None;
    for _ in 0..reps {
        // Drop the previous set-up first so peak memory is one set-up's.
        let previous = kept.take().map(|(s, _)| s.canonical());
        let start = Instant::now();
        let (setup, root) = tracer.root("setup", |t| set_up(job, t));
        times.push(start.elapsed().as_secs_f64());
        let setup = setup?;
        if previous.is_some_and(|p| p != setup.canonical()) {
            return Err("set-ups built different selections".to_string());
        }
        kept = Some((setup, root));
    }
    let (setup, root) = kept.ok_or("no set-up ran")?;
    Ok((setup, times, root))
}

/// Wall times of the days a run flew.
#[derive(Debug, Default)]
struct Days {
    /// Untraced days that passed the check, seconds.
    untraced_s: Vec<f64>,
    /// Traced days that passed the check, seconds.
    traced_s: Vec<f64>,
    /// Root spans of those traced days.
    traced_roots: Vec<usize>,
    /// Wall time of the whole day loop, seconds.
    loop_s: f64,
}

/// A metric series: its name and every sample a run took of it.
type Series = (&'static str, Vec<f64>);

/// Metric values by name, in the order they are reported.
type Metrics = Vec<(&'static str, f64)>;

fn median_of(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// Runs the benchmark once.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let job = &args.job;
    std::fs::create_dir_all(&args.run_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.run_dir.display()))?;
    let mut tracer = Tracer::new(args.trace);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup, setup_times, setup_root) = timed_setups(job, reps, &mut tracer)?;

    let mut checker = Checker::default();
    let mut days = Days::default();
    let start = Instant::now();
    loop {
        let round = Instant::now();
        if args.trace {
            let (ok, root) = tracer.root("day", |tr| {
                checker.day("traced day", || {
                    setup.fly_day_traced(job, &args.run_dir, tr)
                })
            });
            if ok {
                days.traced_s.push(round.elapsed().as_secs_f64());
                days.traced_roots.extend(root);
            }
        }
        let t = Instant::now();
        if checker.day("day", || setup.fly_day(job, &args.run_dir)) {
            days.untraced_s.push(t.elapsed().as_secs_f64());
        }
        // Stop when another round would overrun the budget.
        if start.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    days.loop_s = start.elapsed().as_secs_f64();
    if args.trace {
        tracer.root("probe", |t| setup.probe_training(job, t));
    }
    let spill = args.run_dir.join("spill");
    if spill.exists() {
        std::fs::remove_dir_all(&spill)
            .map_err(|e| format!("cannot remove {}: {e}", spill.display()))?;
    }

    let dvd = checker.reference.as_ref().map_or(f64::NAN, DayOutputs::dvd);
    let (metrics, series) = match setup_root {
        Some(setup_root) => traced_metrics(&tracer, setup_root, &days, job, dvd)?,
        None => untraced_metrics(&setup_times, &days, job),
    };
    let correct = checker.failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
    let lines = report_lines(
        args,
        setup_times.len(),
        &days,
        &checker,
        &series,
        &metrics,
        dvd,
    );
    Ok(RunReport {
        lines,
        result: RunResult {
            correct,
            attempted: checker.attempted,
            failed: checker.failed,
            metrics,
        },
        trace_json: args.trace.then(|| tracer.to_chrome_json()),
    })
}

/// The end-to-end metrics, and the series they are medians of.
fn untraced_metrics(setup_times: &[f64], days: &Days, job: &Job) -> (Metrics, Vec<Series>) {
    let frames = job.workload.frames_per_day(&job.scale) as f64;
    let rates: Vec<f64> = days.untraced_s.iter().map(|t| frames / t).collect();
    let metrics = vec![
        ("setup_s", median_of(setup_times)),
        ("day_s", median_of(&days.untraced_s)),
        ("frames_per_s", median_of(&rates)),
        ("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN)),
    ];
    let series = vec![
        ("setup_s", setup_times.to_vec()),
        ("day_s", days.untraced_s.clone()),
        ("frames_per_s", rates),
    ];
    (metrics, series)
}

/// The per-layer metrics, in `PER_LAYER` order, and the per-day series
/// the day-layer times are medians of.
fn traced_metrics(
    tracer: &Tracer,
    setup_root: usize,
    days: &Days,
    job: &Job,
    dvd: f64,
) -> Result<(Metrics, Vec<Series>), String> {
    let first_day = *days.traced_roots.first().ok_or("no traced day succeeded")?;
    let mut m: Metrics = Vec::new();
    let mut series: Vec<Series> = Vec::new();
    for name in [
        "geodata.dataset_s",
        "core.transform_s",
        "core.selection_s",
        "cote.space_segment_s",
    ] {
        m.push((name, tracer.layer_s(setup_root, name)));
    }
    for name in ["ml.train_global_s", "core.context_engine_s"] {
        m.push((
            name,
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_s())
                .sum(),
        ));
    }
    for name in [
        "geodata.render_s",
        "core.runtime.bent_pipe_s",
        "core.runtime.direct_s",
        "core.runtime.kodan_s",
        "core.plan.estimate_s",
        "core.plan.plan_s",
        "core.fleet_s",
    ] {
        let samples: Vec<f64> = days
            .traced_roots
            .iter()
            .map(|&r| tracer.layer_s(r, name))
            .collect();
        m.push((name, median_of(&samples)));
        series.push((name, samples));
    }
    let fleet_s = m
        .iter()
        .find(|(n, _)| *n == "core.fleet_s")
        .map_or(0.0, |&(_, v)| v);
    m.push((
        "core.fleet.sat_s",
        fleet_s / job.scale.satellites.max(1) as f64,
    ));
    // Counts repeat exactly on every day (the output check holds the
    // days equal), so the first traced day's stand for all.
    for name in [
        "geodata.frames_rendered",
        "core.runtime.tiles_processed",
        "core.runtime.tiles_elided",
        "core.plan.on_orbit",
        "core.plan.downlink_raw",
        "core.plan.deferred",
        "core.plan.throttled",
        "cote.passes_served",
        "core.fleet.spill_runs",
        "core.fleet.spill_bytes",
        "core.fleet.peak_memtable_bytes",
    ] {
        m.push((name, tracer.count_of(first_day, name)));
    }
    let processed = tracer.count_of(first_day, "core.runtime.tiles_processed");
    let elided = tracer.count_of(first_day, "core.runtime.tiles_elided");
    m.push((
        "core.runtime.elision_frac",
        if processed + elided > 0.0 {
            elided / (processed + elided)
        } else {
            0.0
        },
    ));
    m.push(("sim.dvd", dvd));
    m.push((
        "trace.overhead_frac",
        median_of(&days.traced_s) / median_of(&days.untraced_s) - 1.0,
    ));
    m.push(("trace.setup_coverage_frac", tracer.coverage(setup_root)));
    let coverage: Vec<f64> = days
        .traced_roots
        .iter()
        .map(|&r| tracer.coverage(r))
        .collect();
    m.push(("trace.day_coverage_frac", median_of(&coverage)));
    series.push(("traced day_s", days.traced_s.clone()));
    series.push(("day_s", days.untraced_s.clone()));
    Ok((order_like_table(m), series))
}

/// The human-readable report above the result line.
fn report_lines(
    args: &RunArgs,
    setups: usize,
    days: &Days,
    checker: &Checker,
    series: &[Series],
    metrics: &[(&'static str, f64)],
    dvd: f64,
) -> Vec<String> {
    let job = &args.job;
    let mut lines = vec![
        format!(
            "kodan-perfbench workload {} seed {} trace {} | nproc {} workers {} git {} | {setups} set-up(s), {} day(s) in {:.1} s",
            job.workload.name(),
            job.seed,
            u8::from(args.trace),
            nproc(),
            job.workers,
            git_rev(),
            checker.attempted,
            days.loop_s
        ),
        format!("{:<26} {:>5} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}", "series", "unit", "n", "median", "q1", "q3", "min", "max"),
    ];
    for (name, samples) in series {
        if let Some(s) = Summary::of(samples).filter(|s| s.max > 0.0) {
            let unit = unit_of(name).unwrap_or("s");
            lines.push(format!(
                "{name:<26} {unit:>5} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                s.n, s.median, s.q1, s.q3, s.min, s.max
            ));
        }
    }
    lines.push(format!("{:<32} {:>5} {:>16}", "metric", "unit", "value"));
    for (name, value) in metrics {
        lines.push(format!(
            "{name:<32} {:>5} {value:>16.6}",
            unit_of(name).unwrap_or("")
        ));
    }
    lines.push(format!("{:<32} {:>5} {dvd:>16.6}", "dvd", "frac"));
    lines.push(format!(
        "{:<32} {:>5} {:>16.6}   ({} of {} day(s) failed)",
        "ops_failed_frac",
        "frac",
        checker.failed as f64 / checker.attempted as f64,
        checker.failed,
        checker.attempted
    ));
    if let Some(reference) = &checker.reference {
        lines.extend(reference.describe().into_iter().map(|l| format!("  {l}")));
        lines.push(format!(
            "outputs digest {:016x}",
            fnv1a(reference.canonical().as_bytes())
        ));
    }
    lines.extend(checker.notes.iter().map(|n| format!("FAILED {n}")));
    lines
}

/// Puts traced metrics in `PER_LAYER` order.
fn order_like_table(mut m: Metrics) -> Metrics {
    let rank = |name: &str| {
        crate::metrics::PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .unwrap_or(usize::MAX)
    };
    m.sort_by_key(|(name, _)| rank(name));
    m
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head),
    });
    rev.map_or_else(|| "unknown".to_string(), |r| r.chars().take(12).collect())
}
