//! The one timing protocol and the one baseline writer every bench
//! target shares. [`time`] summarizes per-sample mean seconds per call
//! by median, quartiles (the exclusive method of Python's
//! `statistics.quantiles`, as `perfbench` uses) and extremes;
//! [`write_baseline`] gives every `BENCH_<bench>.json` one header: the
//! bench, its unit, the [`Protocol`] and the host.

use kodan_telemetry::json::JsonWriter;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untimed calls before the first sample of a timed bench.
const WARMUP: u32 = 1;

/// How a bench measured its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Untimed calls before the first sample.
    warmup: u32,
    /// Timed samples (at least one).
    samples: u32,
    /// Calls per sample (at least one).
    reps: u32,
    /// What each reported figure is.
    statistic: &'static str,
}

impl Protocol {
    /// The timing protocol: [`WARMUP`] calls, then `samples` samples of
    /// `reps` calls, reported as the median of the per-sample means.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in a `const`) if `samples` or `reps` is 0.
    pub const fn timed(samples: u32, reps: u32) -> Protocol {
        assert!(samples > 0 && reps > 0, "a timed protocol needs samples and reps");
        Protocol {
            warmup: WARMUP,
            samples,
            reps,
            statistic: "median of per-sample mean seconds per call",
        }
    }

    /// A bench that times nothing: its results are deterministic
    /// simulation outputs from one run.
    pub const UNTIMED: Protocol = Protocol {
        warmup: 0,
        samples: 1,
        reps: 1,
        statistic: "deterministic outputs of one run, not timed",
    };
}

/// Order statistics of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Middle sample (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Timing {
    /// Summarizes non-empty `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Timing {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (min, max) = (sorted[0], sorted[n - 1]);
        // The exclusive method's second quartile is the median. Negative
        // `delta` (the clamp moved `j` up) extrapolates, as in Python.
        let [q1, median, q3] = [1, 2, 3].map(|i| {
            if n == 1 {
                return min;
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        });
        Timing { median, q1, q3, min, max }
    }

    /// Writes the median under `key` and the spread under
    /// `<key>_spread`, in seconds rounded to the nanosecond.
    pub fn write(&self, w: &mut JsonWriter, key: &str) {
        let ns = |v: f64| (v * 1e9).round() / 1e9;
        w.float(Some(key), ns(self.median));
        w.open_object(Some(&format!("{key}_spread")));
        for (name, v) in [("q1", self.q1), ("q3", self.q3), ("min", self.min), ("max", self.max)] {
            w.float(Some(name), ns(v));
        }
        w.close_object();
    }
}

/// Times `body` under `protocol`: the seconds per call of each sample,
/// summarized.
pub fn time<R>(protocol: Protocol, mut body: impl FnMut() -> R) -> Timing {
    for _ in 0..protocol.warmup {
        black_box(body());
    }
    let means: Vec<f64> = (0..protocol.samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..protocol.reps {
                black_box(body());
            }
            start.elapsed().as_secs_f64() / f64::from(protocol.reps)
        })
        .collect();
    Timing::of(&means)
}

/// Hardware threads available to this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The short git revision of the checkout, or `"unknown"` outside git.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a baseline to `path`: the shared header, then whatever `body`
/// writes into the root object.
pub fn write_baseline_to(
    path: &Path,
    bench: &str,
    unit: &str,
    protocol: Protocol,
    body: impl FnOnce(&mut JsonWriter),
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.open_object(None);
    w.string(Some("bench"), bench);
    w.string(Some("unit"), unit);
    w.open_object(Some("protocol"));
    w.uint(Some("warmup"), u64::from(protocol.warmup));
    w.uint(Some("samples"), u64::from(protocol.samples));
    w.uint(Some("reps"), u64::from(protocol.reps));
    w.string(Some("statistic"), protocol.statistic);
    w.close_object();
    w.open_object(Some("host"));
    w.uint(Some("available_parallelism"), available_parallelism() as u64);
    w.string(Some("git_rev"), &git_rev());
    w.close_object();
    body(&mut w);
    w.close_object();
    std::fs::write(path, w.finish())
}

/// Writes `BENCH_<bench>.json` at the workspace root (see
/// [`write_baseline_to`]).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_baseline(bench: &str, unit: &str, protocol: Protocol, body: impl FnOnce(&mut JsonWriter)) {
    let name = format!("BENCH_{bench}.json");
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", &name].iter().collect();
    if let Err(e) = write_baseline_to(&path, bench, unit, protocol, body) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("baseline written to {name}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_telemetry::parse::parse_json;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let t = Timing::of(&ten);
        assert_eq!([t.q1, t.median, t.q3], [2.75, 5.5, 8.25]);
        assert_eq!([t.min, t.max], [1.0, 10.0]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let t = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!([t.q1, t.median, t.q3], [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let t = Timing::of(&[2.0, 1.0]);
        assert_eq!([t.q1, t.median, t.q3], [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 9, 10], n=4) == [1.5, 4.0, 9.5]
        let t = Timing::of(&[9.0, 1.0, 10.0, 4.0, 2.0]);
        assert_eq!([t.q1, t.median, t.q3], [1.5, 4.0, 9.5]);
        let t = Timing::of(&[4.0]);
        assert_eq!([t.q1, t.median, t.q3, t.min, t.max], [4.0; 5]);
    }

    #[test]
    fn time_runs_warmup_then_every_sample() {
        let mut calls = 0u32;
        let t = time(Protocol::timed(3, 4), || calls += 1);
        assert_eq!(calls, WARMUP + 3 * 4);
        assert!(t.min >= 0.0 && t.min <= t.q1 && t.q1 <= t.median);
        assert!(t.median <= t.q3 && t.q3 <= t.max);
    }

    #[test]
    fn baselines_carry_the_shared_header() {
        let dir = std::env::temp_dir().join(format!("kodan-bench-writer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("BENCH_probe.json");
        let timing = Timing::of(&[0.5, 0.25, 1.0]);
        write_baseline_to(&path, "probe", "seconds_per_call", Protocol::timed(5, 2), |w| {
            timing.write(w, "probe_s");
            w.bool(Some("ok"), true);
        })
        .expect("write baseline");
        let text = std::fs::read_to_string(&path).expect("read baseline");
        std::fs::remove_dir_all(&dir).ok();

        let doc = parse_json(&text).expect("baseline parses");
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some("probe"));
        assert_eq!(doc.get("unit").and_then(|v| v.as_str()), Some("seconds_per_call"));
        let protocol = doc.get("protocol").expect("protocol block");
        assert_eq!(protocol.get("warmup").and_then(|v| v.as_u64()), Some(u64::from(WARMUP)));
        assert_eq!(protocol.get("samples").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(protocol.get("reps").and_then(|v| v.as_u64()), Some(2));
        assert!(protocol.get("statistic").and_then(|v| v.as_str()).is_some());
        let host = doc.get("host").expect("host block");
        assert_eq!(
            host.get("available_parallelism").and_then(|v| v.as_u64()),
            Some(available_parallelism() as u64)
        );
        let rev = host.get("git_rev").and_then(|v| v.as_str()).expect("git_rev");
        assert!(!rev.is_empty());
        assert_eq!(doc.get("probe_s").and_then(|v| v.as_f64()), Some(0.5));
        let spread = doc.get("probe_s_spread").expect("spread block");
        assert_eq!(spread.get("min").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(spread.get("max").and_then(|v| v.as_f64()), Some(1.0));
        assert!(matches!(doc.get("ok"), Some(kodan_telemetry::parse::JsonValue::Bool(true))));
    }

    #[test]
    fn committed_baselines_share_the_header() {
        for bench in [
            "artifact_cache",
            "fault_resilience",
            "fleet_streaming",
            "lint_scan",
            "parallel_speedup",
            "quantized_inference",
            "telemetry_overhead",
        ] {
            let name = format!("BENCH_{bench}.json");
            let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", &name].iter().collect();
            let text = std::fs::read_to_string(&path).expect("committed baseline exists");
            let doc = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let keys: Vec<&str> = doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys[..4], ["bench", "unit", "protocol", "host"], "{name}");
            assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some(bench));
            for key in ["warmup", "samples", "reps"] {
                assert!(doc.get("protocol").and_then(|p| p.get(key)).and_then(|v| v.as_u64()).is_some(), "{name}: {key}");
            }
            assert!(doc.get("host").and_then(|h| h.get("git_rev")).is_some(), "{name}");
        }
    }
}
