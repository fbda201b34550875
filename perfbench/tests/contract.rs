//! The benchmark against its contract: `BENCHMARK.json` and the code
//! name the same workloads and metrics, a reduced run of every workload
//! emits every listed metric, and the benchmark's sources stay inside
//! the repository's determinism and thread-discipline rules.

use kodan_perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use kodan_perfbench::run::{run, RunArgs};
use kodan_perfbench::workload::{Job, Scale, Workload};
use kodan_telemetry::parse::{parse_json, JsonValue};
use std::path::{Path, PathBuf};

const PACKAGE: &str = env!("CARGO_MANIFEST_DIR");

fn benchmark_json() -> JsonValue {
    let path = Path::new(PACKAGE).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn listed(key: &str) -> Vec<(String, Option<String>)> {
    benchmark_json()
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_string);
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, Option<String>)> {
    defs.iter()
        .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
        .collect()
}

#[test]
fn benchmark_json_lists_the_codes_workloads_and_metrics() {
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    for (name, _) in listed("workloads")
        .into_iter()
        .chain(listed("end_to_end"))
        .chain(listed("per_layer"))
    {
        assert!(valid_name(&name), "{name}");
    }
}

fn smoke(workload: Workload, trace: bool) {
    let run_dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let args = RunArgs {
        job: Job {
            workload,
            seed: 42,
            scale: Scale::SMOKE,
            workers: 2,
        },
        seconds: 0.0,
        trace,
        run_dir,
    };
    let report = run(&args).expect("the reduced run completes");
    let result = &report.result;
    assert!(result.correct, "{}", report.lines.join("\n"));
    assert_eq!(
        (result.attempted, result.failed),
        (if trace { 2 } else { 1 }, 0)
    );
    let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<String> = listed(if trace { "per_layer" } else { "end_to_end" })
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(emitted, expected);
    assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
    assert!(
        !args.run_dir.join("spill").exists(),
        "the spill store is removed"
    );
    let line = parse_json(&result.to_json()).expect("the result line is JSON");
    assert!(line
        .get("metrics")
        .and_then(JsonValue::as_object)
        .is_some_and(|m| m.len() == expected.len()));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        smoke(workload, false);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in Workload::ALL {
        smoke(workload, true);
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir)
        .expect("source directory is readable")
        .flatten()
    {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn sources_stay_inside_the_lint_gate() {
    // Built from pieces so this file does not match itself.
    let banned = [
        ["Hash", "Map"].concat(),
        ["Hash", "Set"].concat(),
        ["thread::", "spawn"].concat(),
        ["thread::", "scope"].concat(),
        ["cross", "beam"].concat(),
    ];
    let mut files = Vec::new();
    for dir in ["src", "tests"] {
        rust_sources(&Path::new(PACKAGE).join(dir), &mut files);
    }
    assert!(files.len() >= 6, "found the sources: {files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source is readable");
        for word in &banned {
            assert!(
                !text.contains(word.as_str()),
                "{} uses {word}",
                file.display()
            );
        }
    }
}
