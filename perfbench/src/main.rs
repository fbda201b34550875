//! Command-line entry point of the benchmark.

use kodan_perfbench::run::{nproc, run, RunArgs};
use kodan_perfbench::workload::{Job, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: kodan-perfbench --workload mission_day|planned_day|fleet_day \
                     [--seed N (42)] [--seconds S (30)] [--trace 0|1 (0)]";

/// Run outputs (fleet spill store, traces) go here, under the directory
/// the benchmark runs from.
const RUN_DIR: &str = ".perfbench";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42, 30.0, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        job: Job {
            workload,
            seed,
            scale: Scale::FULL,
            workers: nproc(),
        },
        seconds,
        trace,
        run_dir: PathBuf::from(RUN_DIR),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(json) = &report.trace_json {
        let path = args.run_dir.join(format!(
            "trace-{}-seed{}.json",
            args.job.workload.name(),
            args.job.seed
        ));
        match std::fs::write(&path, json) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result.to_json());
    ExitCode::SUCCESS
}
