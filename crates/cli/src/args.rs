//! Flag parsing for the `kodan` CLI. Hand-rolled on purpose: the
//! sanctioned dependency set has no argument parser, and the surface is
//! a handful of flags.

use kodan_hw::power::EnergyBudget;
use kodan_hw::HwTarget;
use kodan_ml::ModelArch;

/// Power-system profile selected with `--energy` for the execution
/// planner's energy budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyProfile {
    /// 3U CubeSat class (tight, ~17 W orbit-average harvest).
    Cubesat3u,
    /// Smallsat class (roomy, ~200 W orbit-average harvest).
    Smallsat,
}

impl EnergyProfile {
    /// The `kodan-hw` energy budget this profile names.
    pub fn budget(self) -> EnergyBudget {
        match self {
            EnergyProfile::Cubesat3u => EnergyBudget::cubesat_3u(),
            EnergyProfile::Smallsat => EnergyBudget::smallsat(),
        }
    }
}

impl std::fmt::Display for EnergyProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnergyProfile::Cubesat3u => f.write_str("cubesat"),
            EnergyProfile::Smallsat => f.write_str("smallsat"),
        }
    }
}

/// Parsed command-line options with defaults applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Application number 1-7 (Table 1).
    pub app: ModelArch,
    /// Deployment target.
    pub target: HwTarget,
    /// Master seed.
    pub seed: u64,
    /// Representative-dataset frame count.
    pub frames: usize,
    /// Context count for automatic generation.
    pub contexts: usize,
    /// Use expert (surface-type) contexts instead of k-means.
    pub expert: bool,
    /// Save i16/i32 quantized companion blobs beside every model slot
    /// when `--save-artifacts` writes the store; loaded missions then
    /// fly the fixed-point fast path.
    pub quantize: bool,
    /// Constellation size for environment derivation.
    pub sats: usize,
    /// Constellation size flown by `fleet` (every satellite simulated,
    /// not just the shared environment).
    pub satellites: usize,
    /// Memtable byte budget of the fleet spill combiner.
    pub memtable_budget: u64,
    /// Write a telemetry snapshot (byte-deterministic JSON) to this path.
    pub telemetry: Option<String>,
    /// Worker threads for frame processing and training (0 = auto).
    pub workers: usize,
    /// Path to a `key = value` fault-plan file (see `kodan-faults`).
    pub faults: Option<String>,
    /// Seed for the built-in nominal fault plan (ignored when `--faults`
    /// supplies a file).
    pub fault_seed: Option<u64>,
    /// Save the deployable artifact set (config, contexts, engine,
    /// models, selection logic) into this directory after `transform`.
    pub save_artifacts: Option<String>,
    /// Load the deployable artifact set from this directory for
    /// `mission`, skipping the ground-side transformation entirely.
    pub load_artifacts: Option<String>,
    /// Output path for `trace` (Chrome trace-event JSON) and for the
    /// `health` JSON report. Defaults to stdout / text-only.
    pub out: Option<String>,
    /// Path to a health-rule file for `health` (one
    /// `metric <= threshold` / `metric >= threshold` rule per line);
    /// defaults to the built-in rule set.
    pub rules: Option<String>,
    /// Evaluate `health` against a previously written telemetry
    /// snapshot instead of flying a mission.
    pub snapshot: Option<String>,
    /// Write the flight recorder's black-box log (JSON) to this path
    /// after `mission` or `health`.
    pub blackbox: Option<String>,
    /// Fly `fleet` under the execution planner (per-satellite per-frame
    /// placement); `plan` itself always plans.
    pub plan: bool,
    /// Power-system profile for the planner's energy budget.
    pub energy: EnergyProfile,
    /// Ground-contact passes the planner spreads the day's downlink
    /// capacity over.
    pub contact_passes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            app: ModelArch::ResNet50DilatedPpm,
            target: HwTarget::OrinAgx15W,
            seed: 42,
            frames: 32,
            contexts: 6,
            expert: false,
            quantize: false,
            sats: 1,
            satellites: 24,
            memtable_budget: 8192,
            telemetry: None,
            workers: 0,
            faults: None,
            fault_seed: None,
            save_artifacts: None,
            load_artifacts: None,
            out: None,
            rules: None,
            snapshot: None,
            blackbox: None,
            plan: false,
            energy: EnergyProfile::Cubesat3u,
            contact_passes: 4,
        }
    }
}

impl Options {
    /// Parses `--flag value` pairs (and the bare `--expert` switch).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--expert" => options.expert = true,
                "--quantize" => options.quantize = true,
                "--plan" => options.plan = true,
                "--energy" => {
                    let v: String = next_value(&mut iter, flag)?;
                    options.energy = match v.to_lowercase().as_str() {
                        "cubesat" | "cubesat3u" | "3u" => EnergyProfile::Cubesat3u,
                        "smallsat" => EnergyProfile::Smallsat,
                        other => return Err(format!("unknown energy profile `{other}`")),
                    };
                }
                "--contacts" => options.contact_passes = next_value(&mut iter, flag)?,
                "--app" => {
                    let v: usize = next_value(&mut iter, flag)?;
                    options.app = *ModelArch::ALL
                        .get(v.wrapping_sub(1))
                        .ok_or_else(|| format!("--app must be 1..=7, got {v}"))?;
                }
                "--target" => {
                    let v: String = next_value(&mut iter, flag)?;
                    options.target = match v.to_lowercase().as_str() {
                        "orin" | "orin15w" => HwTarget::OrinAgx15W,
                        "i7" | "i7-7800" | "cpu" => HwTarget::CoreI7_7800X,
                        "1070ti" | "gtx1070ti" | "gpu" => HwTarget::Gtx1070Ti,
                        other => return Err(format!("unknown target `{other}`")),
                    };
                }
                "--seed" => options.seed = next_value(&mut iter, flag)?,
                "--frames" => options.frames = next_value(&mut iter, flag)?,
                "--contexts" => options.contexts = next_value(&mut iter, flag)?,
                "--sats" => options.sats = next_value(&mut iter, flag)?,
                "--satellites" => options.satellites = next_value(&mut iter, flag)?,
                "--memtable-budget" => {
                    options.memtable_budget = next_value(&mut iter, flag)?;
                }
                "--telemetry" => options.telemetry = Some(next_value(&mut iter, flag)?),
                "--workers" => options.workers = next_value(&mut iter, flag)?,
                "--faults" => options.faults = Some(next_value(&mut iter, flag)?),
                "--fault-seed" => options.fault_seed = Some(next_value(&mut iter, flag)?),
                "--save-artifacts" => {
                    options.save_artifacts = Some(next_value(&mut iter, flag)?);
                }
                "--load-artifacts" => {
                    options.load_artifacts = Some(next_value(&mut iter, flag)?);
                }
                "--out" => options.out = Some(next_value(&mut iter, flag)?),
                "--rules" => options.rules = Some(next_value(&mut iter, flag)?),
                "--snapshot" => options.snapshot = Some(next_value(&mut iter, flag)?),
                "--blackbox" => options.blackbox = Some(next_value(&mut iter, flag)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        // Each count's cap sits far above its default and every documented
        // value, so an oversized count exits 1 here instead of aborting on
        // allocation later.
        for (flag, value, cap) in [
            ("--frames", options.frames as u64, 100_000),
            ("--contexts", options.contexts as u64, 1_000),
            ("--sats", options.sats as u64, 10_000),
            ("--satellites", options.satellites as u64, 10_000),
            ("--memtable-budget", options.memtable_budget, 1 << 30),
            ("--contacts", options.contact_passes as u64, 10_000),
        ] {
            if value == 0 {
                return Err(format!("{flag} must be positive"));
            }
            if value > cap {
                return Err(format!("{flag} must be at most {cap}, got {value}"));
            }
        }
        Ok(options)
    }
}

fn next_value<T: std::str::FromStr>(
    iter: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let raw = iter
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&[
            "--app", "7", "--target", "gpu", "--seed", "9", "--frames", "16",
            "--contexts", "4", "--expert", "--quantize", "--sats", "8",
            "--satellites", "12", "--memtable-budget", "4096",
            "--telemetry", "out.json",
            "--workers", "4", "--faults", "plan.txt", "--fault-seed", "13",
            "--save-artifacts", "art/", "--load-artifacts", "art2/",
            "--out", "trace.json", "--rules", "rules.txt",
            "--snapshot", "snap.json", "--blackbox", "bb.json",
            "--plan", "--energy", "smallsat", "--contacts", "6",
        ])
        .unwrap();
        assert_eq!(o.app, ModelArch::ResNet101DilatedPpm);
        assert_eq!(o.target, HwTarget::Gtx1070Ti);
        assert_eq!(o.seed, 9);
        assert_eq!(o.frames, 16);
        assert_eq!(o.contexts, 4);
        assert!(o.expert);
        assert!(o.quantize);
        assert_eq!(o.sats, 8);
        assert_eq!(o.satellites, 12);
        assert_eq!(o.memtable_budget, 4096);
        assert_eq!(o.telemetry.as_deref(), Some("out.json"));
        assert_eq!(o.workers, 4);
        assert_eq!(o.faults.as_deref(), Some("plan.txt"));
        assert_eq!(o.fault_seed, Some(13));
        assert_eq!(o.save_artifacts.as_deref(), Some("art/"));
        assert_eq!(o.load_artifacts.as_deref(), Some("art2/"));
        assert_eq!(o.out.as_deref(), Some("trace.json"));
        assert_eq!(o.rules.as_deref(), Some("rules.txt"));
        assert_eq!(o.snapshot.as_deref(), Some("snap.json"));
        assert_eq!(o.blackbox.as_deref(), Some("bb.json"));
        assert!(o.plan);
        assert_eq!(o.energy, EnergyProfile::Smallsat);
        assert_eq!(o.contact_passes, 6);
    }

    #[test]
    fn observability_flags_default_off_and_require_paths() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.out, None);
        assert_eq!(o.rules, None);
        assert_eq!(o.snapshot, None);
        assert_eq!(o.blackbox, None);
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--rules"]).is_err());
        assert!(parse(&["--snapshot"]).is_err());
        assert!(parse(&["--blackbox"]).is_err());
    }

    #[test]
    fn artifact_flags_default_off_and_require_paths() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.save_artifacts, None);
        assert_eq!(o.load_artifacts, None);
        assert!(!o.quantize);
        assert!(parse(&["--save-artifacts"]).is_err());
        assert!(parse(&["--load-artifacts"]).is_err());
    }

    #[test]
    fn fault_flags_default_off_and_validate() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.faults, None);
        assert_eq!(o.fault_seed, None);
        assert!(parse(&["--faults"]).is_err());
        assert!(parse(&["--fault-seed", "banana"]).is_err());
        assert_eq!(parse(&["--fault-seed", "7"]).unwrap().fault_seed, Some(7));
    }

    #[test]
    fn workers_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().workers, 0);
        assert_eq!(parse(&["--workers", "2"]).unwrap().workers, 2);
    }

    #[test]
    fn telemetry_flag_requires_a_path() {
        assert!(parse(&["--telemetry"]).is_err());
        assert_eq!(parse(&[]).unwrap().telemetry, None);
    }

    #[test]
    fn target_aliases() {
        assert_eq!(parse(&["--target", "orin"]).unwrap().target, HwTarget::OrinAgx15W);
        assert_eq!(parse(&["--target", "i7"]).unwrap().target, HwTarget::CoreI7_7800X);
        assert_eq!(parse(&["--target", "1070ti"]).unwrap().target, HwTarget::Gtx1070Ti);
    }

    #[test]
    fn fleet_flags_default_and_validate() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.satellites, 24);
        assert_eq!(o.memtable_budget, 8192);
        assert!(parse(&["--satellites", "0"]).is_err());
        assert!(parse(&["--memtable-budget", "0"]).is_err());
        assert!(parse(&["--memtable-budget", "lots"]).is_err());
    }

    #[test]
    fn plan_flags_default_and_validate() {
        let o = parse(&[]).unwrap();
        assert!(!o.plan);
        assert_eq!(o.energy, EnergyProfile::Cubesat3u);
        assert_eq!(o.contact_passes, 4);
        assert_eq!(
            parse(&["--energy", "smallsat"]).unwrap().energy,
            EnergyProfile::Smallsat
        );
        assert_eq!(
            parse(&["--energy", "CubeSat"]).unwrap().energy,
            EnergyProfile::Cubesat3u
        );
        assert!(parse(&["--energy", "rtg"]).is_err());
        assert!(parse(&["--energy"]).is_err());
        assert!(parse(&["--contacts", "0"]).is_err());
        assert!(parse(&["--contacts", "many"]).is_err());
    }

    #[test]
    fn plan_composes_with_fleet_and_worker_flags() {
        let o = parse(&[
            "--plan",
            "--satellites",
            "6",
            "--workers",
            "2",
            "--energy",
            "smallsat",
            "--contacts",
            "8",
            "--memtable-budget",
            "2048",
        ])
        .unwrap();
        assert!(o.plan);
        assert_eq!(o.satellites, 6);
        assert_eq!(o.workers, 2);
        assert_eq!(o.energy, EnergyProfile::Smallsat);
        assert_eq!(o.contact_passes, 8);
        assert_eq!(o.memtable_budget, 2048);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--app", "0"]).is_err());
        assert!(parse(&["--app", "8"]).is_err());
        assert!(parse(&["--target", "tpu"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frames", "0"]).is_err());
        assert!(parse(&["--frames", "100000"]).is_ok());
        assert!(parse(&["--frames", "100001"]).is_err());
        assert!(parse(&["--workers", "many"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
