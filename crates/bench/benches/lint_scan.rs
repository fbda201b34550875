//! Full-workspace lint analysis wall time.
//!
//! The lint gate runs the whole analyzer — line rules, item parsing,
//! call-graph construction and the interprocedural passes — on every
//! `cargo test`, so its cost is paid on each tier-1 run. This bench
//! measures one full-workspace analysis, checks it against the 2-second
//! budget that keeps the gate tolerable, and writes
//! `BENCH_lint_scan.json` at the repo root.

use kodan_bench::harness::{time, write_baseline, Protocol};
use kodan_lint::{analyze, default_rules};
use std::path::PathBuf;

/// A scan is ~50 ms: 9 samples of one scan each.
const PROTOCOL: Protocol = Protocol::timed(9, 1);

/// The gate budget a scan must stay within.
const BUDGET_S: f64 = 2.0;

fn main() {
    kodan_bench::banner(
        "Lint scan: full-workspace interprocedural analysis",
        "line rules + item parse + call graph + reachability passes over every workspace crate",
    );
    let root: PathBuf = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let rules = default_rules();

    let analysis = analyze(&root, &rules).expect("workspace scan succeeds");
    assert!(
        analysis.report.is_clean(),
        "bench expects a lint-clean workspace; run `kodan-lint check` first"
    );

    let scan_t = time(PROTOCOL, || analyze(&root, &rules).expect("scan succeeds"));
    let scan_s = scan_t.median;

    let files = analysis.report.files_scanned;
    let nodes = analysis.graph.nodes.len();
    let edges: usize = analysis.graph.edges.iter().map(Vec::len).sum();
    let entries = analysis.graph.nodes.iter().filter(|n| n.entry).count();

    write_baseline("lint_scan", "seconds_per_scan", PROTOCOL, |w| {
        scan_t.write(w, "scan_s");
        w.float(Some("budget_s"), BUDGET_S);
        w.uint(Some("files_scanned"), files as u64);
        w.uint(Some("graph_nodes"), nodes as u64);
        w.uint(Some("graph_edges"), edges as u64);
        w.uint(Some("entry_points"), entries as u64);
        w.uint(Some("diagnostics"), analysis.report.diagnostics.len() as u64);
        w.string(
            Some("note"),
            "one full-workspace kodan-lint analysis (line rules, item parse, call graph, \
             reachability passes); the lint gate pays this on every tier-1 test run, so it must \
             stay within budget",
        );
    });
    println!();
    println!(
        "full-workspace scan {scan_s:.3} s over {files} files ({nodes} graph nodes, {edges} edges, {entries} entry points)"
    );
    assert!(
        scan_s < BUDGET_S,
        "workspace scan took {scan_s:.3} s, over the {BUDGET_S:.1} s gate budget"
    );
}
