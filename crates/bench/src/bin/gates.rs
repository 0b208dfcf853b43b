//! `gates` — the gate runner: every bitwise-parity, ratio and shape check
//! of the bench harnesses, run once and reported in one `nbwp-bench/v1`
//! envelope (`BENCH_gates.json`). The exit code is the CI signal: 0 when
//! every enforced gate passed, 1 otherwise, 2 on a usage error.
//!
//! Usage: `gates [--quick] [--out <path>] [--seed <u64>] [--audit-out <path>]
//! [profile|eval|search|serve|drift ...]` (all sections when none is named).

use nbwp_bench::gates::{self, Config, USAGE};

fn main() {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            eprintln!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("gates: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = gates::run(&cfg);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&cfg.out, json + "\n").expect("failed to write report");
    eprintln!("wrote {}", cfg.out.display());
    for g in report.gates.iter().filter(|g| !g.passed) {
        let status = g.skipped.as_deref().unwrap_or("FAILED");
        eprintln!(
            "  {}: measured {} vs {} {} ({status})",
            g.label, g.measured, g.direction, g.required
        );
    }
    eprintln!(
        "{} of {} gates enforced; {}",
        report.gates.iter().filter(|g| g.enforced).count(),
        report.gates.len(),
        if report.ok {
            "all passed".to_string()
        } else {
            format!("GATE VIOLATIONS: {}", report.violations.join(", "))
        }
    );
    std::process::exit(report.exit_code());
}
