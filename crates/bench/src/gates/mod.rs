//! The gate runner behind the `gates` binary: five sections, each
//! returning its report body and recording its checks as
//! [`Gate`](crate::harness::Gate)s, folded into one `nbwp-bench/v1`
//! envelope whose exit code is the only CI signal.
//!
//! | section   | what it gates |
//! |-----------|---------------|
//! | `profile` | scratch-arena profile builds: bitwise parity, zero steady-state allocation, throughput vs the pre-arena builders |
//! | `eval`    | candidate pricing: profile ≡ direct, analytic and k-way argmin parity, eval ratios, one-build sensitivity sweeps |
//! | `search`  | thread scaling: simulated results identical at 1/2/4/8 workers, a multi-core speedup |
//! | `serve`   | amortized serving: exact hit ≡ cold, batch ≡ cold, audited ≡ silent, warm speedup, audit overhead, warm k-way |
//! | `drift`   | incremental drift: patch ≡ rebuild, chained fingerprints, serve regret, adaptive crossover, patched vs cold |

pub mod drift;
pub mod eval;
pub mod profile;
pub mod search;
pub mod serve;

use std::path::PathBuf;

use serde::{Serialize, Value};

use crate::harness::{available_parallelism, Gate, Gates};

/// The envelope schema tag.
pub const SCHEMA: &str = "nbwp-bench/v1";

/// Skip reason of the wall-clock gates under `--quick`.
pub const QUICK_SKIP: &str = "wall-clock gates are skipped in --quick mode";

/// A section: runs its harness, records its gates, returns its body.
pub type Section = fn(&Config, &mut Gates) -> Value;

/// Every section, in run order.
pub const SECTIONS: [(&str, Section); 5] = [
    ("profile", profile::run),
    ("eval", eval::run),
    ("search", search::run),
    ("serve", serve::run),
    ("drift", drift::run),
];

/// Usage line of the `gates` binary.
pub const USAGE: &str = "usage: gates [--quick] [--out path] [--seed u64] [--audit-out path] \
                         [profile|eval|search|serve|drift ...]";

/// Parsed command line of the `gates` binary.
#[derive(Clone, Debug)]
pub struct Config {
    /// Quick mode: smaller inputs, wall-clock gates skipped.
    pub quick: bool,
    /// Report output path.
    pub out: PathBuf,
    /// Input-generation seed.
    pub seed: u64,
    /// Where the serve section writes its analytic pipeline's audit log.
    pub audit_out: PathBuf,
    /// Sections to run, in run order (all of them when none is named).
    pub sections: Vec<&'static str>,
}

impl Config {
    /// Parses the arguments after the program name; `Ok(None)` on `--help`.
    ///
    /// # Errors
    /// Returns a message on an unknown flag or section, or a missing or
    /// malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut cfg = Config {
            quick: false,
            out: PathBuf::from("BENCH_gates.json"),
            seed: 42,
            audit_out: PathBuf::from("BENCH_serve_audit.jsonl"),
            sections: Vec::new(),
        };
        let mut named = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--out" => cfg.out = PathBuf::from(value()?),
                "--audit-out" => cfg.audit_out = PathBuf::from(value()?),
                "--seed" => {
                    cfg.seed = value()?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?;
                }
                "--help" | "-h" => return Ok(None),
                section => match SECTIONS.iter().find(|(name, _)| *name == section) {
                    Some(&(name, _)) => named.push(name),
                    None => return Err(format!("unknown argument {section}")),
                },
            }
        }
        cfg.sections = SECTIONS
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| named.is_empty() || named.contains(name))
            .collect();
        Ok(Some(cfg))
    }
}

/// The `nbwp-bench/v1` envelope.
#[derive(Serialize)]
pub struct Report {
    /// Always [`SCHEMA`].
    pub schema: &'static str,
    /// Whether the run was `--quick`.
    pub quick: bool,
    /// Input-generation seed.
    pub seed: u64,
    /// Hardware threads available to the run.
    pub available_parallelism: usize,
    /// No enforced gate failed.
    pub ok: bool,
    /// Labels of the enforced gates that failed.
    pub violations: Vec<String>,
    /// Every gate of every section, in run order.
    pub gates: Vec<Gate>,
    /// Section name → report body.
    pub sections: Value,
}

impl Report {
    /// Folds per-section `(name, body, gates)` into the envelope.
    #[must_use]
    pub fn new(cfg: &Config, sections: Vec<(&str, Value, Vec<Gate>)>) -> Self {
        let mut bodies = Vec::new();
        let mut gates = Vec::new();
        for (name, body, section_gates) in sections {
            bodies.push((name.to_string(), body));
            gates.extend(section_gates);
        }
        let violations: Vec<String> = gates
            .iter()
            .filter(|g| g.violated())
            .map(|g| g.label.clone())
            .collect();
        Report {
            schema: SCHEMA,
            quick: cfg.quick,
            seed: cfg.seed,
            available_parallelism: available_parallelism(),
            ok: violations.is_empty(),
            violations,
            gates,
            sections: Value::Object(bodies),
        }
    }

    /// The process exit code: 0 when [`Report::ok`], else 1.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.ok)
    }
}

/// Runs the configured sections in order and folds them into the envelope.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    let sections = SECTIONS
        .iter()
        .filter(|(name, _)| cfg.sections.contains(name))
        .map(|&(name, section)| {
            let mode = if cfg.quick { "quick" } else { "full" };
            eprintln!("== {name} ({mode} mode, seed {})", cfg.seed);
            let mut gates = Gates::new(name);
            let body = section(cfg, &mut gates);
            (name, body, gates.into_vec())
        })
        .collect();
    Report::new(cfg, sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Config>, String> {
        Config::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_flags_and_sections_in_run_order() {
        let cfg = parse(&[]).unwrap().unwrap();
        assert!(!cfg.quick && cfg.seed == 42);
        assert_eq!(cfg.out, PathBuf::from("BENCH_gates.json"));
        assert_eq!(cfg.audit_out, PathBuf::from("BENCH_serve_audit.jsonl"));
        assert_eq!(
            cfg.sections,
            ["profile", "eval", "search", "serve", "drift"]
        );

        let cfg = parse(&["drift", "--quick", "--seed", "7", "--out", "x.json", "eval"])
            .unwrap()
            .unwrap();
        assert!(cfg.quick && cfg.seed == 7);
        assert_eq!(cfg.out, PathBuf::from("x.json"));
        assert_eq!(cfg.sections, ["eval", "drift"]);

        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["bogus"]).unwrap_err().contains("bogus"));
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("integer"));
        assert!(parse(&["--out"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn a_failing_enforced_gate_flips_ok_and_the_exit_code() {
        let cfg = parse(&["--quick"]).unwrap().unwrap();
        let mut a = Gates::new("a");
        a.min("speedup", 3.0, 2.0);
        a.max("wall", 9.0, 1.0).skip_if(true, QUICK_SKIP);
        let clean = Report::new(&cfg, vec![("a", Value::Null, a.into_vec())]);
        assert!(clean.ok && clean.violations.is_empty() && clean.exit_code() == 0);

        let mut b = Gates::new("b");
        b.check("parity", false);
        let failed = Report::new(&cfg, vec![("b", Value::Null, b.into_vec())]);
        assert!(!failed.ok && failed.exit_code() != 0);
        assert_eq!(failed.violations, ["b.parity"]);
        assert_eq!(failed.schema, SCHEMA);
        assert!(failed.sections.get("b").is_some());
    }
}
