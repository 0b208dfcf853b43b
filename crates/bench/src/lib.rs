//! # nbwp-bench — harnesses regenerating the paper's tables and figures
//!
//! One binary per artifact (see `DESIGN.md`'s experiment index):
//! `table1`, `table2`, `fig1`, `fig3` … `fig9`. Each accepts
//! `--scale <f>` (dataset scale, default 0.02), `--seed <u64>`, and
//! `--json <path>` to dump rows for EXPERIMENTS.md regeneration.
//! The `gates` binary runs every bitwise-parity and ratio gate of the
//! system (see [`gates`]). Criterion benches for the raw kernels live in
//! `benches/`.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::path::PathBuf;

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;

pub mod alloc_meter {
    //! A counting global allocator for the whole bench suite.
    //!
    //! Every harness binary linking this crate allocates through a thin
    //! [`System`] wrapper that keeps two relaxed atomic counters, so
    //! profile-build allocation traffic can be reported (the `eval` gate
    //! section) and gated (`profile`) without changing how anything
    //! allocates.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// [`System`], plus relaxed counters for allocation calls and bytes.
    pub struct CountingAlloc;

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Cumulative `(allocation calls, allocated bytes)` since process start.
    #[must_use]
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    /// Runs `f` and returns `(result, allocation calls, allocated bytes)`
    /// attributed to it. Attribution is process-wide: run measured sections
    /// single-threaded for exact counts.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let (a0, b0) = snapshot();
        let out = f();
        let (a1, b1) = snapshot();
        (out, a1 - a0, b1 - b0)
    }
}

pub mod gates;
pub mod harness;

/// Default dataset scale for harness binaries: large enough that device
/// ratios are representative, small enough that a full figure regenerates
/// in tens of seconds.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Parsed command-line options shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Dataset scale in `(0, 1]` (1.0 = the paper's published sizes).
    pub scale: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: DEFAULT_SCALE,
            seed: 42,
            json: None,
        }
    }
}

impl Opts {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let mut opts = Opts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale must be a float");
                    assert!(
                        opts.scale > 0.0 && opts.scale <= 1.0,
                        "--scale must be in (0, 1]"
                    );
                }
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--json" => {
                    opts.json = Some(PathBuf::from(args.next().expect("--json needs a path")));
                }
                "--help" | "-h" => {
                    eprintln!("usage: <bin> [--scale f] [--seed u64] [--json path]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}; try --help"),
            }
        }
        opts
    }

    /// The experiment platform: the paper's K40c + Xeon, scaled for the
    /// chosen dataset scale (see `Platform::scaled_for`).
    #[must_use]
    pub fn platform(&self) -> Platform {
        Platform::k40c_xeon_e5_2650().scaled_for(self.scale)
    }

    /// Writes `rows` as JSON if `--json` was given.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn maybe_dump<T: serde::Serialize>(&self, rows: &T) {
        if let Some(path) = &self.json {
            let json = nbwp_core::report::to_json(rows).expect("serialization cannot fail");
            std::fs::write(path, json).expect("failed to write JSON output");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Builds the CC workload for every Table II dataset.
#[must_use]
pub fn cc_suite(opts: &Opts) -> Vec<(&'static str, CcWorkload)> {
    let platform = opts.platform();
    Dataset::all()
        .iter()
        .map(|d| {
            (
                d.name,
                CcWorkload::new(d.graph(opts.scale, opts.seed), platform),
            )
        })
        .collect()
}

/// Builds the spmm workload for every Table II dataset (`A × A`).
#[must_use]
pub fn spmm_suite(opts: &Opts) -> Vec<(&'static str, SpmmWorkload)> {
    let platform = opts.platform();
    Dataset::all()
        .iter()
        .map(|d| {
            (
                d.name,
                SpmmWorkload::new(d.matrix(opts.scale, opts.seed), platform),
            )
        })
        .collect()
}

/// Builds the HH workload for the scale-free subset (paper §V).
#[must_use]
pub fn hh_suite(opts: &Opts) -> Vec<(&'static str, HhWorkload)> {
    let platform = opts.platform();
    Dataset::scale_free_suite()
        .map(|d| {
            (
                d.name,
                HhWorkload::new(d.matrix(opts.scale, opts.seed), platform),
            )
        })
        .collect()
}

/// Runs a full figure panel: per-dataset method comparison plus the
/// NaiveAverage second pass.
#[must_use]
pub fn run_panel<S: AsRef<str> + Sync, W: Sampleable>(
    suite: &[(S, W)],
    config: &ExperimentConfig,
) -> Vec<ExperimentRow> {
    eprintln!(
        "  dispatching {} datasets across {} worker(s)...",
        suite.len(),
        Pool::global().threads()
    );
    let mut rows: Vec<ExperimentRow> = run_corpus(suite, config);
    let workloads: Vec<&W> = suite.iter().map(|(_, w)| w).collect();
    fill_naive_average(&mut rows, &workloads);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 0.002,
            seed: 7,
            json: None,
        }
    }

    #[test]
    fn suites_cover_the_registry() {
        let opts = tiny_opts();
        assert_eq!(cc_suite(&opts).len(), 15);
        assert_eq!(spmm_suite(&opts).len(), 15);
        assert_eq!(hh_suite(&opts).len(), 9);
    }

    #[test]
    fn run_panel_fills_naive_average() {
        let opts = tiny_opts();
        let suite: Vec<_> = cc_suite(&opts).into_iter().take(2).collect();
        let rows = run_panel(&suite, &ExperimentConfig::cc(opts.seed));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.naive_average_t.is_some()));
        assert!(rows.iter().all(|r| r.time_naive_average_ms.is_some()));
    }

    #[test]
    fn platform_is_scaled() {
        let opts = tiny_opts();
        let p = opts.platform();
        let full = Platform::k40c_xeon_e5_2650();
        assert!(p.cpu.llc_bytes < full.cpu.llc_bytes);
        assert!(p.gpu.launch_overhead_us < full.gpu.launch_overhead_us);
    }
}
