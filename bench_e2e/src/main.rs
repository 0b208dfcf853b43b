//! End-to-end benchmark of the nbwp library: cold Table I estimation,
//! k-way partitioning and drift-serving traffic, each a closed loop with
//! one client on the scaled K40c + Xeon platform.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload cold_estimate|kway_partition|serve_drift \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but request
//! timing around the public calls. `--trace 1` runs the same traffic twice
//! from the same start — once untraced, once decomposed into its public
//! stages with each stage timed from outside — checks that both produce the
//! same answers bitwise, and reports the per-stage metrics. Every run checks
//! its outputs; a failed check makes the exit code 1. The last line of
//! standard output is one JSON object with the result.

mod cold;
mod common;
mod kway;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nbwp_core::prelude::*;

use nbwp_bench::harness::available_parallelism;

use common::{diff_phases, peak_rss_mb, percentile, run_phase, Layers, Phase, Served, Stop};

/// Dataset scale of every workload (1.0 = the paper's published sizes).
pub const SCALE: f64 = 0.01;

/// Set-up runs per measurement; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub const WORKLOADS: [&str; 3] = ["cold_estimate", "kway_partition", "serve_drift"];

/// Inputs shared by every workload's set-up.
pub struct Cfg {
    pub scale: f64,
    pub seed: u64,
    pub platform: Platform,
}

/// One workload's traffic: a fixed cycle of requests, replayed in a closed
/// loop.
pub trait Workload {
    /// Requests per cycle.
    fn cycle_len(&self) -> usize;

    /// Serves request `i` of the cycle — untraced, or decomposed into its
    /// public stages with each stage charged to `layers`.
    fn request(&mut self, i: usize, layers: Option<&mut Layers>) -> Served;

    /// Returns the serving state to where set-up left it.
    fn reset(&mut self) {}

    /// Output checks over a finished phase (beyond the per-request ones).
    fn checks(&mut self, phase: &Phase) -> Vec<String>;

    /// Simulated makespan of the first cycle's decisions, summed.
    fn sim_makespan_ms(&self, phase: &Phase) -> f64 {
        phase.first_cycle_sim_ms(self.cycle_len())
    }

    /// Extra lines for the run's notes, about a finished phase.
    fn notes(&self, _phase: &Phase) -> Vec<String> {
        Vec::new()
    }

    /// Table I rows for the first cycle's scalar and k=2 decisions.
    fn table1_rows(&self, phase: &Phase) -> Vec<ExperimentRow>;
}

/// A served threshold decision, as Table I scores it.
pub struct Decision {
    pub threshold: f64,
    pub overhead_ms: f64,
    pub evaluations: usize,
    pub sample_size: usize,
}

impl Decision {
    /// Reads a decision back from [`common::estimate_bits`].
    pub fn from_estimate_bits(bits: &[u64]) -> Decision {
        Decision {
            threshold: f64::from_bits(bits[0]),
            overhead_ms: f64::from_bits(bits[2]) * 1e3,
            evaluations: bits[3] as usize,
            sample_size: bits[4] as usize,
        }
    }

    /// The Table I row of this decision on `w`. The reference is the
    /// profiled exhaustive argmin on the same full input, exact by the
    /// profile ≡ direct contract.
    pub fn row<W: Profilable>(
        &self,
        name: &str,
        w: &W,
        config: &ExperimentConfig,
        pool: &Pool,
    ) -> ExperimentRow {
        let pw = ProfiledWorkload::with_pool(w, pool);
        let exhaustive = Searcher::new(Strategy::Exhaustive {
            step: Some(config.exhaustive_step),
        })
        .pool(pool)
        .run(&pw);
        let space = w.space();
        ExperimentRow {
            dataset: name.to_string(),
            n: w.size(),
            exhaustive_t: exhaustive.best_t,
            estimated_t: self.threshold,
            naive_static_t: None,
            naive_average_t: None,
            time_exhaustive_ms: exhaustive.best_time.as_millis(),
            time_estimated_ms: pw.time_at(self.threshold).as_millis(),
            time_naive_static_ms: None,
            time_naive_average_ms: None,
            time_gpu_only_ms: pw.time_at(baselines::gpu_only(w)).as_millis(),
            overhead_ms: self.overhead_ms,
            evaluations: self.evaluations,
            sample_size: self.sample_size,
            relative_threshold_diff: config.relative_threshold_diff,
            space_lo: space.lo,
            space_hi: space.hi,
        }
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn setup(name: &str, cfg: &Cfg) -> Box<dyn Workload> {
    match name {
        "cold_estimate" => Box::new(cold::ColdEstimate::setup(cfg)),
        "kway_partition" => Box::new(kway::KwayPartition::setup(cfg)),
        _ => Box::new(serve::ServeDrift::setup(cfg)),
    }
}

/// Sets the workload up [`SETUP_REPS`] times and keeps the last one;
/// returns it with the median set-up time in seconds.
fn timed_setup(name: &str, cfg: &Cfg) -> (Box<dyn Workload>, f64) {
    let mut times = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(name, cfg));
        times.push(t.elapsed().as_secs_f64());
    }
    (w.expect("at least one set-up"), percentile(&times, 0.5))
}

/// Runs one workload for `seconds` and returns its end-to-end (`trace =
/// false`) or per-layer (`trace = true`) metrics.
pub fn run(name: &str, cfg: &Cfg, seconds: f64, trace: bool) -> Outcome {
    let (mut w, setup_s) = timed_setup(name, cfg);
    let len = w.cycle_len();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let a = run_phase(len, Stop::After(budget), |i| w.request(i, None));
    // Before checks and scoring, which build inputs and profiles of their own.
    let peak_rss = peak_rss_mb();
    let mut problems = a.problems();
    problems.extend(w.checks(&a));
    let mut notes = vec![format!(
        "{name}: {} requests per cycle, {} cycles in {:.3} s, {} failed of {} attempted (failed_frac {:.4})",
        len,
        a.cycles,
        a.wall_s,
        a.failed(),
        a.attempted(),
        a.failed() as f64 / a.attempted() as f64
    )];
    notes.extend(w.notes(&a));
    if !trace {
        // The Table I triple is scored after the timed phase, outside
        // `setup_s`; it is printed here and reported as `table1.*` by
        // traced runs.
        if let Some(t) = table1(w.as_ref(), &a) {
            notes.push(format!(
                "table1: threshold_diff_pct {:.4} %, time_diff_pct {:.4} %, overhead_pct {:.4} %",
                t.threshold_diff_pct, t.time_diff_pct, t.overhead_pct
            ));
        }
        // Latency percentiles and throughput are medians over cycles.
        let p50 = a.cycle_median(|v| percentile(v, 0.5));
        let p90 = a.cycle_median(|v| percentile(v, 0.9));
        notes.push(format!(
            "latency samples: {} in {} cycles ({} beyond p90)",
            a.latencies_ms.len(),
            a.cycles,
            a.latencies_ms.iter().filter(|&&x| x > p90).count()
        ));
        let metrics = vec![
            ("setup_s", setup_s, "s"),
            ("latency_ms_p50", p50, "ms"),
            ("latency_ms_p90", p90, "ms"),
            ("throughput_rps", a.median_rps(len), "1/s"),
            ("sim_makespan_ms", w.sim_makespan_ms(&a), "ms"),
            ("peak_rss_mb", peak_rss, "MB"),
        ];
        return Outcome {
            attempted: a.attempted(),
            failed: a.failed(),
            problems,
            metrics,
            notes,
        };
    }

    w.reset();
    let mut layers = Layers::default();
    let b = run_phase(len, Stop::Cycles(a.cycles), |i| {
        w.request(i, Some(&mut layers))
    });
    problems.extend(b.problems());
    problems.extend(diff_phases("traced decomposition vs untraced", &a, &b));
    let metrics = per_layer(&layers, &a, &b, table1(w.as_ref(), &b).as_ref());
    Outcome {
        attempted: a.attempted() + b.attempted(),
        failed: a.failed() + b.failed(),
        problems,
        metrics,
        notes,
    }
}

/// The Table I summary over a phase's first-cycle decisions, if it has any.
fn table1(w: &dyn Workload, phase: &Phase) -> Option<Summary> {
    let rows = w.table1_rows(phase);
    (!rows.is_empty()).then(|| summarize("all", &rows))
}

/// Stage names of the ROADMAP, in pipeline order; each owns
/// `<stage>.wall_ms` (mean wall milliseconds per request).
const STAGES: [&str; 10] = [
    "parse",
    "build",
    "fingerprint",
    "sample",
    "profile",
    "identify",
    "extrapolate",
    "full_run",
    "cache",
    "drift",
];

/// The per-layer metrics of a traced phase `b` (and its untraced twin `a`).
/// Wall and simulated times are means per request; counts are per cycle.
fn per_layer(
    l: &Layers,
    a: &Phase,
    b: &Phase,
    table1: Option<&Summary>,
) -> Vec<(&'static str, f64, &'static str)> {
    let requests = b.attempted().max(1) as f64;
    let cycles = b.cycles.max(1) as f64;
    let per_req = |k: &str| l.sum(k) / requests;
    let per_cycle = |k: &str| l.sum(k) / cycles;
    let wall = |stage: &str| per_req(&format!("{stage}.wall_ms"));
    let request_ms = b.wall_s * 1e3 / requests;
    let attributed: f64 = STAGES.iter().map(|s| wall(s)).sum();
    let (exact, near, miss) = (
        l.sum("cache.exact_hits"),
        l.sum("cache.near_hits"),
        l.sum("cache.misses"),
    );
    let parse_s = l.sum("parse.wall_ms") / 1e3;
    let per_cycle_wall = |p: &Phase| p.wall_s / p.cycles.max(1) as f64;
    let t1 = |f: fn(&Summary) -> f64| table1.map_or(0.0, f);
    vec![
        ("parse.wall_ms", wall("parse"), "ms"),
        (
            "parse.mb_per_s",
            if parse_s > 0.0 {
                l.sum("parse.bytes") / 1e6 / parse_s
            } else {
                0.0
            },
            "MB/s",
        ),
        ("build.wall_ms", wall("build"), "ms"),
        ("fingerprint.wall_ms", wall("fingerprint"), "ms"),
        ("sample.wall_ms", wall("sample"), "ms"),
        ("sample.sim_ms", per_req("sample.sim_ms"), "ms"),
        ("sample.units", per_cycle("sample.units"), "count"),
        ("profile.wall_ms", wall("profile"), "ms"),
        ("profile.builds", per_cycle("profile.builds"), "count"),
        ("profile.allocs", per_cycle("profile.allocs"), "count"),
        ("identify.wall_ms", wall("identify"), "ms"),
        ("identify.sim_ms", per_req("identify.sim_ms"), "ms"),
        (
            "identify.evaluations",
            per_cycle("identify.evaluations"),
            "count",
        ),
        (
            "identify.grad_probes",
            per_cycle("identify.grad_probes"),
            "count",
        ),
        ("identify.sweeps", per_cycle("identify.sweeps"), "count"),
        ("extrapolate.wall_ms", wall("extrapolate"), "ms"),
        ("full_run.wall_ms", wall("full_run"), "ms"),
        ("full_run.sim_ms", per_req("full_run.sim_ms"), "ms"),
        ("full_run.flops", per_cycle("full_run.flops"), "count"),
        (
            "full_run.bytes_computed",
            per_cycle("full_run.bytes_computed"),
            "bytes",
        ),
        ("cache.wall_ms", wall("cache"), "ms"),
        ("cache.exact_hits", exact / cycles, "count"),
        ("cache.near_hits", near / cycles, "count"),
        ("cache.misses", miss / cycles, "count"),
        (
            "cache.hit_ratio",
            if exact + near + miss > 0.0 {
                (exact + near) / (exact + near + miss)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "cache.probes_saved",
            per_cycle("cache.probes_saved"),
            "count",
        ),
        ("cache.exact_hit_us_p50", l.p50("cache.exact_hit_us"), "us"),
        ("cache.near_hit_ms_p50", l.p50("cache.near_hit_ms"), "ms"),
        ("cache.miss_ms_p50", l.p50("cache.miss_ms"), "ms"),
        ("drift.wall_ms", wall("drift"), "ms"),
        ("drift.apply_ms_p50", l.p50("drift.apply_ms"), "ms"),
        ("drift.patched", per_cycle("drift.patched"), "count"),
        ("drift.nudged", per_cycle("drift.nudged"), "count"),
        ("drift.rebuilt", per_cycle("drift.rebuilt"), "count"),
        (
            "drift.span_fraction",
            l.mean("drift.span_fraction"),
            "ratio",
        ),
        ("drift.regret_pct", l.mean("drift.regret_pct"), "%"),
        ("audit.events", per_cycle("audit.events"), "count"),
        ("audit.shadow_runs", per_cycle("audit.shadow_runs"), "count"),
        (
            "table1.threshold_diff_pct",
            t1(|s| s.threshold_diff_pct),
            "%",
        ),
        ("table1.time_diff_pct", t1(|s| s.time_diff_pct), "%"),
        ("table1.overhead_pct", t1(|s| s.overhead_pct), "%"),
        (
            "request.failed_frac",
            a.failed() as f64 / a.attempted().max(1) as f64,
            "ratio",
        ),
        ("trace.request_ms", request_ms, "ms"),
        ("trace.unattributed_ms", request_ms - attributed, "ms"),
        (
            "trace.overhead_pct",
            (per_cycle_wall(b) / per_cycle_wall(a) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Panic sites seen so far, with counts. Some degenerate inputs panic as
/// the library stands; each site is summarized once instead of printed per
/// request.
static PANICS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        let site = info.location().map_or_else(
            || "unknown".to_string(),
            |l| format!("{}:{}", l.file(), l.line()),
        );
        if let Ok(mut p) = PANICS.lock() {
            *p.entry(site).or_default() += 1;
        }
    }));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "bench_e2e: {e}\nusage: --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    quiet_panics();
    let cfg = Cfg {
        scale: SCALE,
        seed: args.seed,
        platform: Platform::k40c_xeon_e5_2650().scaled_for(SCALE),
    };
    println!(
        "bench_e2e {} seed {} seconds {} trace {} | platform k40c_xeon_e5_2650 scaled_for({}) | available_parallelism {} | NBWP_THREADS {} | pool threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SCALE,
        available_parallelism(),
        std::env::var("NBWP_THREADS").unwrap_or_else(|_| "unset".into()),
        Pool::global().threads()
    );
    let out = run(&args.workload, &cfg, args.seconds, args.trace);
    for n in &out.notes {
        println!("{n}");
    }
    if let Ok(p) = PANICS.lock() {
        for (site, count) in p.iter() {
            println!("panicked {count} times at {site}");
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let serde_json::Value::Object(top) = v else {
            panic!("BENCHMARK.json is an object")
        };
        let Some((_, serde_json::Value::Array(list))) =
            top.iter().find(|(k, _)| k.as_str() == section)
        else {
            panic!("BENCHMARK.json has {section}")
        };
        list.iter()
            .map(|m| {
                let serde_json::Value::Object(m) = m else {
                    panic!("metric is an object")
                };
                let get = |key: &str| match m.iter().find(|(k, _)| k.as_str() == key) {
                    Some((_, serde_json::Value::Str(s))) => s.clone(),
                    _ => panic!("metric has {key}"),
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// Every workload at a tiny scale, one cycle per phase: all outputs
    /// pass their checks, the traced decomposition reproduces the untraced
    /// answers bitwise, and every declared metric is emitted with its unit.
    #[test]
    fn every_workload_emits_every_metric_and_passes_its_checks() {
        let cfg = Cfg {
            scale: 0.001,
            seed: 7,
            platform: Platform::k40c_xeon_e5_2650().scaled_for(0.001),
        };
        for name in WORKLOADS {
            let plain = run(name, &cfg, 0.0, false);
            assert!(plain.correct(), "{name}: {:?}", plain.problems);
            assert_eq!(emitted(&plain), declared("end_to_end"), "{name}");
            assert!(
                plain
                    .metrics
                    .iter()
                    .all(|(_, v, _)| v.is_finite() && *v > 0.0),
                "{name}"
            );

            let traced = run(name, &cfg, 0.0, true);
            assert!(traced.correct(), "{name}: {:?}", traced.problems);
            assert_eq!(emitted(&traced), declared("per_layer"), "{name}");
            assert!(
                traced.metrics.iter().all(|(_, v, _)| v.is_finite()),
                "{name}"
            );
        }
    }

    /// A panicking request is counted as failed, not lost.
    #[test]
    fn a_panic_is_a_failed_request() {
        let served = common::guarded(|| panic!("degenerate input"));
        assert!(served.panicked && served.failed());
    }

    /// Only the degenerate inputs may fail; every Table II request passes.
    #[test]
    fn cold_estimate_failures_are_the_degenerate_inputs() {
        let cfg = Cfg {
            scale: 0.001,
            seed: 3,
            platform: Platform::k40c_xeon_e5_2650().scaled_for(0.001),
        };
        let mut w = cold::ColdEstimate::setup(&cfg);
        let degenerate = w.degenerate_requests() as u64;
        let phase = run_phase(w.cycle_len(), Stop::Cycles(1), |i| w.request(i, None));
        assert!(w.checks(&phase).is_empty());
        assert!(phase.failed() <= degenerate);
    }
}
