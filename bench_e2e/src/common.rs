//! Shared machinery: the closed-loop phase runner, the outside-in layer
//! clock, request results and output checks, and peak RSS. Allocation
//! counting, percentiles and estimate digests come from `nbwp_bench`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use nbwp_bench::harness;
use nbwp_core::prelude::*;

pub use nbwp_bench::harness::percentile;

/// Peak resident set size in MiB (`VmHWM`), or 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Outside-in layer clock for one traced phase: wall and simulated time
/// per ROADMAP stage name, counters, and per-call samples for medians.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds `v` to the running total `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Records one per-call sample of `name` (for medians).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Runs `f`, charging its wall time to `<layer>.wall_ms`.
    pub fn time<T>(&mut self, wall_key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(wall_key, ms_since(t));
        out
    }

    /// Running total `name` (0 when never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the samples of `name` (0 when none).
    pub fn p50(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| percentile(v, 0.5))
    }

    /// Mean of the samples of `name` (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// What one request produced: the bit patterns of every returned number
/// (compared bitwise across phases), its simulated makespan, and whether it
/// panicked or failed an output check.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub bits: Vec<u64>,
    pub sim_ms: f64,
    pub panicked: bool,
    pub problem: Option<String>,
}

impl Served {
    pub fn ok(bits: Vec<u64>, sim_ms: f64) -> Served {
        Served {
            bits,
            sim_ms,
            ..Served::default()
        }
    }

    pub fn failed(&self) -> bool {
        self.panicked || self.problem.is_some()
    }
}

/// Runs one request under `catch_unwind`: a panic becomes a failed
/// [`Served`] instead of aborting the run.
pub fn guarded(f: impl FnOnce() -> Served) -> Served {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Served {
        panicked: true,
        ..Served::default()
    })
}

/// Checks that `t` is finite and inside `space`.
pub fn check_in_space(what: &str, t: f64, space: &ThresholdSpace) -> Option<String> {
    (!(t.is_finite() && t >= space.lo && t <= space.hi))
        .then(|| format!("{what}: decision {t} outside [{}, {}]", space.lo, space.hi))
}

/// When a closed-loop phase stops. Either way it stops only between
/// request cycles, so every request of the cycle is equally represented.
#[derive(Copy, Clone)]
pub enum Stop {
    /// Stop at the first cycle boundary after this much wall time.
    After(Duration),
    /// Run exactly this many cycles.
    Cycles(usize),
}

/// One closed-loop phase: one client, each request issued when the
/// previous one returned.
#[derive(Default)]
pub struct Phase {
    /// Wall time of every request that neither panicked nor failed a check.
    pub latencies_ms: Vec<f64>,
    /// Where each cycle's latencies end in `latencies_ms`.
    pub cycle_ends: Vec<usize>,
    /// Wall seconds of each cycle.
    pub cycle_s: Vec<f64>,
    /// Every request's result, in order.
    pub served: Vec<Served>,
    pub cycles: usize,
    pub wall_s: f64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.served.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.served.iter().filter(|s| s.failed()).count() as u64
    }

    /// Distinct output-check failures (panics are not check failures).
    pub fn problems(&self) -> Vec<String> {
        let mut p: Vec<String> = self
            .served
            .iter()
            .filter_map(|s| s.problem.clone())
            .collect();
        p.sort();
        p.dedup();
        p
    }

    /// Median over cycles of `f` on each cycle's latencies. A slow stretch
    /// of a shared host then moves a minority of cycles, not the result.
    pub fn cycle_median(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        let mut start = 0;
        let per_cycle: Vec<f64> = self
            .cycle_ends
            .iter()
            .map(|&end| {
                let v = f(&self.latencies_ms[start..end]);
                start = end;
                v
            })
            .collect();
        percentile(&per_cycle, 0.5)
    }

    /// Median over cycles of requests per second.
    pub fn median_rps(&self, cycle_len: usize) -> f64 {
        let rates: Vec<f64> = self.cycle_s.iter().map(|s| cycle_len as f64 / s).collect();
        percentile(&rates, 0.5)
    }

    /// Simulated makespan of the first cycle's decisions, summed.
    pub fn first_cycle_sim_ms(&self, cycle_len: usize) -> f64 {
        self.served.iter().take(cycle_len).map(|s| s.sim_ms).sum()
    }
}

/// Drives `request(index in cycle)` in a closed loop until `stop`.
pub fn run_phase(cycle_len: usize, stop: Stop, mut request: impl FnMut(usize) -> Served) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        match stop {
            Stop::After(d) if phase.cycles > 0 && start.elapsed() >= d => break,
            Stop::Cycles(n) if phase.cycles >= n => break,
            _ => {}
        }
        let cycle_start = Instant::now();
        for i in 0..cycle_len {
            let t = Instant::now();
            let served = request(i);
            let ms = ms_since(t);
            if !served.failed() {
                phase.latencies_ms.push(ms);
            }
            phase.served.push(served);
        }
        phase.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        phase.cycle_ends.push(phase.latencies_ms.len());
        phase.cycles += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Compares two phases' results request by request, bitwise.
pub fn diff_phases(what: &str, a: &Phase, b: &Phase) -> Vec<String> {
    let mut out = Vec::new();
    if a.served.len() != b.served.len() {
        out.push(format!(
            "{what}: {} requests vs {} requests",
            a.served.len(),
            b.served.len()
        ));
    }
    for (i, (x, y)) in a.served.iter().zip(&b.served).enumerate() {
        if x.bits != y.bits || x.panicked != y.panicked {
            out.push(format!("{what}: request {i} differs bitwise"));
        }
    }
    out.truncate(8);
    out
}

/// Checks that every cycle of a stateless workload repeats the first
/// cycle's results bitwise.
pub fn check_cycles_repeat(what: &str, phase: &Phase, cycle_len: usize) -> Vec<String> {
    let first = &phase.served[..cycle_len.min(phase.served.len())];
    let mut out = Vec::new();
    for (i, s) in phase.served.iter().enumerate().skip(cycle_len) {
        let f = &first[i % cycle_len];
        if s.bits != f.bits || s.panicked != f.panicked {
            out.push(format!(
                "{what}: request {} of cycle {} differs from cycle 0",
                i % cycle_len,
                i / cycle_len
            ));
        }
    }
    out.truncate(8);
    out
}

/// [`harness::estimate_bits`] flattened to bit patterns, in its field
/// order: threshold, sample threshold, overhead, evaluations, sample size,
/// gradient probes.
pub fn estimate_bits(e: &SamplingEstimate) -> Vec<u64> {
    let (t, sample_t, overhead, evaluations, sample_size, grad_probes) = harness::estimate_bits(e);
    vec![
        t,
        sample_t,
        overhead.as_secs().to_bits(),
        evaluations as u64,
        sample_size as u64,
        grad_probes as u64,
    ]
}

/// Bit patterns of a partition outcome: cuts, fractions, total, work.
pub fn partition_bits(o: &PartitionOutcome) -> Vec<u64> {
    let mut v: Vec<u64> = o.cuts.iter().map(|c| c.to_bits()).collect();
    v.extend(o.fractions.iter().map(|f| f.to_bits()));
    v.push(o.total.as_secs().to_bits());
    v.push(o.probes as u64);
    v.push(o.sweeps as u64);
    v
}

/// Checks a cut vector: finite, inside `space`, non-decreasing.
pub fn check_cuts(what: &str, cuts: &[f64], space: &ThresholdSpace) -> Option<String> {
    cuts.iter()
        .find_map(|&c| check_in_space(what, c, space))
        .or_else(|| {
            cuts.windows(2)
                .any(|w| w[0] > w[1])
                .then(|| format!("{what}: cuts {cuts:?} are not non-decreasing"))
        })
}

/// The analytic searcher every partition request runs.
pub fn analytic() -> ProfiledSearcher<'static> {
    Searcher::new(Strategy::Analytic { step: None })
        .pool(Pool::global())
        .profiled()
}

/// k=2 partition ≡ scalar threshold: a canonical-pair partition (bits from
/// [`partition_bits`]) must carry the scalar analytic search's threshold
/// and total, bitwise.
pub fn scalar_matches<W: Profilable>(w: &W, s: &Served) -> bool {
    let scalar = analytic().run(w);
    s.bits.len() >= 4
        && s.bits[0] == scalar.best_t.to_bits()
        && s.bits[s.bits.len() - 3] == scalar.best_time.as_secs().to_bits()
}
