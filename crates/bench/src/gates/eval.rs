//! `eval` section — candidate pricing through the cost-profile layer.
//!
//! For each workload (hybrid CC, row-row spmm, scale-free HH-CPU, dense
//! GEMM) and each search strategy, the section times the search twice:
//! once pricing every candidate with a direct run (`O(input)` per
//! candidate) and once through the workload's cost profile plus the shared
//! eval cache (`O(1)`-ish per candidate after one profile pass). Per-eval
//! wall-clock, eval counts, and speedups are recorded per configuration.
//!
//! Before timing, every profiled report across the coarse grid plus a fine
//! grid around each coarse candidate is compared against the direct run:
//! any difference — a single bit of any `SimTime` or kernel counter —
//! fails the exactness gate. The analytic, k-way and sensitivity rows
//! gate argmin parity, probe ratios and one-build resampling.

use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::gen as sparse_gen;
use serde::{Serialize, Value};

use super::Config;
use crate::alloc_meter;
use crate::harness::Gates;

#[derive(Serialize)]
struct Entry {
    workload: String,
    strategy: String,
    mode: String,
    wall_ms: f64,
    evaluations: usize,
    per_eval_us: f64,
    speedup_vs_direct: f64,
}

#[derive(Serialize)]
struct WorkloadInfo {
    workload: String,
    size: usize,
    profile_build_ms: f64,
    /// Heap allocation calls performed while building the profile (counted
    /// by the crate-wide `alloc_meter` global allocator).
    build_allocs: u64,
    /// Heap bytes requested while building the profile.
    build_alloc_bytes: u64,
    parity_points: usize,
}

/// Analytic-vs-numeric descent comparison for one workload: the analytic
/// row of the acceptance gate. `argmin_match` is bitwise equality with the
/// exhaustive-profiled argmin; `eval_ratio` is gradient-descent evals over
/// analytic evals (gated at >= 5).
#[derive(Serialize)]
struct AnalyticEntry {
    workload: String,
    analytic_evals: usize,
    analytic_grad_probes: usize,
    gradient_descent_evals: usize,
    exhaustive_evals: usize,
    argmin_match: bool,
    eval_ratio: f64,
    wall_ms: f64,
}

/// One-profile sensitivity sweep accounting: `profile_builds` must be 1
/// no matter how many sample factors are swept.
#[derive(Serialize)]
struct SensitivityInfo {
    workload: String,
    factors: usize,
    profile_builds: u64,
}

/// One k-way partition-search gate row: coordinate descent vs an
/// exhaustive enumeration of every non-decreasing cut tuple over the same
/// collapsed candidate grid. `argmin_match` is gated for every `k`;
/// `eval_ratio` (exhaustive tuples over descent probes) is gated at >= 5
/// for `k > 2`; `scalar_parity` (bitwise equality with the profiled
/// analytic search on threshold, split, total and probes) is gated on the
/// canonical pair.
#[derive(Serialize)]
struct KwayEntry {
    workload: String,
    devices: String,
    k: usize,
    step: f64,
    candidates: usize,
    cd_probes: usize,
    cd_sweeps: usize,
    exhaustive_tuples: usize,
    argmin_match: bool,
    scalar_parity: Option<bool>,
    eval_ratio: f64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Body {
    repetitions: usize,
    workloads: Vec<WorkloadInfo>,
    entries: Vec<Entry>,
    analytic: Vec<AnalyticEntry>,
    kway: Vec<KwayEntry>,
    sensitivity: Vec<SensitivityInfo>,
}

/// The strategies swept per workload, dispatched by name so direct and
/// profiled runs share one code path.
const STRATEGIES: [&str; 4] = [
    "exhaustive",
    "coarse_to_fine",
    "race_then_fine",
    "gradient_descent",
];

fn run_direct<W: PartitionedWorkload>(w: &W, strategy: &str, pool: &Pool) -> SearchOutcome {
    let s = match strategy {
        "gradient_descent" => Strategy::GradientDescent { max_evals: 24 },
        other => other.parse::<Strategy>().expect("known strategy name"),
    };
    Searcher::new(s).pool(pool).run(w)
}

/// The analytic acceptance row: subgradient descent on the cost curve must
/// land on the exhaustive-profiled argmin bitwise, in at least 5x fewer
/// curve evaluations than finite-difference gradient descent.
fn analytic_gate<W: Profilable>(
    name: &str,
    w: &W,
    pool: &Pool,
    analytic: &mut Vec<AnalyticEntry>,
    gates: &mut Gates,
) {
    let exhaustive = Searcher::new(Strategy::Exhaustive { step: None })
        .pool(pool)
        .profiled()
        .run(w);
    let gd = Searcher::new(Strategy::GradientDescent { max_evals: 24 })
        .pool(pool)
        .profiled()
        .run(w);
    let started = Instant::now();
    let ana = Searcher::new(Strategy::Analytic { step: None })
        .pool(pool)
        .profiled()
        .run(w);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let argmin_match = ana.best_t.to_bits() == exhaustive.best_t.to_bits();
    let eval_ratio = gd.evaluations() as f64 / ana.evaluations().max(1) as f64;
    gates.check(format_args!("{name}.analytic.argmin_match"), argmin_match);
    gates.min(format_args!("{name}.analytic.eval_ratio"), eval_ratio, 5.0);
    eprintln!(
        "  {name:<10} analytic: {} evals (+{} grad probes) vs gd {} | argmin match: {argmin_match} | x{eval_ratio:.1}",
        ana.evaluations(),
        ana.grad_probes,
        gd.evaluations(),
    );
    analytic.push(AnalyticEntry {
        workload: name.to_string(),
        analytic_evals: ana.evaluations(),
        analytic_grad_probes: ana.grad_probes,
        gradient_descent_evals: gd.evaluations(),
        exhaustive_evals: exhaustive.evaluations(),
        argmin_match,
        eval_ratio,
        wall_ms,
    });
}

/// Steps per arity keep the exhaustive tuple count `C(m + k - 2, k - 1)`
/// tractable while still covering the full threshold range: the canonical
/// pair sweeps the fine grid, k = 4 a half-coarse grid, k = 8 the coarse
/// grid. Logarithmic strides are multiplicative, so "half" is a square
/// root there.
fn kway_step(space: &ThresholdSpace, k: usize) -> f64 {
    match k {
        2 => space.fine_step,
        4 if space.logarithmic => space.coarse_step.sqrt(),
        4 => space.coarse_step / 2.0,
        _ => space.coarse_step,
    }
}

/// The k-way acceptance row: coordinate descent over the collapsed
/// candidate grid must land on the exhaustive argmin (every non-decreasing
/// cut tuple priced via [`CurveEval::partition_total`], strict `<` keeping
/// the first — lexicographically lowest — winner, matching the descent's
/// tie-break) using at least 5x fewer objective probes for `k > 2`. On the
/// canonical pair the partition minimizer must reproduce the profiled
/// analytic search (`Strategy::Analytic` at the same step) bitwise:
/// threshold, split, total, and probes against its `grad_probes`.
fn kway_gate<W: Profilable>(
    name: &str,
    w: &W,
    sets: &[DeviceSet],
    pool: &Pool,
    kway: &mut Vec<KwayEntry>,
    gates: &mut Gates,
) {
    let profile = w.build_profile(pool);
    let curve = w
        .curve(&profile)
        .expect("k-way gate workloads expose a cost curve");
    let space = w.space();
    let units = curve
        .splits()
        .checked_sub(1)
        .expect("a curve exposes at least one split");

    for set in sets {
        let k = set.len();
        let step = kway_step(&space, k);

        let started = Instant::now();
        let cd = minimize_partition(curve.as_ref(), set, &space, step, None)
            .expect("the cost curve prices bands for this device set");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        // Exhaustive baseline: a non-decreasing odometer over candidate
        // indices enumerates every cut tuple the descent could reach.
        let cands = candidate_splits(curve.as_ref(), &space, step);
        let m = cands.len();
        let kc = k - 1;
        let mut idx = vec![0usize; kc];
        let mut tuples = 0usize;
        let mut best: Option<(SimTime, Vec<usize>)> = None;
        let mut done = m == 0;
        while !done {
            let cuts: Vec<usize> = idx.iter().map(|&i| cands[i].1).collect();
            let p = Partition::new(units, cuts);
            if let Some(total) = curve.partition_total(set, &p) {
                tuples += 1;
                if best.as_ref().is_none_or(|(t, _)| total < *t) {
                    best = Some((total, p.cuts().to_vec()));
                }
            }
            done = true;
            let mut j = kc;
            while j > 0 {
                j -= 1;
                if idx[j] + 1 < m {
                    let v = idx[j] + 1;
                    for x in &mut idx[j..] {
                        *x = v;
                    }
                    done = false;
                    break;
                }
            }
        }
        let (best_total, best_cuts) = best.expect("exhaustive baseline priced at least one tuple");

        let argmin_match = cd.total == best_total && cd.partition.cuts() == best_cuts.as_slice();
        gates.check(format_args!("{name}.kway{k}.argmin_match"), argmin_match);
        let eval_ratio = tuples as f64 / cd.probes.max(1) as f64;
        if k > 2 {
            gates.min(format_args!("{name}.kway{k}.eval_ratio"), eval_ratio, 5.0);
        }
        let scalar_parity = set.is_canonical_pair().then(|| {
            let scalar = Searcher::new(Strategy::Analytic { step: Some(step) })
                .pool(pool)
                .profiled()
                .run(w);
            let split = curve.split_for(space.clamp(scalar.best_t));
            let parity = cd.thresholds.len() == 1
                && cd.thresholds[0].to_bits() == scalar.best_t.to_bits()
                && cd.partition.cuts() == [split]
                && cd.total == scalar.best_time
                && cd.probes == scalar.grad_probes;
            gates.check(format_args!("{name}.kway{k}.scalar_parity"), parity);
            parity
        });

        eprintln!(
            "  {name:<10} {:<18} k={k}: {} probes, {} sweeps vs {tuples} tuples ({m} candidates) | argmin match: {argmin_match} | x{eval_ratio:.1}",
            set.name(),
            cd.probes,
            cd.sweeps,
        );
        kway.push(KwayEntry {
            workload: name.to_string(),
            devices: set.name().to_string(),
            k,
            step,
            candidates: m,
            cd_probes: cd.probes,
            cd_sweeps: cd.sweeps,
            exhaustive_tuples: tuples,
            argmin_match,
            scalar_parity,
            eval_ratio,
            wall_ms,
        });
    }
}

/// Exactness gate: profiled reports (and their totals) must equal direct
/// reports bitwise over the coarse grid plus a fine grid around every
/// coarse candidate.
fn parity_check<W: Profilable>(
    name: &str,
    w: &W,
    pw: &ProfiledWorkload<W>,
    gates: &mut Gates,
) -> usize {
    let space = w.space();
    let mut grid = space.coarse_grid();
    for c in space.coarse_grid() {
        grid.extend(space.fine_grid(c));
    }
    let points = grid.len();
    let (mut reports, mut totals) = (0usize, 0usize);
    for t in grid {
        let direct = w.run(t);
        let profiled = pw.run(t);
        reports += usize::from(direct != profiled);
        totals += usize::from(direct.total() != profiled.total());
    }
    gates.max(
        format_args!("{name}.report_mismatches"),
        reports as f64,
        0.0,
    );
    gates.max(format_args!("{name}.total_mismatches"), totals as f64, 0.0);
    gates.min(format_args!("{name}.parity_points"), points as f64, 1.0);
    points
}

/// Times direct-vs-profiled searches for one workload across all
/// strategies. Profiled runs are timed with a cold cache (the
/// `ProfiledWorkload` is rebuilt outside the timed region each repetition),
/// so `per_eval_us` measures genuine curve pricing, not cache replay.
fn sweep_workload<W: Profilable>(
    name: &str,
    w: &W,
    reps: usize,
    entries: &mut Vec<Entry>,
    workloads: &mut Vec<WorkloadInfo>,
    gates: &mut Gates,
) {
    let pool = Pool::global();

    let started = Instant::now();
    let (pw, build_allocs, build_alloc_bytes) =
        alloc_meter::measure(|| ProfiledWorkload::with_pool(w, pool));
    let profile_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let parity_points = parity_check(name, w, &pw, gates);
    workloads.push(WorkloadInfo {
        workload: name.to_string(),
        size: w.size(),
        profile_build_ms,
        build_allocs,
        build_alloc_bytes,
        parity_points,
    });

    for strategy in STRATEGIES {
        let mut direct_ms = f64::INFINITY;
        let mut evals = 0;
        for _ in 0..reps {
            let started = Instant::now();
            let out = run_direct(w, strategy, pool);
            direct_ms = direct_ms.min(started.elapsed().as_secs_f64() * 1e3);
            evals = out.evaluations();
        }
        let mut profiled_ms = f64::INFINITY;
        let mut profiled_evals = 0;
        for _ in 0..reps {
            let fresh = ProfiledWorkload::with_pool(w, pool);
            let started = Instant::now();
            let out = run_direct(&fresh, strategy, pool);
            profiled_ms = profiled_ms.min(started.elapsed().as_secs_f64() * 1e3);
            profiled_evals = out.evaluations();
        }
        gates.check(
            format_args!("{name}.{strategy}.eval_count_parity"),
            evals == profiled_evals,
        );
        let per_eval = |ms: f64, n: usize| ms * 1e3 / n.max(1) as f64;
        let speedup = direct_ms / profiled_ms.max(1e-9);
        eprintln!(
            "  {name:<10} {strategy:<17} direct {:9.2} us/eval | profiled {:8.2} us/eval | x{speedup:.1} ({evals} evals)",
            per_eval(direct_ms, evals),
            per_eval(profiled_ms, profiled_evals),
        );
        entries.push(Entry {
            workload: name.to_string(),
            strategy: strategy.to_string(),
            mode: "direct".to_string(),
            wall_ms: direct_ms,
            evaluations: evals,
            per_eval_us: per_eval(direct_ms, evals),
            speedup_vs_direct: 1.0,
        });
        entries.push(Entry {
            workload: name.to_string(),
            strategy: strategy.to_string(),
            mode: "profiled".to_string(),
            wall_ms: profiled_ms,
            evaluations: profiled_evals,
            per_eval_us: per_eval(profiled_ms, profiled_evals),
            speedup_vs_direct: speedup,
        });
    }
}

/// Runs the section.
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config, gates: &mut Gates) -> Value {
    let reps = if cfg.quick { 2 } else { 3 };
    let (cc_n, spmm_n, hh_n, gemm_n) = if cfg.quick {
        (40_000, 60_000, 8_000, 512)
    } else {
        (150_000, 250_000, 30_000, 1024)
    };
    eprintln!("best of {reps} rep(s)");

    let platform = Platform::k40c_xeon_e5_2650();
    let mut entries = Vec::new();
    let mut workloads = Vec::new();
    let mut analytic = Vec::new();
    let mut sensitivity = Vec::new();

    eprintln!("building inputs...");
    let cc = CcWorkload::new(graph_gen::web(cc_n, 8, cfg.seed), platform);
    // spmm is deliberately the largest input: the acceptance criterion is
    // >= 5x cheaper per-candidate pricing for exhaustive search on it.
    let spmm = SpmmWorkload::new(sparse_gen::uniform_random(spmm_n, 12, cfg.seed), platform);
    let hh = HhWorkload::new(sparse_gen::power_law(hh_n, 10, 2.1, cfg.seed), platform);
    let gemm = DenseGemmWorkload::new(gemm_n, platform);

    sweep_workload("cc", &cc, reps, &mut entries, &mut workloads, gates);
    sweep_workload("spmm", &spmm, reps, &mut entries, &mut workloads, gates);
    sweep_workload("scalefree", &hh, reps, &mut entries, &mut workloads, gates);
    sweep_workload("gemm", &gemm, reps, &mut entries, &mut workloads, gates);

    eprintln!("analytic subgradient descent vs numeric descent...");
    let pool = Pool::global();
    analytic_gate("cc", &cc, pool, &mut analytic, gates);
    analytic_gate("spmm", &spmm, pool, &mut analytic, gates);
    analytic_gate("scalefree", &hh, pool, &mut analytic, gates);
    analytic_gate("gemm", &gemm, pool, &mut analytic, gates);

    eprintln!("k-way coordinate descent vs exhaustive cut enumeration...");
    let mut kway = Vec::new();
    let pair = DeviceSet::cpu_gpu();
    let dual = DeviceSet::dual_cpu_dual_gpu();
    let quad = DeviceSet::quad_cpu_quad_gpu();
    let all_sets = [pair.clone(), dual.clone(), quad];
    kway_gate("spmm", &spmm, &all_sets, pool, &mut kway, gates);
    kway_gate("gemm", &gemm, &all_sets, pool, &mut kway, gates);
    kway_gate("cc", &cc, &[pair, dual], pool, &mut kway, gates);

    eprintln!("sensitivity sweep via Profile::resample...");
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let rec = Recorder::new();
    let points = nbwp_core::experiment::sensitivity_resampled(
        &spmm,
        &factors,
        Strategy::Analytic { step: None },
        cfg.seed,
        &rec,
    );
    let builds = rec
        .finish()
        .metrics
        .counter("profile.builds")
        .unwrap_or(u64::MAX);
    gates.check("spmm.sensitivity.points", points.len() == factors.len());
    gates.check("spmm.sensitivity.profile_builds", builds == 1);
    eprintln!(
        "  spmm: {} factors swept from {} full profile build(s)",
        factors.len(),
        builds
    );
    sensitivity.push(SensitivityInfo {
        workload: "spmm".to_string(),
        factors: factors.len(),
        profile_builds: builds,
    });

    // Report shape, plus the headline: exhaustive search on the largest
    // workload (spmm) prices candidates at least 5x cheaper through the
    // profile.
    gates.check("workloads", workloads.len() == 4);
    gates.check(
        "alloc_counters_recorded",
        alloc_meter::snapshot().0 > 0 && workloads.iter().all(|w| w.profile_build_ms >= 0.0),
    );
    gates.check("entries", entries.len() == 4 * STRATEGIES.len() * 2);
    gates.check(
        "entries_positive",
        entries.iter().all(|e| e.wall_ms > 0.0 && e.evaluations > 0),
    );
    let spmm_exhaustive = entries
        .iter()
        .find(|e| e.workload == "spmm" && e.strategy == "exhaustive" && e.mode == "profiled")
        .map_or(0.0, |e| e.speedup_vs_direct);
    gates.min("spmm.exhaustive.speedup_vs_direct", spmm_exhaustive, 5.0);
    gates.check("analytic_rows", analytic.len() == 4);
    gates.check(
        "kway_rows",
        kway.iter().map(|e| (e.workload.as_str(), e.k)).eq([
            ("spmm", 2),
            ("spmm", 4),
            ("spmm", 8),
            ("gemm", 2),
            ("gemm", 4),
            ("gemm", 8),
            ("cc", 2),
            ("cc", 4),
        ]),
    );
    gates.check(
        "kway_probes_positive",
        kway.iter()
            .all(|e| e.cd_probes > 0 && e.exhaustive_tuples > 0),
    );

    Body {
        repetitions: reps,
        workloads,
        entries,
        analytic,
        kway,
        sensitivity,
    }
    .to_value()
}
