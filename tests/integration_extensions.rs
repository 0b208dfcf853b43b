//! Cross-crate integration for the beyond-the-paper extensions: sorting,
//! list ranking, SpMV, multi-device vectors, energy sweeps, calibration.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::list::LinkedLists;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650().scaled_for(SCALE)
}

#[test]
fn sorting_case_study_end_to_end() {
    let data = nbwp_sort::gen::narrow_range(30_000, SEED);
    let w = SortWorkload::new(data, platform());
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let out = w.run_full(est.threshold);
    assert!(out.sorted.windows(2).all(|p| p[0] <= p[1]));
    // Narrow keys: the GPU side skips at least 6 of 8 radix passes.
    let gpu_only = w.run_full(0.0);
    assert!(gpu_only.gpu_passes <= 2);
}

#[test]
fn list_ranking_case_study_end_to_end() {
    let lists = LinkedLists::random(20_000, 4, SEED);
    let w = ListRankingWorkload::new(lists, platform(), SEED);
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let out = w.run_full(est.threshold);
    assert_eq!(out.ranks, w.lists().rank_sequential());
    let best = Searcher::new(Strategy::Exhaustive { step: Some(2.0) }).run(&w);
    assert!(best.best_t > 0.0 && best.best_t < 100.0, "interior optimum");
}

#[test]
fn spmv_case_study_end_to_end() {
    let d = Dataset::by_name("pwtk").unwrap();
    let w = SpmvWorkload::new(d.matrix(SCALE, SEED), platform());
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let (y, report) = w.run_numeric(est.threshold);
    assert_eq!(y.len(), w.size());
    assert!(report.total().as_secs() > 0.0);
}

#[test]
fn multi_device_pipeline_on_registry_data() {
    let d = Dataset::by_name("cop20k_A").unwrap();
    let w = MultiSpmmWorkload::new(
        d.matrix(SCALE, SEED),
        MultiPlatform::xeon_with_k40cs(2).scaled_for(SCALE),
    );
    let (est, cost) = w.estimate(SEED);
    est.validate(3);
    let equal = Shares::equal(3);
    assert!(
        w.time_at(&est) <= w.time_at(&equal) * 1.05,
        "estimated vector must not lose to equal shares"
    );
    assert!(cost.as_secs() > 0.0);
}

#[test]
fn energy_sweep_on_registry_data() {
    let d = Dataset::by_name("consph").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let power = PowerModel::k40c_xeon_e5_2650();
    let sweep = exhaustive_energy(&w, &power, 2.0);
    assert!(sweep.best_joules > 0.0);
    assert!(sweep.best_joules <= sweep.joules_at_time_best);
}

#[test]
fn repeated_estimation_is_consistent_with_single() {
    let d = Dataset::by_name("rma10").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let single = Estimator::new(Strategy::RaceThenFine).seed(SEED).run(&w);
    let multi = Estimator::new(Strategy::RaceThenFine)
        .seed(SEED)
        .repeats(3)
        .run(&w);
    assert!((0.0..=100.0).contains(&multi.threshold));
    assert!(multi.overhead > single.overhead);
}

#[test]
fn calibration_runs_on_a_registry_corpus() {
    let corpus: Vec<HhWorkload> = ["web-BerkStan", "webbase-1M"]
        .iter()
        .map(|n| HhWorkload::new(Dataset::by_name(n).unwrap().matrix(SCALE, SEED), platform()))
        .collect();
    let fitted = calibrate_extrapolator(&corpus, Strategy::GradientDescent { max_evals: 12 }, SEED);
    if let Some(Extrapolator::Power { a, b }) = fitted {
        assert!(a.is_finite() && b.is_finite());
    }
    // None is acceptable for a 2-element corpus with identical sample
    // thresholds; the API must simply not panic.
}

#[test]
fn timeline_renders_for_a_real_run() {
    let d = Dataset::by_name("cant").unwrap();
    let w = CcWorkload::new(d.graph(SCALE, SEED), platform());
    let report = w.run(25.0);
    let chart = nbwp_sim::timeline::render(&report.breakdown, 60);
    assert!(chart.contains("CPU |"));
    assert!(chart.contains("GPU |"));
}

#[test]
fn importance_sampler_runs_through_the_estimator() {
    let d = Dataset::by_name("webbase-1M").unwrap();
    let w = HhWorkload::new(d.matrix(SCALE, SEED), platform()).with_sampler(HhSampler::Importance);
    let est = Estimator::new(Strategy::GradientDescent { max_evals: 18 })
        .seed(SEED)
        .run(&w);
    let space = w.space();
    assert!(est.threshold >= space.lo && est.threshold <= space.hi);
}
