//! Cross-crate integration for the beyond-the-paper extensions: sorting,
//! list ranking, SpMV, k-way multi-device partitions, energy sweeps,
//! calibration.

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

/// The fixed spmm input of the k-way tests: 3000 uniform rows of degree
/// 10 on the K40c + Xeon platform scaled to 0.05.
fn kway_input() -> SpmmWorkload {
    SpmmWorkload::new(
        nbwp_sparse::gen::uniform_random(3000, 10, 7),
        Platform::k40c_xeon_e5_2650().scaled_for(0.05),
    )
}

fn cpu_two_gpus(third_speed: f64) -> DeviceSet {
    DeviceSet::new(
        "cpu-gpu-gpu",
        vec![
            Device::cpu(),
            Device::gpu(),
            Device::gpu().with_speed(third_speed),
        ],
    )
}

fn kway_partition(w: &SpmmWorkload, set: &DeviceSet) -> PartitionOutcome {
    Searcher::new(Strategy::Analytic { step: None })
        .profiled()
        .run_partition(w, set)
}

#[test]
fn run_partition_beats_equal_and_flops_splits() {
    let w = kway_input();
    let profile = w.build_profile(Pool::global());
    let curve = w.curve(&profile).expect("spmm exposes a cost curve");
    let units = curve.splits() - 1;
    // Measured on this input: analytic / equal is 0.714 (two K40cs) and
    // 0.639 (K40c + iGPU); analytic / FLOPS is 0.543 and 0.404.
    for set in [cpu_two_gpus(1.0), cpu_two_gpus(60.0 / 288.0)] {
        let price = |p: &Partition| curve.partition_total(&set, p).expect("spmm prices bands");
        let equal = price(&Partition::proportional(units, &[1.0; 3]));
        let flops = price(&Partition::proportional(
            units,
            &set.weights(w.platform().gpu_flops_share()),
        ));
        let kway = kway_partition(&w, &set);
        assert_eq!(
            kway.partition.as_ref().map(price),
            Some(kway.total),
            "the outcome's total is its partition's exact price"
        );
        assert!(
            kway.total <= equal * 0.72,
            "{}: analytic {} vs equal {equal}",
            set.name(),
            kway.total
        );
        assert!(
            kway.total <= flops * 0.55,
            "{}: analytic {} vs FLOPS {flops}",
            set.name(),
            kway.total
        );
    }
}

#[test]
fn run_partition_two_gpus_beat_one() {
    let w = kway_input();
    let one = kway_partition(&w, &DeviceSet::cpu_gpu()).total;
    let two = kway_partition(&w, &cpu_two_gpus(1.0)).total;
    // Measured: 0.609 of the CPU + one-GPU optimum.
    assert!(two <= one * 0.62, "1 GPU {one}, 2 GPUs {two}");
}

#[test]
fn run_partition_gives_the_slower_gpu_less_work() {
    // A banded matrix: device-memory-bound SpGEMM, so the integrated
    // GPU's bandwidth deficit against the K40c shows.
    let w = SpmmWorkload::new(
        nbwp_sparse::gen::banded_fem(3000, 30, 24, 9),
        Platform::k40c_xeon_e5_2650().scaled_for(0.05),
    );
    let f = kway_partition(&w, &cpu_two_gpus(60.0 / 288.0)).fractions;
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{f:?}");
    // Measured: the iGPU takes 19.2% of the rows, the K40c 38.1%.
    assert!(f[2] <= f[1] * 0.51, "K40c {:.3} vs iGPU {:.3}", f[1], f[2]);
}
