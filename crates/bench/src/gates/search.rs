//! `search` section — wall-clock scaling of the parallel execution layer.
//!
//! Runs the exhaustive and coarse-to-fine threshold searches plus the three
//! hot kernels (Shiloach–Vishkin CC, Gustavson SpGEMM, blocked GEMM) at
//! 1/2/4/8 worker threads, recording best-of-N wall-clock per configuration.
//! At every thread count the *simulated* results (thresholds, eval logs,
//! labels, numeric outputs) must equal the 1-thread run — a determinism
//! gate enforced in every mode.
//!
//! Wall-clock numbers are only meaningful relative to the recorded
//! `available_parallelism`: on a single-core container every thread count
//! collapses onto one CPU and speedups hover near (or below) 1.0, so the
//! speedup gate is skipped there.

use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_dense::gemm::gemm_parallel;
use nbwp_dense::DenseMatrix;
use nbwp_graph::cc::cc_sv;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::gen as sparse_gen;
use nbwp_sparse::spgemm::spgemm_parallel;
use serde::{Serialize, Value};

use super::Config;
use crate::harness::{available_parallelism, Gates};

/// Worker counts swept by every benchmark.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Entry {
    bench: String,
    threads: usize,
    wall_ms: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Body {
    thread_counts: Vec<usize>,
    repetitions: usize,
    entries: Vec<Entry>,
}

/// Times `run` at every thread count (best of `reps`), appending one entry
/// per count and gating that every digest equals the 1-thread one.
fn sweep<D: PartialEq>(
    name: &str,
    reps: usize,
    entries: &mut Vec<Entry>,
    gates: &mut Gates,
    run: impl Fn(usize) -> D,
) {
    let mut baseline: Option<(D, f64)> = None;
    let mut deterministic = true;
    for &t in &THREAD_COUNTS {
        let mut best_ms = f64::INFINITY;
        let mut digest = None;
        for _ in 0..reps {
            let started = Instant::now();
            let d = run(t);
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            digest = Some(d);
        }
        let digest = digest.expect("at least one repetition");
        match &baseline {
            None => baseline = Some((digest, best_ms)),
            Some((reference, _)) => deterministic &= *reference == digest,
        }
        let speedup = baseline
            .as_ref()
            .map_or(1.0, |(_, base_ms)| base_ms / best_ms);
        eprintln!("  {name:<22} threads={t}: {best_ms:8.2} ms  (x{speedup:.2} vs 1)");
        entries.push(Entry {
            bench: name.to_string(),
            threads: t,
            wall_ms: best_ms,
            speedup_vs_1: speedup,
        });
    }
    gates.check(format_args!("{name}.deterministic"), deterministic);
}

/// Simulated-result digest of a search outcome: bitwise thresholds plus the
/// full evaluation log, so any reordering or numeric drift is caught.
fn search_digest(outcome: &SearchOutcome) -> (u64, SimTime, SimTime, Vec<(u64, SimTime)>) {
    (
        outcome.best_t.to_bits(),
        outcome.best_time,
        outcome.search_cost,
        outcome
            .evals
            .iter()
            .map(|&(t, time)| (t.to_bits(), time))
            .collect(),
    )
}

/// Runs the section.
pub fn run(cfg: &Config, gates: &mut Gates) -> Value {
    let reps = if cfg.quick { 1 } else { 3 };
    let (search_rows, graph_n, spgemm_n, gemm_n) = if cfg.quick {
        (8_000, 280_000, 30_000, 160)
    } else {
        (150_000, 400_000, 120_000, 384)
    };
    let cores = available_parallelism();
    eprintln!("{cores} hardware thread(s), best of {reps} rep(s)");

    let mut entries = Vec::new();

    eprintln!("building inputs...");
    let platform = Platform::k40c_xeon_e5_2650();
    let spmm = SpmmWorkload::new(
        sparse_gen::uniform_random(search_rows, 12, cfg.seed),
        platform,
    );
    let web = graph_gen::web(graph_n, 8, cfg.seed);
    let spgemm_a = sparse_gen::power_law(spgemm_n, 10, 2.5, cfg.seed);
    let gemm_a = DenseMatrix::random(gemm_n, gemm_n, cfg.seed);
    let gemm_b = DenseMatrix::random(gemm_n, gemm_n, cfg.seed.wrapping_add(1));

    sweep("search.exhaustive", reps, &mut entries, gates, |t| {
        let pool = Pool::new(t);
        search_digest(
            &Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
                .pool(&pool)
                .run(&spmm),
        )
    });
    sweep("search.coarse_to_fine", reps, &mut entries, gates, |t| {
        let pool = Pool::new(t);
        search_digest(&Searcher::new(Strategy::CoarseToFine).pool(&pool).run(&spmm))
    });
    sweep("kernel.cc_sv", reps, &mut entries, gates, |t| {
        let out = cc_sv(&web, t);
        (out.labels, out.rounds, out.doubling_passes, out.stats)
    });
    sweep("kernel.spgemm", reps, &mut entries, gates, |t| {
        spgemm_parallel(&spgemm_a, &spgemm_a, t)
    });
    sweep("kernel.gemm", reps, &mut entries, gates, |t| {
        gemm_parallel(&gemm_a, &gemm_b, t).data().to_vec()
    });

    gates.check("entries", entries.len() == 5 * THREAD_COUNTS.len());
    gates.check("wall_ms_positive", entries.iter().all(|e| e.wall_ms > 0.0));
    // Only meaningful with real parallel hardware: on a single-core host
    // every thread count collapses onto one CPU, so the gate is measured
    // but skipped rather than asserted vacuously.
    let best = entries
        .iter()
        .filter(|e| e.threads > 1)
        .map(|e| e.speedup_vs_1)
        .fold(0.0f64, f64::max);
    gates
        .min("best_speedup_vs_1", best, 1.1)
        .skip_if(cores == 1, "available_parallelism == 1");

    Body {
        thread_counts: THREAD_COUNTS.to_vec(),
        repetitions: reps,
        entries,
    }
    .to_value()
}
