//! `drift` section — incremental re-estimation through the drift layer.
//!
//! The drift layer (`nbwp_core::drift`) promises that after a workload
//! delta, span-patched curves, chained fingerprints, and warm-restarted
//! threshold searches are *exactly* what a from-scratch re-estimation
//! would produce — only cheaper. This section replays mutate-estimate
//! loops at three delta fractions (0.1%, 1%, 10% of the input's work
//! units) on the cc and spmm workloads and checks both halves:
//!
//! 1. **Parity** (always on, every mode): after every step, the patched
//!    profile is bitwise-compared against a fresh build of the drifted
//!    workload and the chained fingerprint's statistics against a fresh
//!    sketch. The served threshold is scored against a cold curve
//!    minimization: on a multi-modal curve the warm hill-descent may
//!    settle in a neighbouring basin, so the gate bounds the *cost* of
//!    the served threshold over the cold minimum (≤1%) rather than
//!    demanding bitwise-equal thresholds. No step may fall back to a
//!    full rebuild.
//! 2. **Throughput** (full mode, per the enforce-or-skip convention): at
//!    the 1% fraction, the patched mutate-estimate step must be at least
//!    5x cheaper than a cold rebuild step (apply delta + full profile
//!    rebuild + cold search). Quick mode measures and reports the ratio
//!    without enforcing.
//!
//! Inputs are banded (FEM-style) so edits stay local: SpGEMM's A×A
//! coupling spreads an edited row to every row referencing it, which for
//! a banded matrix is a bandwidth-wide halo rather than the whole input.
//! The measured span fractions land in the JSON — they are the
//! measurement behind `PATCH_CROSSOVER_FRACTION` (see DESIGN.md).
//!
//! The patch-vs-rebuild **policy comparison** replays every
//! scenario under the adaptive crossover (the default), the
//! fixed patch-at-`PATCH_CROSSOVER_FRACTION` policy, and rebuild-always,
//! and their total work — the deterministic unit the adaptive policy
//! itself optimizes, `touched span + curve probes` summed over the steps
//! — is compared. The `adaptive_vs_best_fixed` gate (enforced in every
//! mode; work units are deterministic) requires the adaptive policy to
//! match or beat the better fixed policy on every scenario.

use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sparse_gen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

use super::{Config, QUICK_SKIP};
use crate::harness::Gates;

/// Delta fractions exercised per workload (touched units / total units).
const FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];

/// The fraction the ≥5x patched-vs-cold gate is applied at.
const GATED_FRACTION: f64 = 0.01;

#[derive(Serialize)]
struct Entry {
    workload: String,
    fraction: f64,
    units: usize,
    steps: usize,
    /// Mean re-profiled span over the steps, as a fraction of the input
    /// (includes the A×A coupling halo for spmm).
    mean_span_fraction: f64,
    patched_step_ms: f64,
    cold_step_ms: f64,
    speedup_patched_vs_cold: f64,
    /// Worst step's cost of serving the warm threshold over the cold
    /// minimum, in percent (0 when every step lands on the cold argmin).
    max_serve_vs_cold_regret_pct: f64,
    decisions_patched: u64,
    decisions_nudged: u64,
    decisions_rebuilt: u64,
    /// Total deterministic work (touched span + curve probes, summed over
    /// the steps) under the adaptive crossover — the unit the policy
    /// itself optimizes, so the comparison is exact and machine-independent.
    adaptive_work_units: u64,
    /// Same stream under the fixed patch-at-[`PATCH_CROSSOVER_FRACTION`]
    /// policy (the pre-adaptive default).
    fixed_patch_work_units: u64,
    /// Same stream under rebuild-always (`with_crossover(0.0)`).
    rebuild_always_work_units: u64,
    /// `adaptive_work_units / min(fixed policies)` — ≤ 1.0 means the
    /// adaptive crossover matched or beat the better fixed policy.
    adaptive_vs_best_fixed: f64,
    parity: bool,
}

#[derive(Serialize)]
struct Body {
    repetitions: usize,
    entries: Vec<Entry>,
}

/// Fingerprint statistics equality — every field except the digest, which
/// is a chain commitment and intentionally differs from a fresh sketch.
fn fingerprint_stats_eq(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.kind == b.kind
        && a.n == b.n
        && a.m == b.m
        && a.mean_degree.to_bits() == b.mean_degree.to_bits()
        && a.degree_cv.to_bits() == b.degree_cv.to_bits()
        && a.max_degree == b.max_degree
        && a.degree_sq_sum == b.degree_sq_sum
        && a.log2_hist == b.log2_hist
        && a.density_class == b.density_class
}

/// A windowed edge-edit script for the cc workload: each step inserts and
/// deletes edges whose endpoints lie inside one `fraction·n`-wide window,
/// so the touched vertex span tracks the fraction. Inserts may duplicate
/// existing edges and deletes may name absent ones — both are legal
/// no-ops the delta applier must tolerate.
fn cc_script(n: usize, steps: usize, fraction: f64, seed: u64) -> Vec<GraphDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = ((n as f64 * fraction) as usize).clamp(2, n);
    (0..steps)
        .map(|_| {
            let c = rng.gen_range(0..=n - w);
            let edge = |rng: &mut SmallRng| {
                let u = c + rng.gen_range(0..w);
                let v = c + rng.gen_range(0..w);
                (u.min(v) as u32, u.max(v) as u32)
            };
            let mut d = GraphDelta::default();
            for _ in 0..(w / 3).max(1) {
                let (u, v) = edge(&mut rng);
                if u != v {
                    d.insert.push((u, v));
                }
            }
            for _ in 0..(w / 6).max(1) {
                let (u, v) = edge(&mut rng);
                if u != v {
                    d.delete.push((u, v));
                }
            }
            d
        })
        .collect()
}

/// A windowed row-replacement script for the spmm workload: each step
/// replaces every row in one `fraction·n`-wide window with a fresh banded
/// pattern (columns within `bandwidth` of the diagonal, so the matrix
/// stays banded and the A×A coupling halo stays bandwidth-sized), plus
/// one value-only scale.
fn spmm_script(
    n: usize,
    bandwidth: usize,
    steps: usize,
    fraction: f64,
    seed: u64,
) -> Vec<CsrDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = ((n as f64 * fraction) as usize).clamp(1, n);
    (0..steps)
        .map(|_| {
            let c = rng.gen_range(0..=n - w);
            let mut ops: Vec<RowOp> = (c..c + w)
                .map(|row| {
                    let lo = row.saturating_sub(bandwidth);
                    let hi = (row + bandwidth).min(n - 1);
                    let mut cols: Vec<u32> = (0..rng.gen_range(2..7))
                        .map(|_| rng.gen_range(lo..=hi) as u32)
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let vals = vec![1.0; cols.len()];
                    RowOp::Replace { row, cols, vals }
                })
                .collect();
            ops.push(RowOp::Scale {
                row: c,
                factor: 1.5,
            });
            CsrDelta { ops }
        })
        .collect()
}

/// Replays one delta script three ways for one workload/fraction pair:
/// a checked replay (per-step parity against fresh builds), a timed
/// patched replay through [`DriftServer`], and a timed cold replay.
///
/// `refresh` reconstructs a workload from its raw (drifted) input — the
/// from-scratch re-estimation a deployment without the drift layer would
/// run. For spmm that re-runs the full SpGEMM row profile; reusing the
/// incrementally-patched per-row profile would make "cold" artificially
/// cheap.
#[allow(clippy::too_many_arguments)]
fn run_script<W>(
    name: &str,
    base: &W,
    deltas: &[W::Delta],
    fraction: f64,
    reps: usize,
    profile_eq: impl Fn(&W::Profile, &W::Profile) -> bool,
    refresh: impl Fn(&W) -> W,
    gates: &mut Gates,
) -> Entry
where
    W: DriftWorkload + Clone,
{
    let pool = Pool::global();
    let units = base.units();

    // Checked replay: every step's patched state vs a from-scratch one.
    let (mut profile_mismatches, mut fingerprint_mismatches) = (0usize, 0usize);
    let (mut n_patched, mut n_nudged, mut n_rebuilt) = (0u64, 0u64, 0u64);
    let mut span_sum = 0usize;
    let mut max_regret = 0.0f64;
    {
        let mut server = DriftServer::new(base.clone());
        for d in deltas {
            let step = server.apply(d);
            match step.decision {
                DriftDecision::Patched => n_patched += 1,
                DriftDecision::Nudged => n_nudged += 1,
                DriftDecision::Rebuilt => n_rebuilt += 1,
            }
            span_sum += step.span.len();
            let fresh = server.workload().build_profile(pool);
            profile_mismatches += usize::from(!profile_eq(server.profile(), &fresh));
            // Warm descent may settle in a neighbouring basin of a
            // multi-modal curve; what must hold is that serving its
            // threshold costs (almost) nothing over the cold minimum.
            let space = server.workload().space();
            let curve = server.workload().curve(&fresh).expect("curve");
            let cold = minimize_partition(
                curve.as_ref(),
                DeviceSet::cpu_gpu_static(),
                &space,
                space.fine_step,
                None,
            )
            .expect("the canonical pair prices every curve");
            let served = curve.total_at(curve.split_for(space.clamp(step.threshold)));
            let regret = if cold.total.as_secs() > 0.0 {
                (served.as_secs() / cold.total.as_secs() - 1.0) * 100.0
            } else {
                0.0
            };
            max_regret = max_regret.max(regret);
            drop(curve);
            let drifted = server.workload().fingerprint();
            fingerprint_mismatches += usize::from(!fingerprint_stats_eq(
                &drifted,
                &refresh(server.workload()).fingerprint(),
            ));
        }
    }
    let pct = fraction * 100.0;
    gates.max(
        format_args!("{name}.profile_mismatches@{pct}%"),
        profile_mismatches as f64,
        0.0,
    );
    gates.max(
        format_args!("{name}.fingerprint_mismatches@{pct}%"),
        fingerprint_mismatches as f64,
        0.0,
    );

    // Policy comparison: the same delta stream under the adaptive
    // crossover and under both fixed policies, scored in the
    // deterministic work unit the adaptive policy minimizes — touched
    // span plus curve probes per step. The initial cold search inside
    // `DriftServer::new` is identical across policies and excluded by
    // summing only the per-step costs.
    let replay_work = |mut server: DriftServer<W>| -> u64 {
        deltas
            .iter()
            .map(|d| {
                let step = server.apply(d);
                (step.span.len() + step.probes) as u64
            })
            .sum()
    };
    let adaptive_work = replay_work(DriftServer::new(base.clone()));
    let fixed_patch_work =
        replay_work(DriftServer::new(base.clone()).with_crossover(PATCH_CROSSOVER_FRACTION));
    let rebuild_always_work = replay_work(DriftServer::new(base.clone()).with_crossover(0.0));
    let best_fixed = fixed_patch_work.min(rebuild_always_work);
    let adaptive_vs_best_fixed = adaptive_work as f64 / best_fixed.max(1) as f64;

    // Timed patched replay: the steady mutate-estimate loop.
    let mut patched_best = f64::INFINITY;
    for _ in 0..reps {
        let mut server = DriftServer::new(base.clone());
        let started = Instant::now();
        for d in deltas {
            std::hint::black_box(server.apply(d));
        }
        patched_best = patched_best.min(started.elapsed().as_secs_f64() * 1e3);
    }

    // Timed cold replay: the same stream priced as full re-estimations
    // (re-profile the drifted input from scratch, then a cold search).
    let mut cold_best = f64::INFINITY;
    for _ in 0..reps {
        let mut w = base.clone();
        let started = Instant::now();
        for d in deltas {
            let (next, _span) = w.apply_delta(d);
            let fresh = refresh(&next);
            let profile = fresh.build_profile(pool);
            let space = fresh.space();
            let curve = fresh.curve(&profile).expect("curve");
            std::hint::black_box(minimize_partition(
                curve.as_ref(),
                DeviceSet::cpu_gpu_static(),
                &space,
                space.fine_step,
                None,
            ));
            drop(curve);
            w = next;
        }
        cold_best = cold_best.min(started.elapsed().as_secs_f64() * 1e3);
    }

    let steps = deltas.len();
    let patched_step_ms = patched_best / steps as f64;
    let cold_step_ms = cold_best / steps as f64;
    let speedup = cold_step_ms / patched_step_ms.max(1e-9);
    let mean_span_fraction = span_sum as f64 / steps as f64 / units.max(1) as f64;
    eprintln!(
        "  {name:<5} {:>5.1}% drift | span {:>5.2}% | patched {patched_step_ms:8.4} ms/step | cold {cold_step_ms:8.4} ms/step | x{speedup:<6.1} | regret {max_regret:.4}% | {n_patched} patched / {n_nudged} nudged / {n_rebuilt} rebuilt | work adaptive {adaptive_work} vs fixed {fixed_patch_work}/{rebuild_always_work} ({:.3})",
        fraction * 100.0,
        mean_span_fraction * 100.0,
        adaptive_vs_best_fixed,
    );
    Entry {
        workload: name.to_string(),
        fraction,
        units,
        steps,
        mean_span_fraction,
        patched_step_ms,
        cold_step_ms,
        speedup_patched_vs_cold: speedup,
        max_serve_vs_cold_regret_pct: max_regret,
        decisions_patched: n_patched,
        decisions_nudged: n_nudged,
        decisions_rebuilt: n_rebuilt,
        adaptive_work_units: adaptive_work,
        fixed_patch_work_units: fixed_patch_work,
        rebuild_always_work_units: rebuild_always_work,
        adaptive_vs_best_fixed,
        parity: profile_mismatches == 0 && fingerprint_mismatches == 0,
    }
}

/// Gates for one entry: the served threshold must always stay within 1%
/// of the cold minimum, the adaptive crossover must match or beat the
/// better fixed policy in deterministic work units, and no step may
/// rebuild (all enforced in every mode); at the gated fraction the
/// patched step must be ≥5x cheaper than a cold re-estimation (wall
/// clock, full mode only).
fn push_gates(entry: &Entry, quick: bool, gates: &mut Gates) {
    let (name, pct) = (&entry.workload, entry.fraction * 100.0);
    gates.max(
        format_args!("{name}.serve_regret@{pct}%"),
        entry.max_serve_vs_cold_regret_pct,
        1.0,
    );
    gates.max(
        format_args!("{name}.adaptive_vs_best_fixed@{pct}%"),
        entry.adaptive_vs_best_fixed,
        1.0,
    );
    if entry.fraction == GATED_FRACTION {
        gates
            .min(
                format_args!("{name}.patched_vs_cold@1%"),
                entry.speedup_patched_vs_cold,
                5.0,
            )
            .skip_if(quick, QUICK_SKIP);
    }
    gates.max(
        format_args!("{name}.decisions_rebuilt@{pct}%"),
        entry.decisions_rebuilt as f64,
        0.0,
    );
}

/// Runs the section.
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config, gates: &mut Gates) -> Value {
    let reps = if cfg.quick { 3 } else { 5 };
    let (cc_n, spmm_n, steps) = if cfg.quick {
        (30_000, 20_000, 6)
    } else {
        (150_000, 100_000, 8)
    };
    let bandwidth = 16;
    eprintln!("best of {reps} rep(s), {steps} steps per script");

    let platform = Platform::k40c_xeon_e5_2650();
    eprintln!("building inputs...");
    let cc_base = CcWorkload::new(graph_gen::fem(cc_n, bandwidth, 8, cfg.seed), platform);
    let spmm_base = SpmmWorkload::new(
        sparse_gen::banded_fem(spmm_n, bandwidth, 7, cfg.seed),
        platform,
    );

    let mut entries = Vec::new();

    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        let script = cc_script(cc_n, steps, fraction, cfg.seed + fi as u64);
        let entry = run_script(
            "cc",
            &cc_base,
            &script,
            fraction,
            reps,
            |patched, fresh| patched.raw_curves() == fresh.raw_curves(),
            |w| CcWorkload::new(w.graph().clone(), platform),
            gates,
        );
        push_gates(&entry, cfg.quick, gates);
        entries.push(entry);
    }
    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        let script = spmm_script(
            spmm_n,
            bandwidth,
            steps,
            fraction,
            cfg.seed + 100 + fi as u64,
        );
        let entry = run_script(
            "spmm",
            &spmm_base,
            &script,
            fraction,
            reps,
            |patched, fresh| {
                patched.curves() == fresh.curves() && patched.partition() == fresh.partition()
            },
            |w| SpmmWorkload::new(w.matrix().clone(), platform),
            gates,
        );
        push_gates(&entry, cfg.quick, gates);
        entries.push(entry);
    }

    // cc and spmm, each replayed at 0.1% / 1% / 10% drift, with both
    // step timings measured.
    gates.check(
        "rows",
        entries
            .iter()
            .map(|e| (e.workload.as_str(), e.fraction))
            .eq(["cc", "spmm"]
                .into_iter()
                .flat_map(|w| FRACTIONS.map(|f| (w, f)))),
    );
    gates.check(
        "step_timings_positive",
        entries
            .iter()
            .all(|e| e.patched_step_ms > 0.0 && e.cold_step_ms > 0.0),
    );

    Body {
        repetitions: reps,
        entries,
    }
    .to_value()
}
