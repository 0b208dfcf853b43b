//! `serve_drift`: reads and writes through one shared `ThresholdCache`,
//! audited by a `FlightRecorder` — Zipf-repeated exact hits, perturbed
//! siblings that warm-start from a near key, fresh inputs that miss, scalar
//! and k-way requests, and interleaved drift batches that bump the cache
//! generation.

use std::collections::HashMap;

use nbwp_core::fingerprint::ExactKey;
use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::{gen as graph_gen, Graph};
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::{gen as sparse_gen, Csr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    check_cuts, check_in_space, estimate_bits, guarded, ms_since, partition_bits, scalar_matches,
    Layers, Phase, Served,
};
use crate::{Cfg, Decision, Workload};

// The traffic mix below is an assumption of this benchmark: no request
// trace of a threshold-serving deployment exists to take it from. Each
// constant says why it has its value; every run prints the planned mix and
// the realized exact/near/miss/drift shares per cycle beside it.

/// Requests per cycle: eight write windows of `WRITE_EVERY` requests.
const CYCLE: usize = 128;
/// Every 16th request is a drift batch (one write per 15 reads), so each
/// cycle bumps the cache generation four times per workload family while
/// reads stay the bulk of the traffic.
const WRITE_EVERY: usize = 16;
/// The read in this position of each write window goes to a fresh input,
/// so the cache meets an input it has never seen in every window.
const FRESH_SLOT: usize = 7;
/// Cache capacity per map, below the 18 distinct inputs, so the cache
/// evicts every cycle instead of holding the whole working set.
const CAPACITY: usize = 8;
/// Inputs `0..REGISTRY` are kept built (bases, then siblings); the rest
/// are fresh inputs, rebuilt from raw data on every request.
const REGISTRY: usize = 14;
/// Zipf exponent over the registry inputs. Slightly above 1, the top
/// input draws 34% of these reads and the top eight (the cache capacity)
/// 86%, while the least popular input is still read about twice a cycle.
const ZIPF_S: f64 = 1.1;
/// Read modes, out of ten: six scalar (`run_cached`, the paper's setting
/// and the CLI's default), two k=2 (the canonical pair, routed through the
/// scalar search) and two k=4 (multi-seed descent). k=8 is left to
/// `kway_partition`.
const SCALAR_OF_10: i32 = 6;
const K2_OF_10: i32 = 2;
/// Pre-generated drift batches per drifting input; later steps wrap.
const DELTAS: usize = 1024;
/// The request schedule is fixed (only the inputs depend on the seed), so
/// every seed serves the same mix of hits, warm starts and misses.
const SCHEDULE_SEED: u64 = 0x5eed_0f5e_57ab_1e00;

#[derive(Clone)]
enum Raw {
    Graph(Graph),
    Matrix(Csr),
}

#[derive(Clone)]
enum Input {
    Cc(CcWorkload),
    Spmm(SpmmWorkload),
}

#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Scalar,
    Partition(usize),
}

#[derive(Copy, Clone)]
enum Slot {
    Read { input: usize, mode: Mode },
    Write { spmm: bool },
}

#[derive(Copy, Clone, PartialEq, Debug)]
enum Class {
    Exact,
    Near,
    Miss,
    Drift,
    Failed,
}

/// Live serving state: rebuilt from the raw inputs by [`ServeDrift::reset`]
/// so a second phase replays the first one from the same start.
struct State {
    cache: &'static ThresholdCache,
    audit: Option<&'static FlightRecorder>,
    inputs: Vec<Input>,
    cc_drift: DriftServer<'static, CcWorkload>,
    spmm_drift: DriftServer<'static, SpmmWorkload>,
    writes: [usize; 2],
    /// Class and slot of every request since the warm-up.
    log: Vec<(Class, usize)>,
    /// Bits of the last computed (non-exact-hit) answer per (exact key,
    /// mode).
    populated: HashMap<(ExactKey, usize), Vec<u64>>,
}

pub struct ServeDrift {
    seed: u64,
    platform: Platform,
    raw: Vec<Raw>,
    cc_deltas: Vec<GraphDelta>,
    spmm_deltas: Vec<CsrDelta>,
    schedule: Vec<Slot>,
    dual: DeviceSet,
    state: State,
}

/// A small windowed edge edit: inserts and deletes inside a window of
/// `fraction · n` vertices.
fn graph_delta(n: usize, fraction: f64, rng: &mut SmallRng) -> GraphDelta {
    let w = ((n as f64 * fraction) as usize).clamp(2, n);
    let c = rng.gen_range(0..=n - w);
    let mut d = GraphDelta::default();
    for k in 0..(w / 2).max(2) {
        let (u, v) = (c + rng.gen_range(0..w), c + rng.gen_range(0..w));
        if u != v {
            let e = (u.min(v) as u32, u.max(v) as u32);
            if k % 3 == 2 {
                d.delete.push(e);
            } else {
                d.insert.push(e);
            }
        }
    }
    d
}

/// A small windowed row replacement that keeps a banded matrix banded.
fn csr_delta(n: usize, band: usize, fraction: f64, rng: &mut SmallRng) -> CsrDelta {
    let w = ((n as f64 * fraction) as usize).clamp(1, n);
    let c = rng.gen_range(0..=n - w);
    let mut ops: Vec<RowOp> = (c..c + w)
        .map(|row| {
            let (lo, hi) = (row.saturating_sub(band), (row + band).min(n - 1));
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
}

fn build(raw: &Raw, platform: Platform) -> Input {
    match raw {
        Raw::Graph(g) => Input::Cc(CcWorkload::new(g.clone(), platform)),
        Raw::Matrix(a) => Input::Spmm(SpmmWorkload::new(a.clone(), platform)),
    }
}

impl ServeDrift {
    /// Builds the inputs from `cfg.seed`: four cc and three spmm bases, a
    /// perturbed sibling of each (a ~0.5% edit, same near key), and four
    /// fresh inputs; the drift batches; the fixed request schedule; and the
    /// serving state, warmed by one untimed cycle.
    pub fn setup(cfg: &Cfg) -> ServeDrift {
        let n = ((1_000_000.0 * cfg.scale) as usize).max(256);
        let band = (n / 50).max(8);
        let s = cfg.seed;
        let mut rng = SmallRng::seed_from_u64(s ^ 0xd1f7);
        let cc_bases = [
            graph_gen::web(n, 6, s),
            graph_gen::road(n, s + 1),
            graph_gen::random(n, 8, s + 2),
            graph_gen::mesh(n, s + 3),
        ];
        let spmm_bases = [
            sparse_gen::banded_fem(n, band, 16, s + 4),
            sparse_gen::power_law(n, 6, 2.1, s + 5),
            sparse_gen::uniform_random(n, 8, s + 6),
        ];
        let mut raw: Vec<Raw> = Vec::new();
        for g in &cc_bases {
            raw.push(Raw::Graph(g.clone()));
        }
        for a in &spmm_bases {
            raw.push(Raw::Matrix(a.clone()));
        }
        for g in &cc_bases {
            let base = CcWorkload::new(g.clone(), cfg.platform);
            let (sib, _) = base.apply_delta(&graph_delta(n, 0.005, &mut rng));
            raw.push(Raw::Graph(sib.graph().clone()));
        }
        for a in &spmm_bases {
            let base = SpmmWorkload::new(a.clone(), cfg.platform);
            let (sib, _) = base.apply_delta(&csr_delta(n, band, 0.005, &mut rng));
            raw.push(Raw::Matrix(sib.matrix().clone()));
        }
        raw.push(Raw::Graph(graph_gen::fem(n, band, 10, s + 7)));
        raw.push(Raw::Graph(graph_gen::disjoint_pieces(n, 16, 4, s + 8)));
        raw.push(Raw::Matrix(sparse_gen::road_network(n, s + 9)));
        raw.push(Raw::Matrix(sparse_gen::power_law(n, 12, 1.8, s + 10)));

        let cc_deltas = (0..DELTAS)
            .map(|_| graph_delta(n, 0.01, &mut rng))
            .collect();
        let spmm_deltas = (0..DELTAS)
            .map(|_| csr_delta(n, band, 0.01, &mut rng))
            .collect();

        // Zipf over the registry inputs (bases then siblings); one read
        // per write window goes to a fresh input, in turn.
        let weights: Vec<f64> = (1..=REGISTRY)
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut srng = SmallRng::seed_from_u64(SCHEDULE_SEED);
        let mut schedule = Vec::with_capacity(CYCLE);
        for j in 0..CYCLE {
            if j % WRITE_EVERY == WRITE_EVERY - 1 {
                schedule.push(Slot::Write {
                    spmm: (j / WRITE_EVERY) % 2 == 1,
                });
                continue;
            }
            let input = if j % WRITE_EVERY == FRESH_SLOT {
                REGISTRY + (j / WRITE_EVERY) % (raw.len() - REGISTRY)
            } else {
                let mut x = srng.gen::<f64>() * total;
                weights
                    .iter()
                    .position(|w| {
                        x -= w;
                        x <= 0.0
                    })
                    .unwrap_or(REGISTRY - 1)
            };
            let mode = match srng.gen_range(0..10) {
                r if r < SCALAR_OF_10 => Mode::Scalar,
                r if r < SCALAR_OF_10 + K2_OF_10 => Mode::Partition(2),
                _ => Mode::Partition(4),
            };
            schedule.push(Slot::Read { input, mode });
        }

        let state = Self::fresh_state(&raw, cfg.platform, true);
        let mut bench = ServeDrift {
            seed: s,
            platform: cfg.platform,
            raw,
            cc_deltas,
            spmm_deltas,
            schedule,
            dual: DeviceSet::dual_cpu_dual_gpu(),
            state,
        };
        bench.warm_up();
        bench
    }

    fn fresh_state(raw: &[Raw], platform: Platform, audited: bool) -> State {
        // Leaked so the estimators and drift servers can borrow them for
        // the whole run; a run builds at most a few states.
        let cache: &'static ThresholdCache = Box::leak(Box::new(ThresholdCache::new(CAPACITY)));
        let audit: Option<&'static FlightRecorder> =
            audited.then(|| &*Box::leak(Box::new(FlightRecorder::new())));
        let inputs: Vec<Input> = raw.iter().map(|r| build(r, platform)).collect();
        let (Input::Cc(cc), Input::Spmm(spmm)) = (inputs[0].clone(), inputs[4].clone()) else {
            unreachable!("input 0 is a cc base, input 4 an spmm base")
        };
        // The drifting inputs are deep copies, so the read registry keeps
        // its own fingerprints and the writes only reach the cache.
        let cc = CcWorkload::new(cc.graph().clone(), platform);
        let spmm = SpmmWorkload::new(spmm.matrix().clone(), platform);
        let mut cc_drift = DriftServer::new(cc).with_cache(cache);
        let mut spmm_drift = DriftServer::new(spmm).with_cache(cache);
        if let Some(a) = audit {
            cc_drift = cc_drift.with_audit(a);
            spmm_drift = spmm_drift.with_audit(a);
        }
        State {
            cache,
            audit,
            inputs,
            cc_drift,
            spmm_drift,
            writes: [0, 0],
            log: Vec::new(),
            populated: HashMap::new(),
        }
    }

    /// One untimed cycle, so the timed phase starts from a warm cache.
    fn warm_up(&mut self) {
        for i in 0..CYCLE {
            let _ = self.request(i, None);
        }
        self.state.log.clear();
    }

    fn estimator(&self) -> Estimator<'static> {
        let e = Estimator::new(Strategy::Analytic { step: None })
            .seed(self.seed)
            .cache(self.state.cache)
            .shadow_rate(DEFAULT_SHADOW_RATE);
        match self.state.audit {
            Some(a) => e.audit(a),
            None => e,
        }
    }
}

/// Classifies a read from the cache counters it moved.
fn classify(before: &CacheStats, after: &CacheStats) -> Class {
    if after.exact_hits + after.kway_exact_hits > before.exact_hits + before.kway_exact_hits {
        Class::Exact
    } else if after.near_hits + after.kway_near_hits > before.near_hits + before.kway_near_hits {
        Class::Near
    } else {
        Class::Miss
    }
}

fn read<W>(
    w: &W,
    e: Estimator<'_>,
    mode: Mode,
    set: &DeviceSet,
    what: &str,
    l: Option<&mut Layers>,
) -> Served
where
    W: Sampleable + Profilable + Fingerprinted,
    W::Sample: Profilable,
{
    let space = w.space();
    let answer = || match mode {
        Mode::Scalar => {
            let est = e.profiled().run_cached(w);
            (
                estimate_bits(&est),
                check_in_space(what, est.threshold, &space),
            )
        }
        Mode::Partition(k) => {
            let set = if k == 2 {
                DeviceSet::cpu_gpu_static()
            } else {
                set
            };
            let out = e.devices(set).profiled().run_partition_cached(w);
            (partition_bits(&out), check_cuts(what, &out.cuts, &space))
        }
    };
    let (bits, problem) = match l {
        None => answer(),
        Some(l) => {
            l.time("fingerprint.wall_ms", || w.fingerprint());
            l.time("cache.wall_ms", answer)
        }
    };
    Served {
        bits,
        problem,
        ..Served::default()
    }
}

fn drift_bits(step: &DriftStep) -> Vec<u64> {
    let mut v = vec![step.decision as u64];
    v.extend(step.cuts.iter().map(|c| c.to_bits()));
    v.extend([
        step.total.as_secs().to_bits(),
        step.probes as u64,
        step.probes_saved,
        step.regret_pct.to_bits(),
        step.span.start as u64,
        step.span.end as u64,
        step.span_fraction.to_bits(),
        step.crossover_estimate.to_bits(),
    ]);
    v
}

fn write<W: DriftWorkload>(
    server: &mut DriftServer<'_, W>,
    delta: &W::Delta,
    l: Option<&mut Layers>,
) -> Served {
    let step = match l {
        None => server.apply(delta),
        Some(l) => {
            let t = std::time::Instant::now();
            let step = server.apply(delta);
            let ms = ms_since(t);
            l.add("drift.wall_ms", ms);
            l.sample("drift.apply_ms", ms);
            l.add(
                match step.decision {
                    DriftDecision::Patched => "drift.patched",
                    DriftDecision::Nudged => "drift.nudged",
                    DriftDecision::Rebuilt => "drift.rebuilt",
                },
                1.0,
            );
            l.sample("drift.span_fraction", step.span_fraction);
            l.sample("drift.regret_pct", step.regret_pct);
            step
        }
    };
    let mut served = Served::ok(drift_bits(&step), step.total.as_millis());
    served.problem = check_cuts("drift step", &step.cuts, &server.workload().space());
    served
}

impl Workload for ServeDrift {
    fn cycle_len(&self) -> usize {
        CYCLE
    }

    fn request(&mut self, i: usize, mut layers: Option<&mut Layers>) -> Served {
        let start = std::time::Instant::now();
        let slot = self.schedule[i];
        let e = self.estimator();
        let st = &mut self.state;
        let before = st.cache.stats();
        let events = st.audit.map_or(0, |a| a.totals().requests);
        let (mut served, exact) = match slot {
            Slot::Write { spmm } => {
                let j = st.writes[usize::from(spmm)];
                st.writes[usize::from(spmm)] += 1;
                let l = layers.as_deref_mut();
                let served = if spmm {
                    let d = &self.spmm_deltas[j % DELTAS];
                    guarded(|| write(&mut st.spmm_drift, d, l))
                } else {
                    let d = &self.cc_deltas[j % DELTAS];
                    guarded(|| write(&mut st.cc_drift, d, l))
                };
                (served, None)
            }
            Slot::Read { input, mode } => {
                let what = format!("serve input {input}");
                let (set, mut l) = (&self.dual, layers.as_deref_mut());
                // A fresh input arrives as raw data: the client builds a
                // new workload, so its first fingerprint is paid again.
                let fresh = (input >= REGISTRY).then(|| match l.as_deref_mut() {
                    None => build(&self.raw[input], self.platform),
                    Some(l) => l.time("build.wall_ms", || build(&self.raw[input], self.platform)),
                });
                let w = fresh.as_ref().unwrap_or(&st.inputs[input]);
                let served = guarded(|| match w {
                    Input::Cc(w) => read(w, e, mode, set, &what, l),
                    Input::Spmm(w) => read(w, e, mode, set, &what, l),
                });
                // Identical inputs share one cache entry, so answers are
                // tracked by exact key, not by input.
                let key = (!served.failed()).then(|| match w {
                    Input::Cc(w) => w.fingerprint().exact_key(),
                    Input::Spmm(w) => w.fingerprint().exact_key(),
                });
                (served, key)
            }
        };
        let after = st.cache.stats();
        let class = match slot {
            _ if served.failed() => Class::Failed,
            Slot::Write { .. } => Class::Drift,
            Slot::Read { .. } => classify(&before, &after),
        };
        if let (Some(exact), Slot::Read { input, mode }) = (exact, slot) {
            let key = (exact, mode_k(mode));
            match class {
                // Exact hit ≡ the run that populated the entry, bitwise.
                Class::Exact if st.populated.get(&key) != Some(&served.bits) => {
                    served.problem.get_or_insert(format!(
                        "serve input {input}: exact hit differs from its populating run"
                    ));
                }
                Class::Near | Class::Miss => {
                    st.populated.insert(key, served.bits.clone());
                }
                _ => {}
            }
        }
        if let Some(l) = layers {
            let ms = ms_since(start);
            match class {
                Class::Exact => {
                    l.add("cache.exact_hits", 1.0);
                    l.sample("cache.exact_hit_us", ms * 1e3);
                }
                Class::Near => {
                    l.add("cache.near_hits", 1.0);
                    l.sample("cache.near_hit_ms", ms);
                }
                Class::Miss => {
                    l.add("cache.misses", 1.0);
                    l.sample("cache.miss_ms", ms);
                }
                _ => {}
            }
            l.add(
                "cache.probes_saved",
                (after.probes_saved - before.probes_saved) as f64,
            );
            l.add(
                "audit.shadow_runs",
                (after.shadow_runs - before.shadow_runs) as f64,
            );
            l.add(
                "audit.events",
                (st.audit.map_or(0, |a| a.totals().requests) - events) as f64,
            );
        }
        st.log.push((class, i));
        served
    }

    fn reset(&mut self) {
        self.state = Self::fresh_state(&self.raw, self.platform, true);
        self.warm_up();
    }

    fn checks(&mut self, phase: &Phase) -> Vec<String> {
        let mut out = Vec::new();
        for (s, (class, i)) in phase.served.iter().zip(&self.state.log) {
            if s.panicked {
                out.push(format!("serve_drift: slot {i} ({class:?}) panicked"));
            }
        }
        // Audited ≡ silent: replay the warm-up and the first cycle without
        // a flight recorder and compare every answer bitwise.
        let audited = std::mem::replace(
            &mut self.state,
            Self::fresh_state(&self.raw, self.platform, false),
        );
        self.warm_up();
        for i in 0..CYCLE.min(phase.served.len()) {
            if self.request(i, None).bits != phase.served[i].bits {
                out.push(format!(
                    "serve_drift: slot {i} differs between audited and silent serving"
                ));
            }
        }
        // k=2 partition ≡ scalar threshold, on the cold k=2 misses.
        for (s, &(class, i)) in phase.served.iter().zip(&audited.log).take(CYCLE) {
            let Slot::Read { input, mode } = self.schedule[i] else {
                continue;
            };
            if class != Class::Miss || mode != Mode::Partition(2) {
                continue;
            }
            let same = match &self.state.inputs[input] {
                Input::Cc(w) => scalar_matches(w, s),
                Input::Spmm(w) => scalar_matches(w, s),
            };
            if !same {
                out.push(format!(
                    "serve_drift: slot {i} k=2 partition differs from the scalar threshold"
                ));
            }
        }
        self.state = audited;
        out.truncate(16);
        out
    }

    fn notes(&self, phase: &Phase) -> Vec<String> {
        let per_cycle = |n: usize| n as f64 / phase.cycles.max(1) as f64;
        let planned = |f: &dyn Fn(&Slot) -> bool| self.schedule.iter().filter(|s| f(s)).count();
        let realized = |c: Class| per_cycle(self.state.log.iter().filter(|l| l.0 == c).count());
        let reads = |m: Mode| planned(&|s| matches!(s, Slot::Read { mode, .. } if *mode == m));
        vec![format!(
            "serve_drift mix per {CYCLE}-request cycle (assumed): {} scalar, {} k=2, {} k=4 reads \
             ({} to fresh inputs), {} writes | realized per cycle: exact {:.2}, near {:.2}, \
             miss {:.2}, drift {:.2}, failed {:.2}",
            reads(Mode::Scalar),
            reads(Mode::Partition(2)),
            reads(Mode::Partition(4)),
            planned(&|s| matches!(s, Slot::Read { input, .. } if *input >= REGISTRY)),
            planned(&|s| matches!(s, Slot::Write { .. })),
            realized(Class::Exact),
            realized(Class::Near),
            realized(Class::Miss),
            realized(Class::Drift),
            realized(Class::Failed),
        )]
    }

    fn sim_makespan_ms(&self, phase: &Phase) -> f64 {
        phase
            .served
            .iter()
            .zip(&self.state.log)
            .take(CYCLE)
            .map(|(s, &(class, i))| match self.schedule[i] {
                _ if class == Class::Failed => 0.0,
                Slot::Write { .. } => s.sim_ms,
                Slot::Read {
                    mode: Mode::Partition(_),
                    ..
                } => f64::from_bits(s.bits[s.bits.len() - 3]) * 1e3,
                Slot::Read {
                    input,
                    mode: Mode::Scalar,
                } => {
                    let t = f64::from_bits(s.bits[0]);
                    match &self.state.inputs[input] {
                        Input::Cc(w) => w.time_at(t).as_millis(),
                        Input::Spmm(w) => w.time_at(t).as_millis(),
                    }
                }
            })
            .sum()
    }

    fn table1_rows(&self, phase: &Phase) -> Vec<ExperimentRow> {
        let pool = Pool::global();
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::new();
        for (s, &(class, i)) in phase.served.iter().zip(&self.state.log).take(CYCLE) {
            let Slot::Read { input, mode } = self.schedule[i] else {
                continue;
            };
            if class == Class::Failed
                || mode == Mode::Partition(4)
                || !seen.insert((input, mode_k(mode)))
            {
                continue;
            }
            let d = match mode {
                Mode::Scalar => Decision::from_estimate_bits(&s.bits),
                _ => Decision {
                    threshold: f64::from_bits(s.bits[0]),
                    overhead_ms: 0.0,
                    evaluations: 0,
                    sample_size: 0,
                },
            };
            let name = format!("serve input {input}");
            let config = ExperimentConfig::cc(self.seed);
            rows.push(match &self.state.inputs[input] {
                Input::Cc(w) => d.row(&name, w, &config, pool),
                Input::Spmm(w) => d.row(&name, w, &config, pool),
            });
        }
        rows
    }
}

fn mode_k(mode: Mode) -> usize {
    match mode {
        Mode::Scalar => 0,
        Mode::Partition(k) => k,
    }
}
