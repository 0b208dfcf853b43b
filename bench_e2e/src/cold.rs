//! `cold_estimate`: one `nbwp estimate` call per request, from MatrixMarket
//! bytes to the full hybrid run at the estimated threshold. No profile, no
//! cache.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::Graph;
use nbwp_sparse::io::read_matrix_market;
use nbwp_sparse::Csr;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{check_in_space, estimate_bits, guarded, Layers, Phase, Served};
use crate::{Cfg, Decision, Workload};

#[derive(Copy, Clone, Debug, PartialEq)]
enum Kind {
    Cc,
    Spmm,
    Hh,
}

impl Kind {
    /// The per-workload default strategy, as `nbwp estimate` resolves it.
    fn strategy(self) -> Strategy {
        match self {
            Kind::Cc => Strategy::CoarseToFine,
            Kind::Spmm => Strategy::RaceThenFine,
            Kind::Hh => Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS,
            },
        }
    }

    /// The Table I experiment configuration of this workload.
    fn experiment(self, seed: u64) -> ExperimentConfig {
        match self {
            Kind::Cc => ExperimentConfig::cc(seed),
            Kind::Spmm => ExperimentConfig::spmm(seed),
            Kind::Hh => ExperimentConfig::scalefree(seed),
        }
    }
}

struct Input {
    name: String,
    bytes: Vec<u8>,
    degenerate: bool,
}

struct Request {
    input: usize,
    kind: Kind,
    seed: u64,
}

pub struct ColdEstimate {
    platform: Platform,
    inputs: Vec<Input>,
    requests: Vec<Request>,
}

/// The degenerate MatrixMarket inputs the ROADMAP names: empty, 1×1,
/// 2-row, and NaN-valued (a 64-vertex ring with NaN diagonal values).
fn degenerate_inputs() -> Vec<(&'static str, String)> {
    let header = "%%MatrixMarket matrix coordinate real general\n";
    let mut nan = format!("{header}64 64 128\n");
    for i in 1..=64 {
        nan.push_str(&format!("{i} {i} NaN\n{} {i} 1.0\n", i % 64 + 1));
    }
    vec![
        ("degenerate-empty", format!("{header}0 0 0\n")),
        ("degenerate-1x1", format!("{header}1 1 1\n1 1 1.0\n")),
        (
            "degenerate-2row",
            format!("{header}2 2 2\n1 2 1.0\n2 1 1.0\n"),
        ),
        ("degenerate-nan", nan),
    ]
}

impl ColdEstimate {
    /// Generates every Table II dataset at `cfg.scale` from `cfg.seed`,
    /// serializes it to MatrixMarket bytes, and appends the degenerate
    /// inputs. Requests: every dataset × {cc, spmm}, the scale-free ones ×
    /// hh, and every degenerate input × {cc, spmm, hh}.
    pub fn setup(cfg: &Cfg) -> ColdEstimate {
        let mut inputs: Vec<Input> = Dataset::all()
            .iter()
            .map(|d| {
                let mut bytes = Vec::new();
                nbwp_sparse::io::write_matrix_market(&d.matrix(cfg.scale, cfg.seed), &mut bytes)
                    .expect("writing to memory cannot fail");
                Input {
                    name: d.name.to_string(),
                    bytes,
                    degenerate: false,
                }
            })
            .collect();
        inputs.extend(degenerate_inputs().into_iter().map(|(name, text)| Input {
            name: name.to_string(),
            bytes: text.into_bytes(),
            degenerate: true,
        }));
        let mut requests = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let scale_free = Dataset::by_name(&input.name).is_none_or(|d| d.scale_free);
            for kind in [Kind::Cc, Kind::Spmm, Kind::Hh] {
                if kind != Kind::Hh || scale_free {
                    requests.push(Request {
                        input: i,
                        kind,
                        seed: cfg.seed.wrapping_add(requests.len() as u64),
                    });
                }
            }
        }
        ColdEstimate {
            platform: cfg.platform,
            inputs,
            requests,
        }
    }

    /// Number of requests per cycle that run on a degenerate input.
    #[cfg(test)]
    pub fn degenerate_requests(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| self.inputs[r.input].degenerate)
            .count()
    }
}

/// Untraced pipeline on a built workload: fingerprint → `Estimator::run`
/// → `full_run` at the estimate.
fn serve<W: Sampleable + Fingerprinted>(
    w: &W,
    strategy: Strategy,
    seed: u64,
    what: &str,
) -> Served {
    let _ = w.fingerprint();
    let est = Estimator::new(strategy).seed(seed).run(w);
    let report = w.run(est.threshold);
    finish(w, &est, &report, what)
}

/// The same pipeline decomposed into its public stages, each timed from
/// outside: fingerprint → sample → identify → extrapolate → full_run.
fn serve_traced<W: Sampleable + Fingerprinted>(
    w: &W,
    strategy: Strategy,
    seed: u64,
    what: &str,
    l: &mut Layers,
) -> Served {
    l.time("fingerprint.wall_ms", || w.fingerprint());
    let mut rng = SmallRng::seed_from_u64(seed);
    let (sample, sampling_cost) = l.time("sample.wall_ms", || {
        (w.sample(SampleSpec::default(), &mut rng), w.sampling_cost())
    });
    l.add("sample.sim_ms", sampling_cost.as_millis());
    l.add("sample.units", sample.size() as f64);
    let outcome = l.time("identify.wall_ms", || {
        Searcher::new(strategy).pool(Pool::global()).run(&sample)
    });
    l.add("identify.sim_ms", outcome.search_cost.as_millis());
    l.add("identify.evaluations", outcome.evaluations() as f64);
    l.add("identify.grad_probes", outcome.grad_probes as f64);
    let threshold = l.time("extrapolate.wall_ms", || {
        w.space().clamp(w.extrapolate(outcome.best_t, &sample))
    });
    let est = SamplingEstimate {
        threshold,
        sample_threshold: outcome.best_t,
        overhead: sampling_cost + outcome.search_cost,
        evaluations: outcome.evaluations(),
        sample_size: sample.size(),
        grad_probes: outcome.grad_probes,
    };
    let report = l.time("full_run.wall_ms", || w.run(threshold));
    l.add("full_run.sim_ms", report.total().as_millis());
    let stats = [&report.cpu_stats, &report.gpu_stats];
    l.add("full_run.flops", stats.iter().map(|s| s.flops as f64).sum());
    l.add(
        "full_run.bytes_computed",
        stats.iter().map(|s| s.total_bytes() as f64).sum(),
    );
    finish(w, &est, &report, what)
}

fn finish<W: PartitionedWorkload>(
    w: &W,
    est: &SamplingEstimate,
    report: &nbwp_sim::RunReport,
    what: &str,
) -> Served {
    let total = report.total();
    let mut bits = estimate_bits(est);
    bits.push(total.as_secs().to_bits());
    let mut served = Served::ok(bits, total.as_millis());
    served.problem = check_in_space(what, est.threshold, &w.space()).or_else(|| {
        (!total.as_millis().is_finite()).then(|| format!("{what}: non-finite makespan"))
    });
    served
}

impl ColdEstimate {
    fn parse(&self, r: &Request) -> Csr {
        read_matrix_market(&self.inputs[r.input].bytes[..]).expect("generated inputs parse")
    }

    fn label(&self, r: &Request) -> String {
        format!("{} {:?}", self.inputs[r.input].name, r.kind)
    }
}

impl Workload for ColdEstimate {
    fn cycle_len(&self) -> usize {
        self.requests.len()
    }

    fn request(&mut self, i: usize, layers: Option<&mut Layers>) -> Served {
        let r = &self.requests[i];
        let (strategy, platform, what) = (r.kind.strategy(), self.platform, self.label(r));
        guarded(|| match layers {
            None => {
                let a = self.parse(r);
                match r.kind {
                    Kind::Cc => serve(
                        &CcWorkload::new(Graph::from_matrix(&a), platform),
                        strategy,
                        r.seed,
                        &what,
                    ),
                    Kind::Spmm => serve(&SpmmWorkload::new(a, platform), strategy, r.seed, &what),
                    Kind::Hh => serve(&HhWorkload::new(a, platform), strategy, r.seed, &what),
                }
            }
            Some(l) => {
                let a = l.time("parse.wall_ms", || self.parse(r));
                l.add("parse.bytes", self.inputs[r.input].bytes.len() as f64);
                match r.kind {
                    Kind::Cc => {
                        let w = l.time("build.wall_ms", || {
                            CcWorkload::new(Graph::from_matrix(&a), platform)
                        });
                        serve_traced(&w, strategy, r.seed, &what, l)
                    }
                    Kind::Spmm => {
                        let w = l.time("build.wall_ms", || SpmmWorkload::new(a, platform));
                        serve_traced(&w, strategy, r.seed, &what, l)
                    }
                    Kind::Hh => {
                        let w = l.time("build.wall_ms", || HhWorkload::new(a, platform));
                        serve_traced(&w, strategy, r.seed, &what, l)
                    }
                }
            }
        })
    }

    fn checks(&mut self, phase: &Phase) -> Vec<String> {
        let mut out = crate::common::check_cycles_repeat("cold_estimate", phase, self.cycle_len());
        // No Table II request may fail; the degenerate ones fail as the
        // code stands, and are counted, not checked.
        for (r, s) in self.requests.iter().zip(&phase.served) {
            if s.panicked && !self.inputs[r.input].degenerate {
                out.push(format!("{}: panicked on a Table II input", self.label(r)));
            }
        }
        out
    }

    fn table1_rows(&self, phase: &Phase) -> Vec<ExperimentRow> {
        let pool = Pool::global();
        self.requests
            .iter()
            .zip(&phase.served)
            .filter(|(r, s)| !self.inputs[r.input].degenerate && !s.failed())
            .map(|(r, s)| {
                let a = self.parse(r);
                let (name, config) = (&self.inputs[r.input].name, r.kind.experiment(r.seed));
                let d = Decision::from_estimate_bits(&s.bits);
                match r.kind {
                    Kind::Cc => d.row(
                        name,
                        &CcWorkload::new(Graph::from_matrix(&a), self.platform),
                        &config,
                        pool,
                    ),
                    Kind::Spmm => d.row(name, &SpmmWorkload::new(a, self.platform), &config, pool),
                    Kind::Hh => d.row(name, &HhWorkload::new(a, self.platform), &config, pool),
                }
            })
            .collect()
    }
}
