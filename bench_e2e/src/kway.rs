//! `kway_partition`: one `ProfiledSearcher::run_partition` per request over
//! a workload parsed and built during set-up — profile build plus
//! multi-seed descent, no parse and no kernels.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::Graph;
use nbwp_sim::ProfileScratch;

use nbwp_bench::alloc_meter;

use crate::common::{
    analytic, check_cuts, guarded, partition_bits, scalar_matches, Layers, Phase, Served,
};
use crate::{Cfg, Decision, Workload};

/// Table II datasets above this many rows at full scale (the three largest
/// road networks) are left out, so one request cycle stays under ten seconds.
const MAX_PAPER_ROWS: usize = 5_000_000;

/// Instances generated per dataset, each from its own seed derived from
/// `--seed`: the median request then averages over more curve shapes.
const INSTANCES: u64 = 8;

/// Dense GEMM sizes (closed-form curves: descent without a profile pass).
const GEMM_N: [usize; 2] = [1024, 4096];

enum Input {
    Cc(CcWorkload),
    Spmm(SpmmWorkload),
    Gemm(DenseGemmWorkload),
}

struct Request {
    name: String,
    input: usize,
    set: DeviceSet,
}

pub struct KwayPartition {
    inputs: Vec<Input>,
    requests: Vec<Request>,
    scratch: ProfileScratch,
}

impl KwayPartition {
    /// Parses and builds every input; requests cover each input on the
    /// `cpu-gpu`, `dual-cpu-dual-gpu` and `quad-cpu-quad-gpu` presets.
    pub fn setup(cfg: &Cfg) -> KwayPartition {
        let mut inputs = Vec::new();
        let mut names = Vec::new();
        for d in Dataset::all()
            .iter()
            .filter(|d| d.paper_n <= MAX_PAPER_ROWS)
        {
            for instance in 0..INSTANCES {
                let seed = cfg.seed.wrapping_add(instance << 32);
                let mut bytes = Vec::new();
                nbwp_sparse::io::write_matrix_market(&d.matrix(cfg.scale, seed), &mut bytes)
                    .expect("writing to memory cannot fail");
                let a = nbwp_sparse::io::read_matrix_market(&bytes[..])
                    .expect("generated inputs parse");
                inputs.push(Input::Cc(CcWorkload::new(
                    Graph::from_matrix(&a),
                    cfg.platform,
                )));
                names.push(format!("{}#{instance} cc", d.name));
                inputs.push(Input::Spmm(SpmmWorkload::new(a, cfg.platform)));
                names.push(format!("{}#{instance} spmm", d.name));
            }
        }
        for n in GEMM_N {
            inputs.push(Input::Gemm(DenseGemmWorkload::new(n, cfg.platform)));
            names.push(format!("gemm {n}"));
        }
        let mut requests = Vec::new();
        for (input, name) in names.iter().enumerate() {
            for set in [
                DeviceSet::cpu_gpu(),
                DeviceSet::dual_cpu_dual_gpu(),
                DeviceSet::quad_cpu_quad_gpu(),
            ] {
                requests.push(Request {
                    name: format!("{name} k={}", set.len()),
                    input,
                    set,
                });
            }
        }
        KwayPartition {
            inputs,
            requests,
            scratch: ProfileScratch::new(),
        }
    }
}

/// Untraced: one `run_partition` call.
fn partition<W: Profilable>(w: &W, set: &DeviceSet, what: &str) -> Served {
    finish(w, &analytic().run_partition(w, set), what)
}

/// Traced: `build_profile` → `minimize_partition` on `Profilable::curve`.
fn partition_traced<W: Profilable>(
    w: &W,
    set: &DeviceSet,
    what: &str,
    scratch: &mut ProfileScratch,
    l: &mut Layers,
) -> Served {
    let (profile, allocs, _) = l.time("profile.wall_ms", || {
        alloc_meter::measure(|| w.build_profile_in(Pool::global(), scratch))
    });
    l.add("profile.allocs", allocs as f64);
    l.add("profile.builds", 1.0);
    let space = w.space();
    let minimum = l.time("identify.wall_ms", || {
        let curve = w.curve(&profile).expect("k-way inputs expose a cost curve");
        minimize_partition(curve.as_ref(), set, &space, space.fine_step, None)
    });
    l.time("profile.wall_ms", || w.recycle_profile(profile, scratch));
    let Some(m) = minimum else {
        return Served {
            problem: Some(format!("{what}: curve does not price device bands")),
            ..Served::default()
        };
    };
    l.add("identify.grad_probes", m.probes as f64);
    l.add("identify.sweeps", m.sweeps as f64);
    let out = PartitionOutcome {
        cuts: m.thresholds,
        fractions: m.partition.fractions(),
        partition: Some(m.partition),
        total: m.total,
        probes: m.probes,
        sweeps: m.sweeps,
        scalar: None,
    };
    finish(w, &out, what)
}

fn finish<W: PartitionedWorkload>(w: &W, out: &PartitionOutcome, what: &str) -> Served {
    let mut served = Served::ok(partition_bits(out), out.total.as_millis());
    served.problem = check_cuts(what, &out.cuts, &w.space());
    served
}

impl Workload for KwayPartition {
    fn cycle_len(&self) -> usize {
        self.requests.len()
    }

    fn request(&mut self, i: usize, layers: Option<&mut Layers>) -> Served {
        let r = &self.requests[i];
        let (input, set, what, scratch) =
            (&self.inputs[r.input], &r.set, &r.name, &mut self.scratch);
        guarded(|| match (input, layers) {
            (Input::Cc(w), None) => partition(w, set, what),
            (Input::Spmm(w), None) => partition(w, set, what),
            (Input::Gemm(w), None) => partition(w, set, what),
            (Input::Cc(w), Some(l)) => partition_traced(w, set, what, scratch, l),
            (Input::Spmm(w), Some(l)) => partition_traced(w, set, what, scratch, l),
            (Input::Gemm(w), Some(l)) => partition_traced(w, set, what, scratch, l),
        })
    }

    fn checks(&mut self, phase: &Phase) -> Vec<String> {
        let mut out = crate::common::check_cycles_repeat("kway_partition", phase, self.cycle_len());
        for (r, s) in self.requests.iter().zip(&phase.served) {
            if s.panicked {
                out.push(format!("{}: panicked", r.name));
            } else if r.set.is_canonical_pair() {
                let same = match &self.inputs[r.input] {
                    Input::Cc(w) => scalar_matches(w, s),
                    Input::Spmm(w) => scalar_matches(w, s),
                    Input::Gemm(w) => scalar_matches(w, s),
                };
                if !same {
                    out.push(format!(
                        "{}: k=2 partition differs from the scalar threshold",
                        r.name
                    ));
                }
            }
        }
        out
    }

    fn table1_rows(&self, phase: &Phase) -> Vec<ExperimentRow> {
        let pool = Pool::global();
        self.requests
            .iter()
            .zip(&phase.served)
            .filter(|(r, s)| r.set.is_canonical_pair() && !s.failed())
            .map(|(r, s)| {
                // Full-input search: no sample, no simulated overhead.
                let d = |n: usize| Decision {
                    threshold: f64::from_bits(s.bits[0]),
                    overhead_ms: 0.0,
                    evaluations: 0,
                    sample_size: n,
                };
                let config = ExperimentConfig::cc(0);
                match &self.inputs[r.input] {
                    Input::Cc(w) => d(w.size()).row(&r.name, w, &config, pool),
                    Input::Spmm(w) => d(w.size()).row(&r.name, w, &config, pool),
                    Input::Gemm(w) => d(w.size()).row(&r.name, w, &config, pool),
                }
            })
            .collect()
    }
}
