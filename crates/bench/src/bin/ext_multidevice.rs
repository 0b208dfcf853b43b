//! Extension harness (paper §II, final paragraph): threshold *vectors* on a
//! platform with one CPU and several accelerators. Compares an equal split,
//! a FLOPS-proportional split and the analytic k-way partition found by
//! `ProfiledSearcher::run_partition`, all priced exactly from one spmm cost
//! curve, next to the best CPU + one-GPU split of the same input.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sim::GpuModel;

fn fmt(fractions: &[f64]) -> String {
    let parts: Vec<String> = fractions
        .iter()
        .map(|f| format!("{:.0}", f * 100.0))
        .collect();
    format!("[{}]", parts.join("/"))
}

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    // This spmm is bandwidth-bound, so the integrated GPU runs at its
    // device-bandwidth ratio to the K40c.
    let igpu = GpuModel::integrated_small().mem_bw_gbs / GpuModel::tesla_k40c().mem_bw_gbs;
    println!(
        "Multi-device spmm (threshold vector), scale = {}, seed = {}",
        opts.scale, opts.seed
    );
    let topologies = [
        (
            "Xeon + 2×K40c",
            DeviceSet::new(
                "xeon-2xk40c",
                vec![Device::cpu(), Device::gpu(), Device::gpu()],
            ),
        ),
        (
            "Xeon + K40c + iGPU",
            DeviceSet::new(
                "xeon-k40c-igpu",
                vec![Device::cpu(), Device::gpu(), Device::gpu().with_speed(igpu)],
            ),
        ),
    ];
    let search = Searcher::new(Strategy::Analytic { step: None }).profiled();
    for (label, set) in &topologies {
        println!("\n== {label} ==");
        println!(
            "{:<14} {:>14} {:>12} {:>12} {:>12} {:>8} {:>12}",
            "dataset", "fractions %", "equal", "FLOPS", "analytic", "probes", "CPU+GPU"
        );
        for name in ["cant", "cop20k_A", "webbase-1M"] {
            let d = Dataset::by_name(name).expect("Table II entry");
            let w = SpmmWorkload::new(d.matrix(opts.scale, opts.seed), platform);
            let profile = w.build_profile(Pool::global());
            let curve = w.curve(&profile).expect("spmm exposes a cost curve");
            let units = curve.splits() - 1;
            let price = |p: &Partition| {
                curve
                    .partition_total(set, p)
                    .expect("spmm prices every band")
            };
            let equal = price(&Partition::proportional(units, &vec![1.0; set.len()]));
            let flops = price(&Partition::proportional(
                units,
                &set.weights(platform.gpu_flops_share()),
            ));
            let kway = search.run_partition(&w, set);
            let pair = search.run_partition(&w, &DeviceSet::cpu_gpu());
            println!(
                "{:<14} {:>14} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>8} {:>10.2}ms",
                name,
                fmt(&kway.fractions),
                equal.as_millis(),
                flops.as_millis(),
                kway.total.as_millis(),
                kway.probes,
                pair.total.as_millis(),
            );
        }
    }
    println!(
        "\nExpected shape: analytic < equal and FLOPS on every input, the iGPU \
         gets a smaller fraction than the K40c, and analytic < CPU+GPU."
    );
}
