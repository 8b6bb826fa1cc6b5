//! Compare every DVFS governor on one benchmark: static baseline, PCSTALL,
//! F-LEMMA, a freshly trained SSMDVFS, and the one-step-lookahead oracle.
//!
//! ```sh
//! cargo run --release --example governor_compare [benchmark]
//! ```

use dvfs_baselines::{run_oracle, FlemmaConfig, FlemmaGovernor, PcstallConfig, PcstallGovernor};
use gpu_sim::{DvfsGovernor, GpuConfig, SimResult, Simulation, StaticGovernor, Time};
use gpu_workloads::by_name;
use ssmdvfs::{
    generate_workload_jobs, train_combined_jobs, DataGenConfig, DvfsDataset, FeatureSet, ModelArch,
    SsmdvfsConfig, SsmdvfsGovernor,
};
use tinynn::TrainConfig;

const PRESET: f64 = 0.10;

fn run(
    cfg: &GpuConfig,
    bench: &gpu_workloads::Benchmark,
    governor: &mut dyn DvfsGovernor,
) -> SimResult {
    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    sim.run(governor, Time::from_micros(10_000.0))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "spmv".to_string());
    let cfg = GpuConfig::small_test();
    let bench = by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark '{name}'; see gpu_workloads::suite()"))
        .scaled(0.15);
    println!("benchmark: {bench}, preset {:.0}%\n", PRESET * 100.0);

    // Train a small SSMDVFS model on other benchmarks (the target stays
    // held out).
    let mut dataset = DvfsDataset::default();
    for train_name in ["sgemm", "lbm", "hotspot", "srad"].iter().filter(|n| **n != name) {
        let b = by_name(train_name).expect("training benchmark exists").scaled(0.1);
        let dg = DataGenConfig::default();
        dataset.extend(generate_workload_jobs(b.name(), b.workload().clone(), &cfg, &dg, 0));
    }
    let (model, _) = train_combined_jobs(
        &dataset,
        &FeatureSet::refined(),
        &ModelArch::paper_full(),
        cfg.vf_table.len(),
        &TrainConfig { epochs: 120, ..TrainConfig::default() },
        0.25,
        1,
    );

    let base = run(&cfg, &bench, &mut StaticGovernor::default_point(&cfg.vf_table));
    let base_report = base.edp_report();

    println!("{:<16} {:>9} {:>9} {:>14}", "governor", "norm_edp", "latency", "op histogram");
    let print_row = |r: &SimResult| {
        let rep = r.edp_report();
        println!(
            "{:<16} {:>9.4} {:>9.4} {:>14}",
            r.governor,
            rep.normalized_edp(&base_report),
            rep.normalized_latency(&base_report),
            format!("{:?}", r.op_histogram),
        );
    };
    print_row(&base);
    print_row(&run(&cfg, &bench, &mut PcstallGovernor::new(PcstallConfig::new(PRESET))));
    print_row(&run(&cfg, &bench, &mut FlemmaGovernor::new(FlemmaConfig::new(PRESET))));
    print_row(&run(&cfg, &bench, &mut SsmdvfsGovernor::new(model, SsmdvfsConfig::new(PRESET))));
    print_row(&run_oracle(&cfg, bench.workload().clone(), PRESET, Time::from_micros(10_000.0)));
}
