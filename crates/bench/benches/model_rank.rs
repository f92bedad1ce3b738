//! Component bench: analytical-model throughput — the timing contract
//! behind `repro explore`'s million-cell tier.
//!
//! The acceptance bar is 1,000,000 configurations ranked analytically in
//! under 60 s single-threaded, i.e. a floor of ~16.7k cells/s through
//! the full rank pipeline (per-group best-policy reduction, Pareto
//! prefix-min sweep, bounded top-set heaps). `predict_one` isolates the
//! closed form itself (a handful of float ops plus one miss-curve
//! lookup); `rank_grid` measures the end-to-end pipeline on a ~102k-cell
//! grid including summary extraction, so cells/s read directly against
//! the floor. Measured rates sit orders of magnitude above it — the
//! explore tier's cost is simulator verification, never ranking.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hbm_core::{ArbitrationKind, ReplacementKind};
use hbm_experiments::explore::{rank, ExploreSpec, RankCaps};
use hbm_model::predict::predict;
use hbm_model::ModelConfig;
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::WorkloadSpec;
use std::hint::black_box;

/// 1 workload axis × 160 k × 16 q × 2 far × 5 arb × 4 rep = 102,400 cells.
const GRID: &str = r#"{
  "workloads": [
    {"workload": {"kind": "cyclic", "pages": 64, "reps": 10}, "p": [4], "seed": 1}
  ],
  "k": {"min": 4, "max": 1600, "steps": 160, "scale": "linear"},
  "q": {"min": 1, "max": 16, "steps": 16, "scale": "linear"},
  "far_latency": [1, 4],
  "arbitration": [
    "fifo", "priority",
    {"kind": "dynamic_priority", "period": 64},
    "random_pick",
    {"kind": "fr_fcfs", "row_shift": 3}
  ],
  "replacement": ["lru", "fifo", "clock", "random"],
  "sim_seed": 0
}"#;

fn bench_model_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_rank");
    group.sample_size(10);

    let summary = WorkloadSummary::from_spec(
        WorkloadSpec::Cyclic {
            pages: 64,
            reps: 10,
        },
        1,
        4,
    );
    let cfg =
        ModelConfig::new(64, 2, ArbitrationKind::Priority, ReplacementKind::Lru).far_latency(4);
    group.throughput(Throughput::Elements(1));
    group.bench_function("predict_one", |b| {
        b.iter(|| black_box(predict(black_box(&summary), black_box(&cfg))))
    });

    let spec = ExploreSpec::parse(GRID).expect("bench grid parses");
    let cells = u64::try_from(spec.total_cells()).expect("bench grid fits u64");
    assert_eq!(
        cells, 102_400,
        "bench grid drifted from its documented size"
    );
    let caps = RankCaps {
        top: 20,
        uncertain: 32,
        frontier: 256,
    };
    group.throughput(Throughput::Elements(cells));
    group.bench_function("rank_grid", |b| {
        b.iter(|| black_box(rank(black_box(&spec), black_box(&caps))))
    });

    group.finish();
}

criterion_group!(benches, bench_model_rank);
criterion_main!(benches);
