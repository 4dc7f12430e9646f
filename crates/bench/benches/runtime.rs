//! **E6** — running-time claims: Algorithm 1 / the Theorem 1.1 pipeline are
//! `O(n²)` (§2.1 complexity analysis, Theorems 2.8/3.1/4.4), and the online
//! allocator processes arrivals in near-constant amortized time.
//!
//! Criterion reports wall-clock vs input length `n`; doubling `n` should at
//! most quadruple the greedy/pipeline times (quadratic shape). The `exp_*`
//! binaries for the other paper claims are listed in the README's crate
//! map and its *Scaling* and *Ingest* sections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmd_core::algo::online::{OnlineAllocator, OnlineConfig};
use mmd_core::algo::reduction::{solve_mmd, MmdConfig};
use mmd_core::algo::{self, Feasibility};
use mmd_workload::special::{small_streams, unit_skew_smd, SmdFamilyConfig};
use mmd_workload::{CatalogConfig, PopulationConfig, WorkloadConfig};

fn bench_greedy_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_smd");
    for &(streams, users) in &[(50usize, 25usize), (100, 50), (200, 100), (400, 200)] {
        let cfg = SmdFamilyConfig {
            streams,
            users,
            density: 0.3,
            budget_fraction: 0.3,
        };
        let inst = unit_skew_smd(&cfg, 7);
        let n = inst.input_length();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                algo::solve_smd_unit(inst, Feasibility::Strict)
                    .unwrap()
                    .utility
            })
        });
    }
    group.finish();
}

fn bench_pipeline_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_mmd");
    for &(streams, users) in &[(40usize, 20usize), (80, 40), (160, 80)] {
        let cfg = WorkloadConfig {
            catalog: CatalogConfig {
                streams,
                measures: 3,
                ..CatalogConfig::default()
            },
            population: PopulationConfig {
                users,
                ..PopulationConfig::default()
            },
            ..WorkloadConfig::default()
        };
        let inst = cfg.generate(7);
        let n = inst.input_length();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| solve_mmd(inst, &MmdConfig::default()).unwrap().utility)
        });
    }
    group.finish();
}

fn bench_online_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_allocate");
    for &streams in &[100usize, 400, 1600] {
        let inst = small_streams(streams, 10, 2, 7);
        group.throughput(Throughput::Elements(streams as u64));
        group.bench_with_input(BenchmarkId::from_parameter(streams), &inst, |b, inst| {
            b.iter(|| {
                let mut alloc =
                    OnlineAllocator::with_config(inst, OnlineConfig::default()).unwrap();
                for s in inst.streams() {
                    alloc.offer(s);
                }
                alloc.utility()
            })
        });
    }
    group.finish();
}

fn bench_baseline_vs_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_cost");
    let inst = WorkloadConfig::default().generate(7);
    group.bench_function("threshold", |b| {
        let order = algo::baselines::id_order(&inst);
        b.iter(|| algo::baselines::threshold_admission(&inst, &order, 0.9).utility(&inst))
    });
    group.bench_function("pipeline", |b| {
        b.iter(|| solve_mmd(&inst, &MmdConfig::default()).unwrap().utility)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy_scaling,
    bench_pipeline_scaling,
    bench_online_arrivals,
    bench_baseline_vs_pipeline
);
criterion_main!(benches);
