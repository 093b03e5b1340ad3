//! Criterion benchmarks of planned stage costs: the same 64-cell DPI
//! simulation grid the `pipeline_bench` emitter times, measured per
//! configuration so the speedup decomposes — exact per-packet costing,
//! the pure stage plan (one price per unit group and payload length),
//! and the pure plan fed by rate-independent trace bodies. Every
//! variant is bit-identical to exact (pinned by the identity corpus and
//! property tests); only the time differs.

use clara_core::sim::{simulate_streamed, FaultPlan, SimConfig, SimScratch, Watchdog};
use clara_workload::{BodyKey, TraceBody};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;

fn batch_kernel(c: &mut Criterion) {
    let grid = clara_bench::sweep_grid(4);
    let packets = 500;
    let program = clara_core::nfs::dpi::ported(65_536, "imem");
    let nic = clara_bench::netronome();
    let faults = FaultPlan::none();
    let wd = Watchdog::new();

    let mut group = c.benchmark_group("nicsim_grid_64x500");

    group.bench_function("exact", |b| {
        b.iter(|| {
            for wl in &grid {
                let trace = wl.to_trace(packets, 42);
                simulate_streamed(
                    nic,
                    &program,
                    trace.iter().cloned(),
                    &faults,
                    &wd,
                    &SimConfig::exact(),
                    &mut SimScratch::new(),
                )
                .unwrap();
            }
        })
    });

    let mut scratch = SimScratch::new();
    group.bench_function("batched", |b| {
        b.iter(|| {
            for wl in &grid {
                simulate_streamed(
                    nic,
                    &program,
                    wl.to_trace_stream(packets, 42),
                    &faults,
                    &wd,
                    &SimConfig::default(),
                    &mut scratch,
                )
                .unwrap();
            }
        })
    });

    let mut bodies: HashMap<BodyKey, TraceBody> = HashMap::new();
    group.bench_function("batched+trace_cache", |b| {
        b.iter(|| {
            for wl in &grid {
                let body = bodies
                    .entry(BodyKey::of(wl, packets, 42))
                    .or_insert_with(|| TraceBody::generate(wl, packets, 42));
                simulate_streamed(
                    nic,
                    &program,
                    body.stream(wl.rate_pps),
                    &faults,
                    &wd,
                    &SimConfig::default(),
                    &mut scratch,
                )
                .unwrap();
            }
        })
    });

    group.finish();
}

criterion_group!(benches, batch_kernel);
criterion_main!(benches);
