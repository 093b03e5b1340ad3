//! Criterion benchmarks of Clara's components: how fast is the tool
//! itself? (The figure/table harnesses under `src/bin/` regenerate the
//! paper's *results*; these measure the *machinery*.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn frontend(c: &mut Criterion) {
    let src = clara_core::nfs::vnf::source(1 << 20, 4096);
    let mut group = c.benchmark_group("frontend");
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function("parse+check+lower (vnf)", |b| {
        b.iter(|| {
            let ast = clara_lang::frontend(black_box(&src)).unwrap();
            clara_cir::lower(&ast).unwrap()
        })
    });
    group.finish();
}

fn dataflow_extraction(c: &mut Criterion) {
    let src = clara_core::nfs::vnf::source(1 << 20, 4096);
    let module = clara_cir::lower(&clara_lang::frontend(&src).unwrap()).unwrap();
    c.bench_function("dataflow extract (vnf)", |b| {
        b.iter(|| clara_dataflow::extract(black_box(&module)))
    });
}

fn class_profiling(c: &mut Criterion) {
    // Two scanning NFs, whose per-byte loops dominate class profiling,
    // and one small NF, a few dozen instructions per packet.
    let mut group = c.benchmark_group("class_profiling");
    for nf in ["dpi", "vnf", "nat"] {
        let (src, _) = clara_core::nfs::by_name(nf).expect("corpus NF");
        let module = clara_cir::lower(&clara_lang::frontend(&src).unwrap()).unwrap();
        for payload in [300usize, 1500] {
            let wl = clara_core::WorkloadProfile {
                flows: 1_000,
                tcp_share: 0.8,
                syn_share: 0.1,
                avg_payload: payload as f64,
                max_payload: payload,
                ..clara_core::WorkloadProfile::paper_default()
            };
            group.bench_function(&format!("enumerate_classes {nf} {payload} B"), |b| {
                b.iter(|| clara_predict::enumerate_classes(black_box(&module), black_box(&wl)))
            });
        }
    }
    group.finish();
}

fn ilp_solver(c: &mut Criterion) {
    // A representative 0/1 assignment problem: 12 tasks x 6 units with a
    // capacity side constraint.
    c.bench_function("ilp solve 12x6 assignment", |b| {
        b.iter_batched(
            || {
                let mut m = clara_ilp::Model::minimize();
                let mut vars = Vec::new();
                for t in 0..12 {
                    let row: Vec<_> =
                        (0..6).map(|u| m.binary(format!("x{t}_{u}"))).collect();
                    m.constraint(
                        clara_ilp::LinExpr::sum(row.iter().map(|&v| clara_ilp::LinExpr::from(v))),
                        clara_ilp::Rel::Eq,
                        1.0,
                    );
                    vars.push(row);
                }
                let mut obj = clara_ilp::LinExpr::zero();
                for (t, row) in vars.iter().enumerate() {
                    for (u, &v) in row.iter().enumerate() {
                        obj += (((t * 7 + u * 13) % 10 + 1) as f64) * v;
                    }
                }
                // Capacity: unit 0 takes at most 3 tasks.
                m.constraint(
                    clara_ilp::LinExpr::sum(vars.iter().map(|r| clara_ilp::LinExpr::from(r[0]))),
                    clara_ilp::Rel::Le,
                    3.0,
                );
                m.objective(obj);
                m
            },
            |m| m.solve().unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn simulator(c: &mut Criterion) {
    let nic = clara_core::profiles::netronome_agilio_cx40();
    let program = clara_core::nfs::nat::ported();
    let trace = clara_core::WorkloadProfile::paper_default().to_trace(2_000, 42);
    let mut group = c.benchmark_group("nicsim");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("simulate NAT 2k packets", |b| {
        b.iter(|| clara_core::sim::simulate(black_box(&nic), black_box(&program), black_box(&trace)).unwrap())
    });
    group.finish();
}

fn prediction(c: &mut Criterion) {
    let clara = clara_bench::clara(); // parameters extracted once
    let src = clara_core::nfs::nat::source();
    let module = clara.analyze(&src).unwrap().module;
    let wl = clara_core::WorkloadProfile::paper_default();
    c.bench_function("predict NAT (mapping ILP + pricing)", |b| {
        b.iter(|| clara.predict_module(black_box(&module), black_box(&wl)).unwrap())
    });
}

fn packet_and_pcap(c: &mut Criterion) {
    let trace = clara_core::WorkloadProfile::paper_default().to_trace(1_000, 7);
    let mut group = c.benchmark_group("workload");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("pcap write+read 1k packets", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            clara_workload::pcap::write_pcap(&mut buf, black_box(&trace)).unwrap();
            clara_workload::pcap::read_pcap(&buf[..]).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    frontend,
    dataflow_extraction,
    class_profiling,
    ilp_solver,
    simulator,
    prediction,
    packet_and_pcap
);
criterion_main!(benches);
