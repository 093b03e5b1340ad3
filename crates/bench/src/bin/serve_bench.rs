//! `clara serve` daemon benchmark, emitted as `BENCH_serve.json`.
//!
//! Three phases against in-process servers with pre-seeded targets:
//!
//! 1. **steady** — N clients issue sequential `predict` requests over
//!    the wire and every reply is checked bit-identical to the one-shot
//!    [`clara_core::Clara::predict`] path. Reports throughput and p50/p95/p99
//!    request latency plus the session cache's hit rate (after the
//!    first request per workload class, everything should hit).
//! 2. **validate reuse** — one client issues repeated `validate` jobs
//!    for the same (NF, NIC) pair. A request's cells form one family
//!    (one cell simulated in full, the others replayed from it), and
//!    the session-owned shared
//!    [`CostCache`](clara_core::sim::CostCache) means only the very
//!    first request pays the pure stage costs; every later request's
//!    full run finds them. Asserts that no request after the first
//!    misses the cache, that each of them hits it, and that every served
//!    cell is bit-identical to a local
//!    [`clara_core::run_validation_sweep`] with the same pinned
//!    configuration.
//! 3. **overload** — a deliberately tiny server (one worker, chaos
//!    slowing every job) is offered 2x its queue capacity in concurrent
//!    clients. Reports the shed rate and asserts it is nonzero: a
//!    benchmark where admission control never fires is measuring the
//!    wrong thing.
//!
//! ```text
//! serve_bench [--quick] [-o BENCH_serve.json] [--threads N]
//! ```
//!
//! `--quick` shrinks request counts for CI smoke. Any correctness
//! failure (wire drift, memo-rate collapse, zero shed, non-ok replies)
//! panics, so the exit code is nonzero exactly when the numbers are
//! untrustworthy.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use clara_core::serve::json::{ObjBuilder, Value};
use clara_core::serve::{reply_codes, ChaosConfig, Client, ServeConfig, Server};
use clara_core::{
    run_validation_sweep, Prediction, ValidationConfig, ValidationResult, WorkloadProfile,
};

fn code_of(reply: &Value) -> u64 {
    reply.get("code").and_then(Value::as_u64).expect("reply has a code")
}

fn assert_bit_identical(reply: &Value, direct: &Prediction) {
    for (key, want) in [
        ("avg_latency_cycles", direct.avg_latency_cycles),
        ("avg_latency_ns", direct.avg_latency_ns),
        ("throughput_pps", direct.throughput_pps),
        ("energy_nj_per_packet", direct.energy_nj_per_packet),
    ] {
        let got = reply
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("reply missing `{key}`: {reply:?}"));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "`{key}` drifted over the wire: served {got:?}, one-shot {want:?}"
        );
    }
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_serve.json");
    // Worker-thread override for the steady server. The recorded value
    // lands in the JSON so a reader can tell a 1-CPU container run from
    // a 16-core workstation run without guessing (the overload server
    // keeps its pinned single worker — that phase is about admission
    // control, not parallelism).
    let threads_override = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--threads takes a number"));
    let threads_available = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let recorded_with_threads = threads_override.unwrap_or(threads_available);

    eprintln!("serve_bench: extracting NIC parameters...");
    let clara = clara_bench::clara();
    let params = Arc::new(clara.params().clone());
    let nat_source = clara_core::nfs::by_name("nat").expect("corpus has nat").0;
    let direct = clara
        .predict(&nat_source, &WorkloadProfile::paper_default())
        .expect("one-shot prediction succeeds");

    // --- 1. steady state -------------------------------------------------
    let clients = if quick { 2 } else { 4 };
    let per_client = if quick { 15 } else { 150 };
    let server = Server::start(ServeConfig {
        workers: threads_override.unwrap_or(0),
        queue_cap: 64,
        read_timeout_ms: 30_000,
        ..ServeConfig::default()
    })
    .expect("server starts");
    server.seed_target("netronome", clara_bench::netronome().clone(), Arc::clone(&params));
    let addr = server.addr();
    eprintln!("steady: {clients} clients x {per_client} requests on {addr}");

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let direct = direct.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut latencies_us = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let reply = client
                        .request(r#"{"op":"predict","nf":"nat"}"#)
                        .expect("steady request succeeds");
                    latencies_us.push(t.elapsed().as_micros() as u64);
                    assert_eq!(code_of(&reply), 0, "{reply:?}");
                    assert_bit_identical(&reply, &direct);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<u64> =
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    latencies.sort_unstable();
    let total = clients * per_client;
    let throughput_rps = total as f64 / (wall_ms / 1e3);
    let (p50, p95, p99) = (
        percentile_us(&latencies, 0.50),
        percentile_us(&latencies, 0.95),
        percentile_us(&latencies, 0.99),
    );
    // Server-side view of the same phase, from the daemon's own
    // service-time histogram (the `stats` op). Client latency = queue
    // wait + service + wire overhead, so the server-side p50/p99 must
    // sit at or below the client-side numbers (modulo the histogram's
    // documented 6.25% bucket error plus a fixed 500 µs scheduling
    // allowance) while still accounting for a meaningful share of them.
    let mut stats_client = Client::connect(addr).expect("stats client connects");
    let stats_reply = stats_client.request(r#"{"op":"stats"}"#).expect("stats op succeeds");
    let hist_u64 = |hist: &str, field: &str| -> u64 {
        stats_reply
            .get(hist)
            .and_then(|h| h.get(field))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("stats reply missing `{hist}.{field}`: {stats_reply:?}"))
    };
    let server_p50 = hist_u64("service_us", "p50");
    let server_p99 = hist_u64("service_us", "p99");
    let queue_p50 = hist_u64("queue_wait_us", "p50");
    assert_eq!(
        hist_u64("service_us", "count"),
        total as u64,
        "service histogram missed jobs: {stats_reply:?}"
    );
    let bound = |client_side: u64| (client_side as f64 * 1.0625) as u64 + 500;
    assert!(
        server_p50 <= bound(p50) && server_p99 <= bound(p99),
        "server-side percentiles exceed the client view: \
         server p50 {server_p50} / p99 {server_p99} vs client p50 {p50} / p99 {p99} (µs)"
    );
    // The converse bound only makes sense while the client p50 is
    // service-dominated; loopback TCP artifacts (delayed-ACK clusters
    // around tens of ms) can dominate small-request tails on loaded
    // machines, and those milliseconds are not the server's to explain.
    if p50 < 10_000 {
        assert!(
            (server_p50 + queue_p50) * 4 + 2_000 >= p50,
            "server-side p50 ({server_p50} µs service + {queue_p50} µs queue wait) explains \
             under a quarter of the client p50 ({p50} µs) — the histogram is measuring the wrong thing"
        );
    } else {
        eprintln!("  note: client p50 {p50} µs is wire-dominated; skipping the lower-bound agreement check");
    }
    server.shutdown();
    let steady = server.join();
    let lookups = steady.prepared_hits + steady.prepared_misses;
    let hit_rate = if lookups == 0 { 0.0 } else { steady.prepared_hits as f64 / lookups as f64 };
    assert_eq!(steady.completed, total as u64, "lost replies: {steady:?}");
    assert!(
        hit_rate > 0.9,
        "session cache barely hit ({hit_rate:.2}); the steady phase is measuring prepares"
    );
    eprintln!(
        "  {total} requests in {wall_ms:.0} ms  ({throughput_rps:.0} req/s)  \
         p50 {p50} us  p95 {p95} us  p99 {p99} us  cache hit rate {hit_rate:.3}"
    );
    eprintln!(
        "  server-side view: service p50 {server_p50} us  p99 {server_p99} us  \
         queue wait p50 {queue_p50} us (agrees with the client view)"
    );
    eprintln!("  every reply bit-identical to the one-shot pipeline: yes");

    // --- 2. validate reuse -----------------------------------------------
    // Repeated validate jobs for the same (NF, NIC) against one server.
    // Each request is a whole validation sweep (one family: one cell
    // simulated in full, the other rates replayed from it); the
    // NfSession's shared CostCache carries the pure stage costs across
    // requests, so only the first request computes them. Integer rates
    // round-trip the wire exactly, keeping the served grid bit-identical
    // to the local reference sweep. DPI with the automaton in uncached
    // IMEM is the workload class where re-costing would hurt most:
    // payload-pure signatures that each walk the memory model
    // O(payload) deep.
    let v_requests = if quick { 3 } else { 6 };
    let v_rates: Vec<u64> = if quick {
        vec![20_000, 40_000, 60_000, 80_000]
    } else {
        (1..=8).map(|i| i * 15_000).collect()
    };
    let v_packets = if quick { 300usize } else { 1_500 };
    let v_seed = 42u64;
    let (nf_text, v_program) = clara_core::nfs::by_name("dpi-imem").expect("corpus has dpi-imem");
    let v_module = clara.analyze(&nf_text).expect("dpi-imem compiles").module;
    let v_grid: Vec<WorkloadProfile> = v_rates
        .iter()
        .map(|&rate| {
            let mut wl = WorkloadProfile::paper_default();
            wl.rate_pps = rate as f64;
            wl
        })
        .collect();
    // The server's validate path pins threads: 1 and attaches the
    // session cache; the reference run pins the same knobs (a fresh
    // cache — shared-layer reuse must not be needed for the numbers).
    let v_config = ValidationConfig {
        threads: 1,
        packets: v_packets,
        seed: v_seed,
        ..ValidationConfig::default()
    };
    let local = run_validation_sweep(
        &v_module,
        &params,
        clara_bench::netronome(),
        &v_program,
        &v_grid,
        &v_config,
    );
    let local_cells: Vec<_> = local
        .cells
        .iter()
        .map(|c| match c {
            ValidationResult::Ok(cell) => cell,
            ValidationResult::Failed(why) => panic!("local reference cell failed: {why}"),
        })
        .collect();

    let server = Server::start(ServeConfig {
        queue_cap: 64,
        read_timeout_ms: 60_000,
        ..ServeConfig::default()
    })
    .expect("validate server starts");
    server.seed_target("netronome", clara_bench::netronome().clone(), Arc::clone(&params));
    let addr = server.addr();
    eprintln!(
        "validate: {v_requests} requests x {} cells x {v_packets} packets on {addr}",
        v_rates.len()
    );
    let request = ObjBuilder::new()
        .str("op", "validate")
        .str("nf", "dpi-imem")
        .put("rates", Value::Arr(v_rates.iter().map(|&rate| Value::UInt(rate)).collect()))
        .uint("packets", v_packets as u64)
        .uint("seed", v_seed)
        .build()
        .to_json();
    // The session's stage-cost memo counters, from the `stats` op.
    let memo_counts = |client: &mut Client| -> (u64, u64) {
        let stats = client.stats().expect("stats op succeeds");
        let count = |key: &str| stats.get(key).and_then(Value::as_u64).expect("memo counter");
        (count("sim_memo_hits"), count("sim_memo_misses"))
    };
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("validate client connects");
    let mut after_first = (0, 0);
    for i in 0..v_requests {
        let reply = client.request(&request).expect("validate request succeeds");
        assert_eq!(code_of(&reply), 0, "{reply:?}");
        let cells = reply
            .get("cells")
            .and_then(Value::as_arr)
            .expect("validate reply has cells");
        assert_eq!(cells.len(), local_cells.len(), "cell count drifted");
        for (served, want) in cells.iter().zip(&local_cells) {
            assert_eq!(served.get("ok").and_then(Value::as_bool), Some(true), "{served:?}");
            for (key, want_bits) in [
                ("predicted_cycles", want.predicted_cycles.to_bits()),
                ("actual_cycles", want.actual_cycles.to_bits()),
            ] {
                let got = served
                    .get(key)
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("cell missing `{key}`: {served:?}"));
                assert_eq!(
                    got.to_bits(),
                    want_bits,
                    "served `{key}` diverged from the local sweep at rate {}",
                    want.rate_pps
                );
            }
        }
        if i == 0 {
            after_first = memo_counts(&mut client);
        }
    }
    let validate_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    let vstats = server.join();
    let sim_lookups = vstats.sim_memo_hits + vstats.sim_memo_misses;
    let sim_memo_hit_rate =
        if sim_lookups == 0 { 0.0 } else { vstats.sim_memo_hits as f64 / sim_lookups as f64 };
    // One request's cells form one family: one cell is simulated in full
    // (and looks its stage costs up in the session's cache), the others
    // replay it. So the first request pays the stage costs, and every
    // later one must find them all: no later miss, at least one hit each.
    assert!(
        vstats.sim_memo_misses == after_first.1
            && vstats.sim_memo_hits - after_first.0 >= v_requests as u64 - 1,
        "cross-request stage-cost reuse collapsed: {} hits / {} misses after the first \
         request's {} / {}",
        vstats.sim_memo_hits,
        vstats.sim_memo_misses,
        after_first.0,
        after_first.1
    );
    assert!(
        vstats.sim_cost_views >= 1,
        "no fingerprint view interned by the validate session: {vstats:?}"
    );
    eprintln!(
        "  {} cells over {validate_wall_ms:.0} ms  sim memo {}/{} shared (rate {:.3}, {} view(s))",
        v_requests * v_rates.len(),
        vstats.sim_memo_hits,
        sim_lookups,
        sim_memo_hit_rate,
        vstats.sim_cost_views
    );
    eprintln!("  every served cell bit-identical to the local sweep: yes");
    let v_cells = v_rates.len();
    let (v_hits, v_misses, v_views) =
        (vstats.sim_memo_hits, vstats.sim_memo_misses, vstats.sim_cost_views);

    // --- 3. overload -----------------------------------------------------
    // One worker, every job slowed 25 ms by chaos, queue of 4: offering
    // 2x the queue capacity in concurrent clients (each firing
    // back-to-back) must shed. Panic/kill/truncate chaos stays off so
    // every reply is readable and the shed rate is attributable to
    // admission control alone.
    let queue_cap = 4usize;
    let concurrency = 2 * queue_cap;
    let per_conn = if quick { 8 } else { 40 };
    let chaos = ChaosConfig {
        panic_per_mille: 0,
        kill_per_mille: 0,
        slow_per_mille: 1_000,
        truncate_per_mille: 0,
        slow_ms: 25,
        ..ChaosConfig::with_seed(7)
    };
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap,
        read_timeout_ms: 30_000,
        chaos: Some(chaos),
        ..ServeConfig::default()
    })
    .expect("overload server starts");
    server.seed_target("netronome", clara_bench::netronome().clone(), Arc::clone(&params));
    let addr = server.addr();
    eprintln!("overload: {concurrency} clients x {per_conn} requests, 1 worker, queue {queue_cap}");

    let started = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut hints_ms: Vec<u64> = Vec::new();
                let (mut served, mut shed) = (0u64, 0u64);
                for _ in 0..per_conn {
                    let reply = client
                        .request(r#"{"op":"predict","nf":"nat"}"#)
                        .expect("overload request gets a reply");
                    match code_of(&reply) {
                        0 => served += 1,
                        code if code == u64::from(reply_codes::OVERLOADED) => {
                            shed += 1;
                            hints_ms.push(
                                reply
                                    .get("retry_after_ms")
                                    .and_then(Value::as_u64)
                                    .expect("overloaded reply carries a retry hint"),
                            );
                        }
                        other => panic!("unexpected reply code {other}: {reply:?}"),
                    }
                }
                (served, shed, hints_ms)
            })
        })
        .collect();
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut hints_ms: Vec<u64> = Vec::new();
    for h in handles {
        let (s, d, hints) = h.join().expect("overload client thread");
        served += s;
        shed += d;
        hints_ms.extend(hints);
    }
    let overload_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    let overload = server.join();
    let offered = (concurrency * per_conn) as u64;
    let shed_rate = shed as f64 / offered as f64;
    assert_eq!(served + shed, offered, "lost replies under overload: {overload:?}");
    assert!(
        shed > 0,
        "no request shed at 2x queue capacity — admission control never fired"
    );
    assert!(hints_ms.iter().all(|&h| h >= 1), "retry hints must be at least 1 ms");
    hints_ms.sort_unstable();
    let hint_p50 = percentile_us(&hints_ms, 0.50);
    eprintln!(
        "  offered {offered} over {overload_wall_ms:.0} ms: served {served}, shed {shed} \
         (rate {shed_rate:.3}), median retry hint {hint_p50} ms"
    );

    let steady_section = ObjBuilder::new()
        .uint("clients", clients as u64)
        .uint("requests", total as u64)
        .num("wall_ms", wall_ms)
        .num("throughput_rps", throughput_rps)
        .uint("latency_p50_us", p50)
        .uint("latency_p95_us", p95)
        .uint("latency_p99_us", p99)
        .uint("server_service_p50_us", server_p50)
        .uint("server_service_p99_us", server_p99)
        .uint("server_queue_wait_p50_us", queue_p50)
        .bool("server_client_agreement", true)
        .num("prepared_hit_rate", hit_rate)
        .bool("bit_identical_to_oneshot", true);
    let validate_section = ObjBuilder::new()
        .uint("requests", v_requests as u64)
        .uint("cells_per_request", v_cells as u64)
        .uint("packets_per_cell", v_packets as u64)
        .num("wall_ms", validate_wall_ms)
        .uint("sim_memo_hits", v_hits)
        .uint("sim_memo_misses", v_misses)
        .num("sim_memo_hit_rate", sim_memo_hit_rate)
        .uint("sim_cost_views", v_views)
        .bool("bit_identical_to_local_sweep", true);
    let overload_section = ObjBuilder::new()
        .uint("workers", 1)
        .uint("queue_cap", queue_cap as u64)
        .uint("concurrency", concurrency as u64)
        .uint("offered", offered)
        .uint("served", served)
        .uint("shed", shed)
        .num("shed_rate", shed_rate)
        .uint("median_retry_hint_ms", hint_p50);
    let json = ObjBuilder::new()
        .str("bench", "serve")
        .bool("quick", quick)
        .uint("threads_available", threads_available as u64)
        .uint("recorded_with_threads", recorded_with_threads as u64)
        .put("steady", steady_section.build())
        .put("validate", validate_section.build())
        .put("overload", overload_section.build())
        .build()
        .to_json_pretty();
    std::fs::write(out_path, &json).expect("write serve benchmark json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
