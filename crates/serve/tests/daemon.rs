//! Protocol-level daemon tests: these exercise framing, admission
//! control, deadlines, and drain without ever touching the predictor
//! (requests use an unknown NIC, which resolves — fast — to a `usage`
//! reply after passing through the full queue/worker machinery). The
//! heavyweight end-to-end chaos test lives in the workspace-root
//! `tests/serve_chaos.rs`.

use std::io::Write as _;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use clara_serve::json::Value;
use clara_serve::{ChaosConfig, Client, ClientError, ServeConfig, Server};

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 1,
        read_timeout_ms: 1_000,
        ..ServeConfig::default()
    }
}

/// Chaos that only slows jobs down: used to hold a worker busy
/// deterministically without touching the panic paths.
fn slow_only(slow_ms: u64) -> ChaosConfig {
    ChaosConfig {
        panic_per_mille: 0,
        kill_per_mille: 0,
        slow_per_mille: 1_000,
        truncate_per_mille: 0,
        slow_ms,
        ..ChaosConfig::with_seed(1)
    }
}

fn code_of(reply: &Value) -> u64 {
    reply.get("code").and_then(Value::as_u64).expect("reply has a code")
}

#[test]
fn ping_and_stats_round_trip() {
    let server = Server::start(ServeConfig { workers: 2, ..quick_config() }).unwrap();
    // `start` returns only once every worker has registered.
    assert_eq!(server.stats().workers_live, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(code_of(&pong), 0);
    assert_eq!(pong.get("draining").and_then(Value::as_bool), Some(false));

    let stats = client.stats().unwrap();
    assert_eq!(code_of(&stats), 0);
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("queue_capacity").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("workers").and_then(Value::as_u64), Some(2));

    server.shutdown();
    server.join();
}

#[test]
fn bad_json_is_a_protocol_error_and_the_connection_survives() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let reply = client.request("this is not json").unwrap();
    assert_eq!(code_of(&reply), u64::from(clara_serve::reply_codes::PROTOCOL));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));

    // A malformed *body* in a well-formed frame must not poison the
    // connection.
    assert_eq!(code_of(&client.ping().unwrap()), 0);

    server.shutdown();
    server.join();
}

#[test]
fn oversized_frame_is_refused_with_a_structured_reply() {
    let config = ServeConfig { max_frame: 256, ..quick_config() };
    let server = Server::start(config).unwrap();

    // Hand-roll the frame: a header declaring 1 MiB.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    stream.write_all(b"doesn't matter").unwrap();
    let reply = clara_serve::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let value = clara_serve::json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(code_of(&value), u64::from(clara_serve::reply_codes::FRAME_TOO_LARGE));

    server.shutdown();
    let stats = server.join();
    assert!(stats.protocol_errors >= 1);
}

#[test]
fn unknown_op_and_unknown_nic_map_to_usage() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let reply = client.request(r#"{"op":"transmogrify"}"#).unwrap();
    assert_eq!(code_of(&reply), 2);

    let reply = client
        .request(r#"{"op":"predict","nf":"nat","nic":"quantum-nic"}"#)
        .unwrap();
    assert_eq!(code_of(&reply), 2);
    let detail = reply.get("detail").and_then(Value::as_str).unwrap();
    assert!(detail.contains("quantum-nic"), "{detail}");

    server.shutdown();
    server.join();
}

#[test]
fn hostile_flow_count_is_a_workload_error_and_the_daemon_keeps_serving() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A skewed cache model over 10^12 flows would need an 8 TB weight
    // buffer; a failed allocation aborts the process, so it must be
    // refused first.
    let reply = client
        .request(r#"{"op":"predict","nf":"nat","flows":1000000000000,"zipf":0.5}"#)
        .unwrap();
    assert_eq!(code_of(&reply), u64::from(clara_serve::reply_codes::WORKLOAD));
    let detail = reply.get("detail").and_then(Value::as_str).unwrap();
    assert!(detail.contains("flows"), "{detail}");

    assert_eq!(code_of(&client.ping().unwrap()), 0);

    server.shutdown();
    server.join();
}

#[test]
fn expired_deadline_is_reported_without_running_the_job() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let reply = client
        .request(r#"{"op":"predict","nf":"nat","deadline_ms":0}"#)
        .unwrap();
    assert_eq!(code_of(&reply), u64::from(clara_serve::reply_codes::DEADLINE));
    assert_eq!(
        reply.get("error").and_then(Value::as_str),
        Some("deadline-exceeded")
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.timed_out, 1);
}

#[test]
fn overload_sheds_with_a_retry_hint() {
    let config = ServeConfig {
        chaos: Some(slow_only(400)),
        ..quick_config()
    };
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // One worker asleep for 400 ms per job, queue of 1: firing 6
    // concurrent requests must shed some of them immediately.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let started = Instant::now();
                let reply = client
                    .request(r#"{"op":"predict","nf":"nat","nic":"no-such-nic"}"#)
                    .unwrap();
                (code_of(&reply), reply, started.elapsed())
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let shed: Vec<_> = replies.iter().filter(|(code, ..)| *code == 20).collect();
    assert!(!shed.is_empty(), "no request was shed: {replies:?}");
    for (_, reply, elapsed) in &shed {
        // Shedding is immediate — it must not wait behind the queue.
        assert!(*elapsed < Duration::from_millis(350), "shed took {elapsed:?}");
        assert!(
            reply.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 1,
            "{reply:?}"
        );
    }
    // And at least one request made it through to a worker.
    assert!(replies.iter().any(|(code, ..)| *code == 2), "{replies:?}");

    server.shutdown();
    let stats = server.join();
    assert!(stats.shed >= 1, "{stats:?}");
    assert_eq!(stats.shed + stats.accepted, 6, "{stats:?}");
}

#[test]
fn stats_reports_gauges_histograms_and_rates() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One job through the worker path (unknown NIC resolves fast but
    // still transits admit -> queue -> worker -> reply).
    let reply = client
        .request(r#"{"op":"predict","nf":"nat","nic":"no-such-nic"}"#)
        .unwrap();
    assert_eq!(code_of(&reply), 2);

    let stats = client.stats().unwrap();
    let get = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or_else(|| panic!("stats missing `{k}`: {stats:?}"));
    assert_eq!(get("workers_live"), 1);
    assert_eq!(get("inflight"), 0);
    assert_eq!(get("queue_depth"), 0);
    assert!(stats.get("uptime_s").and_then(Value::as_u64).is_some());
    // The errored counter closes the conservation invariant at idle.
    assert_eq!(get("accepted"), get("completed") + get("timed_out") + get("panicked") + get("errored"));
    assert_eq!(get("errored"), 1);
    // The job landed in the service and queue-wait histograms.
    let hist_count = |name: &str| {
        stats.get(name).and_then(|h| h.get("count")).and_then(Value::as_u64).unwrap()
    };
    assert_eq!(hist_count("service_us"), 1, "{stats:?}");
    assert_eq!(hist_count("queue_wait_us"), 1, "{stats:?}");
    // Both requests of this test are inside the trailing minute.
    let req_60s = stats
        .get("rates")
        .and_then(|r| r.get("req_per_s_60s"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(req_60s > 0.0, "{stats:?}");

    server.shutdown();
    server.join();
}

#[test]
fn events_op_returns_the_request_lifecycle() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let reply = client
        .request(r#"{"op":"predict","nf":"nat","nic":"no-such-nic"}"#)
        .unwrap();
    assert_eq!(code_of(&reply), 2);

    let reply = client.request(r#"{"op":"events","limit":64}"#).unwrap();
    assert_eq!(code_of(&reply), 0, "{reply:?}");
    let events = reply.get("events").and_then(Value::as_arr).expect("events array");
    assert!(reply.get("recorded").and_then(Value::as_u64).unwrap() >= events.len() as u64);
    // The one job shows up as admit -> dequeue -> complete under a
    // single request id, in sequence order.
    let find = |kind: &str| {
        events.iter().find(|e| e.get("event").and_then(Value::as_str) == Some(kind)).unwrap_or_else(|| panic!("no `{kind}` event: {reply:?}"))
    };
    let (admit, dequeue, complete) = (find("admit"), find("dequeue"), find("complete"));
    let req = |e: &Value| e.get("req").and_then(Value::as_u64).unwrap();
    let seq = |e: &Value| e.get("seq").and_then(Value::as_u64).unwrap();
    assert_eq!(req(admit), req(dequeue));
    assert_eq!(req(admit), req(complete));
    assert!(seq(admit) < seq(dequeue) && seq(dequeue) < seq(complete));
    // An errored job's complete event carries its reply code.
    assert_eq!(complete.get("code").and_then(Value::as_u64), Some(2));

    // limit is respected.
    let reply = client.request(r#"{"op":"events","limit":1}"#).unwrap();
    assert_eq!(reply.get("events").and_then(Value::as_arr).unwrap().len(), 1);

    server.shutdown();
    server.join();
}

#[test]
fn metrics_op_returns_a_prometheus_exposition() {
    let server = Server::start(quick_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(code_of(&client.ping().unwrap()), 0);

    let reply = client.request(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(code_of(&reply), 0, "{reply:?}");
    assert_eq!(
        reply.get("content_type").and_then(Value::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = reply.get("text").and_then(Value::as_str).expect("exposition text");
    // The ping and this metrics request are both counted by the time
    // the snapshot renders.
    assert!(text.contains("clara_serve_requests_total 2\n"), "{text}");
    assert!(text.contains("# TYPE clara_serve_service_time_seconds summary\n"), "{text}");
    assert!(text.contains("clara_serve_workers_live 1\n"), "{text}");

    server.shutdown();
    server.join();
}

/// The `retry_after_ms` hint is p90-service-time based: before any job
/// has run it falls back to a 25 ms prior, and once chaos slows real
/// jobs down the hint must grow to match the observed drain speed.
#[test]
fn retry_hint_grows_under_induced_slowdowns() {
    let config = ServeConfig {
        chaos: Some(slow_only(400)),
        ..quick_config()
    };
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    let fire = |n: usize| -> Vec<(u64, Value)> {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let reply = client
                        .request(r#"{"op":"predict","nf":"nat","nic":"no-such-nic"}"#)
                        .unwrap();
                    (code_of(&reply), reply)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };
    let hints = |replies: &[(u64, Value)]| -> Vec<u64> {
        replies
            .iter()
            .filter(|(code, _)| *code == 20)
            .map(|(_, r)| r.get("retry_after_ms").and_then(Value::as_u64).unwrap())
            .collect()
    };

    // Phase 1: six concurrent requests against a worker that sleeps
    // 400 ms per job. Sheds are immediate, so they all happen before
    // the first job completes — every hint comes from the prior.
    let early = fire(6);
    let early_hints = hints(&early);
    assert!(!early_hints.is_empty(), "nothing shed: {early:?}");

    // Wait out the queue so the service histogram now holds only
    // chaos-slowed (>= 400 ms) observations.
    let mut client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        let idle = stats.get("inflight").and_then(Value::as_u64) == Some(0)
            && stats.get("queue_depth").and_then(Value::as_u64) == Some(0);
        if idle {
            break;
        }
        assert!(Instant::now() < deadline, "queue never drained: {stats:?}");
        thread::sleep(Duration::from_millis(50));
    }

    // Phase 2: overload again; the hint must now reflect the observed
    // p90 and dwarf every prior-based hint.
    let late = fire(6);
    let late_hints = hints(&late);
    assert!(!late_hints.is_empty(), "nothing shed in phase 2: {late:?}");
    // Compare against the *smallest* early hint: the first sheds are
    // guaranteed prior-based even if a straggler in phase 1 raced past
    // the first completion.
    let early_min = *early_hints.iter().min().unwrap();
    let late_min = *late_hints.iter().min().unwrap();
    assert!(
        late_min > early_min,
        "hint did not grow under slow-downs: early {early_hints:?}, late {late_hints:?}"
    );
    // And it is in the right ballpark: (queue+1) * p90 / workers with
    // p90 >= 400 ms gives >= 800 ms.
    assert!(late_min >= 400, "late hint implausibly small: {late_hints:?}");

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_inflight_work_and_refuses_late_arrivals() {
    let config = ServeConfig {
        workers: 1,
        queue_cap: 4,
        read_timeout_ms: 1_000,
        chaos: Some(slow_only(400)),
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // An in-flight job that outlives the shutdown call.
    let inflight = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let reply = client
            .request(r#"{"op":"predict","nf":"nat","nic":"no-such-nic"}"#)
            .unwrap();
        code_of(&reply)
    });
    thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).unwrap();
    let reply = client.shutdown().unwrap();
    assert_eq!(reply.get("draining").and_then(Value::as_bool), Some(true));

    // The admitted job still completes with its real reply.
    assert_eq!(inflight.join().unwrap(), 2, "in-flight job was dropped");

    // New connections are refused once the accept loop exits.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        match Client::connect_timeout(addr, Duration::from_millis(200)) {
            Err(_) => break,
            Ok(mut late) => {
                // Accept loop may still be mid-poll; a late request on a
                // fresh connection must at least be refused.
                match late.request(r#"{"op":"predict","nf":"nat"}"#) {
                    Ok(v) => assert_eq!(code_of(&v), 25, "{v:?}"),
                    Err(ClientError::Frame(_) | ClientError::Closed) => {}
                    Err(e) => panic!("unexpected client error: {e}"),
                }
            }
        }
        assert!(Instant::now() < deadline, "listener never closed");
        thread::sleep(Duration::from_millis(50));
    }

    let stats = server.join();
    assert_eq!(stats.accepted, 1, "{stats:?}");
}
