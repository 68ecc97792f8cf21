//! End-to-end soak of the daemon: concurrent clients, multiple models,
//! mixed good/malformed traffic — asserting the three serving guarantees:
//!
//! 1. every verdict's margins are **bit-identical** to a direct
//!    `Engine::verify_batch_fused` on the same network and configuration,
//! 2. malformed frames and overload earn **typed error replies** on a
//!    surviving connection — no panic, no hang, no dropped socket,
//! 3. device accounting is **flat after drain**: once traffic stops, the
//!    bytes in use are exactly resident weights plus shelved pool bytes,
//!    and (on pooling backends) further steady-state traffic allocates
//!    nothing fresh.
//!
//! The whole body is backend-generic and runs on both `CpuSimBackend` and
//! `ReferenceBackend`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gpupoly_core::{Engine, Query, VerifyConfig};
use gpupoly_device::{Backend, CpuSimBackend, Device, DeviceConfig, ReferenceBackend};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::{store, Network};
use gpupoly_serve::protocol::ErrorCode;
use gpupoly_serve::{BatchPolicy, Client, ClientError, Server, ServerConfig};

/// Deterministic dense ReLU net: `inputs → width (ReLU) → outputs`.
fn make_net(seed: u64, inputs: usize, width: usize, outputs: usize) -> Network<f32> {
    let mix = |i: usize, s: u64| {
        ((((i as u64 + 11) * (s + 37)) * 2654435761 % 1999) as f32 / 999.0 - 1.0) * 0.4
    };
    NetworkBuilder::new_flat(inputs)
        .dense_flat(
            width,
            (0..width * inputs).map(|i| mix(i, seed)).collect(),
            (0..width).map(|i| mix(i, seed + 5) * 0.3).collect(),
        )
        .relu()
        .dense_flat(
            outputs,
            (0..outputs * width).map(|i| mix(i, seed + 9)).collect(),
            vec![0.0; outputs],
        )
        .build()
        .expect("valid net")
}

struct ModelFixture {
    name: &'static str,
    net: Network<f32>,
    inputs: usize,
    outputs: usize,
}

fn fixtures() -> Vec<ModelFixture> {
    vec![
        ModelFixture {
            name: "alpha",
            net: make_net(3, 6, 10, 3),
            inputs: 6,
            outputs: 3,
        },
        ModelFixture {
            name: "beta",
            net: make_net(8, 8, 12, 4),
            inputs: 8,
            outputs: 4,
        },
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpupoly-soak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic query stream one client sends: `(model index, image,
/// label, eps)` per step.
fn query_for(client_id: usize, step: usize, fx: &[ModelFixture]) -> (usize, Vec<f32>, usize, f32) {
    let which = (client_id + step) % fx.len();
    let m = &fx[which];
    let image: Vec<f32> = (0..m.inputs)
        .map(|i| 0.15 + 0.7 * (((client_id * 131 + step * 29 + i * 7) % 101) as f32 / 101.0))
        .collect();
    let label = (client_id + step) % m.outputs;
    let eps = 0.004 + 0.003 * ((client_id + step) % 4) as f32;
    (which, image, label, eps)
}

/// The verifier configuration the soak pins on both sides of the wire.
/// Early termination is off so every query has input-independent batch
/// geometry — that is what makes steady-state allocation exactly flat.
fn soak_verify_config() -> VerifyConfig {
    VerifyConfig {
        early_termination: false,
        ..Default::default()
    }
}

fn soak_backend<B: Backend + Default>() {
    let fx = fixtures();
    let dir = temp_dir(std::any::type_name::<B>().rsplit(':').next().unwrap());
    for m in &fx {
        store::save(&dir, m.name, &m.net).unwrap();
    }

    let mut cfg = ServerConfig::new(&dir);
    cfg.policy = BatchPolicy {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
    };
    cfg.verify = soak_verify_config();
    cfg.workers = Some(2);
    cfg.request_timeout = Duration::from_secs(60);
    // The soak asserts every well-formed query verifies; estimated-cost
    // admission scales with measured wall time, so on a slow/contended
    // machine it could bounce good queries and flake the invariant. Cost
    // bouncing has its own deterministic test
    // (`registry::cost_cap_bounces_only_into_nonempty_backlogs`).
    cfg.queue_cost_cap = None;
    let server = Server::<B>::bind("127.0.0.1:0", cfg).expect("bind");
    let device = server.registry().device().clone();
    let registry = server.registry().clone();
    let handle = server.spawn();
    let addr = handle.addr();

    // -- Warmup: make both models resident and exercise every size class
    // once, so the soak measures steady state, not first-touch allocation.
    {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        for (i, m) in fx.iter().enumerate() {
            let v = client
                .verify(m.name, &vec![0.4 + 0.05 * i as f32; m.inputs], 0, 0.01)
                .expect("warmup verify");
            assert_eq!(v.margins.len(), m.outputs - 1);
        }
    }

    // -- Soak: concurrent clients, mixed traffic, every reply collected.
    const CLIENTS: usize = 6;
    const STEPS: usize = 20;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let fx = Arc::new(fx);
    let mut joins = Vec::new();
    for client_id in 0..CLIENTS {
        let barrier = barrier.clone();
        let fx = fx.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            barrier.wait();
            let mut verdicts = Vec::new();
            for step in 0..STEPS {
                // Interleave a malformed frame and typed-error probes into
                // the stream; the connection must survive all of them.
                match step % 5 {
                    1 => {
                        let reply = client
                            .send_raw("{\"type\":\"verify\", oops")
                            .expect("malformed frame still gets a reply");
                        match reply {
                            gpupoly_serve::protocol::Reply::Error { code, .. } => {
                                assert_eq!(code, ErrorCode::ParseError)
                            }
                            other => panic!("expected error reply, got {other:?}"),
                        }
                    }
                    3 => {
                        let err = client
                            .verify("no_such_model", &[0.1], 0, 0.01)
                            .expect_err("unknown model must fail");
                        match err {
                            ClientError::Server { code, .. } => {
                                assert_eq!(code, ErrorCode::UnknownModel)
                            }
                            other => panic!("expected server error, got {other:?}"),
                        }
                    }
                    4 => {
                        // Wrong input dimension: typed bad_query, not a
                        // panic, not a dropped connection.
                        let m = &fx[client_id % fx.len()];
                        let err = client
                            .verify(m.name, &vec![0.5; m.inputs + 1], 0, 0.01)
                            .expect_err("wrong dimension must fail");
                        match err {
                            ClientError::Server { code, .. } => {
                                assert_eq!(code, ErrorCode::BadQuery)
                            }
                            other => panic!("expected server error, got {other:?}"),
                        }
                    }
                    _ => {}
                }
                let (which, image, label, eps) = query_for(client_id, step, &fx);
                let verdict = client
                    .verify(fx[which].name, &image, label, eps)
                    .expect("good query verifies");
                verdicts.push((which, image, label, eps, verdict));
            }
            // The connection survived the whole mixed stream.
            client.ping().expect("connection alive after soak");
            verdicts
        }));
    }
    let mut collected = Vec::new();
    for join in joins {
        collected.extend(join.join().expect("client thread"));
    }
    assert_eq!(collected.len(), CLIENTS * STEPS);

    // -- Drain: wait for the workers to go fully idle.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = registry.model_stats();
        if stats.iter().all(|m| m.queue_depth == 0 && m.in_flight == 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "workers never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // -- Accounting after drain: bytes in use are exactly resident weights
    // plus shelved pool bytes — every transient working buffer was returned.
    let stats = registry.model_stats();
    let resident: u64 = stats.iter().map(|m| m.resident_bytes).sum();
    assert!(resident > 0, "models must be weight-resident");
    assert_eq!(
        device.memory_in_use() as u64,
        resident + device.buffer_pool_bytes() as u64,
        "working memory leaked past the drain"
    );
    if device.backend().pooling() {
        assert!(device.buffer_pool_bytes() > 0, "pool should hold shelves");
        // Steady state: more traffic at drained concurrency allocates
        // nothing fresh — the pool serves every transient buffer.
        let steady = device.stats().bytes_allocated();
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        for step in 0..8 {
            let (which, image, label, eps) = query_for(997, step, &fx);
            client
                .verify(fx[which].name, &image, label, eps)
                .expect("steady-state query");
        }
        assert_eq!(
            device.stats().bytes_allocated(),
            steady,
            "steady-state serving must not allocate fresh device bytes"
        );
    } else {
        assert_eq!(
            device.buffer_pool_bytes(),
            0,
            "non-pooling backend must shelve nothing"
        );
    }

    // -- Batch accounting is coherent (coalescing itself is pinned
    // deterministically by `bursts_coalesce_into_batches` below).
    let stats = registry.model_stats();
    let batches: u64 = stats.iter().map(|m| m.batches).sum();
    let items: u64 = stats.iter().map(|m| m.batch_items).sum();
    assert!(
        batches > 0 && items >= batches,
        "incoherent batching: {stats:?}"
    );

    // -- Bit-identity: replay every collected verdict against a direct
    // engine on a fresh device of the same backend and configuration.
    type Collected = (Vec<f32>, usize, f32, gpupoly_serve::Verdict);
    let mut by_model: HashMap<usize, Vec<Collected>> = HashMap::new();
    for (which, image, label, eps, verdict) in collected {
        by_model
            .entry(which)
            .or_default()
            .push((image, label, eps, verdict));
    }
    for (which, entries) in by_model {
        let m = &fx[which];
        let direct_device = Device::with_backend(B::default(), DeviceConfig::new().workers(2));
        let engine = Engine::new(direct_device, &m.net, soak_verify_config()).unwrap();
        let queries: Vec<Query<f32>> = entries
            .iter()
            .map(|(image, label, eps, _)| Query::new(image.clone(), *label, *eps))
            .collect();
        let direct = engine.verify_batch_fused(&queries);
        for ((_, _, _, served), direct) in entries.iter().zip(direct) {
            let direct = direct.expect("direct query succeeds");
            assert_eq!(served.verified, direct.verified);
            assert_eq!(served.margins.len(), direct.margins.len());
            for (s, d) in served.margins.iter().zip(&direct.margins) {
                assert_eq!(s.adversary, d.adversary);
                assert_eq!(s.proven, d.proven);
                assert_eq!(
                    s.lower.to_bits(),
                    d.lower.to_bits(),
                    "daemon margin {} != direct margin {} on model {}",
                    s.lower,
                    d.lower,
                    m.name
                );
            }
        }
    }

    // -- Shutdown returns every device byte.
    drop(registry);
    handle.shutdown();
    assert_eq!(device.memory_in_use(), 0, "shutdown must free everything");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn soak_cpusim_backend() {
    soak_backend::<CpuSimBackend>();
}

#[test]
fn soak_reference_backend() {
    soak_backend::<ReferenceBackend>();
}

/// Frame-length bound: a line longer than the configured frame cap is
/// discarded without buffering and earns exactly one `parse_error` reply
/// on a surviving connection — per-connection memory stays bounded and
/// nothing hangs.
#[test]
fn oversized_frames_are_bounced_not_buffered() {
    let dir = temp_dir("frames");
    store::save(&dir, "tiny", &make_net(5, 4, 6, 3)).unwrap();
    let mut cfg = ServerConfig::new(&dir);
    cfg.max_frame_len = 64 * 1024;
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).expect("bind");
    let handle = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A line just under the cap still parses (to a typed parse error —
    // it is garbage, but framed garbage).
    match client.send_raw(&"x".repeat(60 * 1024)).unwrap() {
        gpupoly_serve::protocol::Reply::Error { code, .. } => {
            assert_eq!(code, ErrorCode::ParseError)
        }
        other => panic!("expected parse_error, got {other:?}"),
    }
    client
        .ping()
        .expect("under-cap garbage keeps the connection");

    // A line over the cap is discarded (bounded memory), answered with a
    // typed error, and the connection keeps serving.
    match client.send_raw(&"y".repeat(300 * 1024)).unwrap() {
        gpupoly_serve::protocol::Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::ParseError);
            assert!(message.contains("bytes"), "{message}");
        }
        other => panic!("expected parse_error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives an over-cap frame");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pixels that are not finite numbers — `1e39` overflows `f32`, `1e999`
/// even `f64` — are a `bad_query`, not a verdict for the clamped image
/// nobody sent; the connection keeps serving.
#[test]
fn non_finite_pixels_are_bad_queries_over_the_wire() {
    let dir = temp_dir("pixels");
    store::save(&dir, "tiny", &make_net(5, 4, 6, 3)).unwrap();
    let server =
        Server::<CpuSimBackend>::bind("127.0.0.1:0", ServerConfig::new(&dir)).expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    for (kind, pixel) in [("verify", "1e39"), ("verify", "-1e39"), ("verify", "1e999")]
        .into_iter()
        .chain([("verify_complete", "1e39"), ("verify_complete", "-1e999")])
    {
        let frame = format!(
            r#"{{"type":"{kind}","model":"tiny","image":[0.5,{pixel},0.5,0.5],"label":0,"eps":0.01}}"#
        );
        match client.send_raw(&frame).unwrap() {
            gpupoly_serve::protocol::Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadQuery, "{kind} {pixel}: {message}");
                assert!(message.contains("inf"), "{kind} {pixel}: {message}");
            }
            other => panic!("{kind} {pixel}: expected bad_query, got {other:?}"),
        }
        client.ping().expect("the connection survives a bad pixel");
    }
    // The same frame with the pixel in range is answered.
    let served = client.verify("tiny", &[0.5, 1.0, 0.5, 0.5], 0, 0.01);
    served.expect("finite pixels verify");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Admission coalescing: while the worker chews on one query, a
/// synchronized burst queues up behind it and the next wakeup runs the
/// whole backlog as one `verify_batch` — visible as `max_batch >= 2`.
#[test]
fn bursts_coalesce_into_batches() {
    let dir = temp_dir("coalesce");
    // Wide enough that one verification outlasts the burst's send phase.
    let net = make_net(33, 16, 48, 4);
    store::save(&dir, "busy", &net).unwrap();

    let mut cfg = ServerConfig::new(&dir);
    cfg.policy = BatchPolicy {
        max_batch: 16,
        max_delay: Duration::from_millis(5),
    };
    cfg.queue_cap = 32;
    cfg.workers = Some(2);
    cfg.verify = soak_verify_config();
    // Machine-speed-independent: see the soak's queue_cost_cap note.
    cfg.queue_cost_cap = None;
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).expect("bind");
    let registry = server.registry().clone();
    let handle = server.spawn();
    let addr = handle.addr();

    const BURST: usize = 8;
    let barrier = Arc::new(Barrier::new(BURST + 1));
    let mut joins = Vec::new();
    for i in 0..BURST {
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let image: Vec<f32> = (0..16)
                .map(|j| 0.2 + 0.03 * ((i + j) % 17) as f32)
                .collect();
            barrier.wait();
            client.verify("busy", &image, i % 4, 0.02).expect("verify");
        }));
    }
    {
        // Occupy the worker first so the burst piles up behind it.
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        barrier.wait();
        client.verify("busy", &[0.5; 16], 0, 0.02).unwrap();
    }
    for join in joins {
        join.join().expect("burst thread");
    }
    let stats = registry.model_stats();
    assert!(
        stats[0].max_batch >= 2,
        "a {BURST}-wide burst behind a busy worker must coalesce: {stats:?}"
    );
    assert_eq!(stats[0].completed, BURST as u64 + 1);
    // A coalesced batch of same-network queries is exactly the fused
    // cross-query shape: the worker must have dispatched at least one
    // batch through the fused path (its margins are pinned bit-identical
    // to the per-query path by the engine's own tests).
    assert!(
        stats[0].fused_batches >= 1,
        "coalesced batches must dispatch through the fused path: {stats:?}"
    );
    assert!(
        stats[0].ewma_ms_per_cost > 0.0,
        "measured batches must warm the admission EWMA: {stats:?}"
    );

    drop(registry);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Backpressure: with a single-slot admission queue and a busy worker, a
/// synchronized burst must earn immediate structured `overloaded` replies —
/// never a hang — while at least one query still succeeds.
#[test]
fn overload_is_a_reply_not_a_hang() {
    let dir = temp_dir("overload");
    // Wide enough that one verification keeps the worker busy for a while.
    let net = make_net(21, 16, 48, 4);
    store::save(&dir, "busy", &net).unwrap();

    let mut cfg = ServerConfig::new(&dir);
    cfg.policy = BatchPolicy {
        max_batch: 1,
        max_delay: Duration::from_millis(0),
    };
    cfg.queue_cap = 1;
    cfg.workers = Some(1);
    cfg.verify = soak_verify_config();
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).expect("bind");
    let registry = server.registry().clone();
    let handle = server.spawn();
    let addr = handle.addr();

    // Make the model resident first so the burst measures admission, not
    // loading.
    {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client.verify("busy", &[0.5; 16], 0, 0.02).unwrap();
    }

    const BURST: usize = 12;
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(BURST));
    let mut joins = Vec::new();
    for i in 0..BURST {
        let ok = ok.clone();
        let overloaded = overloaded.clone();
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let image: Vec<f32> = (0..16)
                .map(|j| 0.2 + 0.04 * ((i + j) % 13) as f32)
                .collect();
            barrier.wait();
            match client.verify("busy", &image, i % 4, 0.02) {
                Ok(_) => {
                    ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(ClientError::Server {
                    code: ErrorCode::Overloaded,
                    ..
                }) => {
                    overloaded.fetch_add(1, Ordering::Relaxed);
                }
                Err(other) => panic!("burst reply must be verdict or overloaded: {other}"),
            }
            // The bounced connection is still perfectly usable.
            client.ping().expect("connection alive after overload");
        }));
    }
    for join in joins {
        join.join().expect("burst thread");
    }
    let ok = ok.load(Ordering::Relaxed);
    let overloaded = overloaded.load(Ordering::Relaxed);
    assert_eq!(ok + overloaded, BURST as u64);
    assert!(ok >= 1, "the burst must not starve completely");
    assert!(
        overloaded >= 1,
        "a single-slot queue under a {BURST}-wide synchronized burst must bounce someone"
    );
    let stats = registry.model_stats();
    assert_eq!(stats[0].rejected_overload, overloaded);

    drop(registry);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
