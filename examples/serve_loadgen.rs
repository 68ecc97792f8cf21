//! Load generator for the serving daemon: throughput and latency
//! percentiles versus admission batch policy and pool plan.
//!
//! Boots an in-process `gpupoly-serve` daemon over a small model zoo, then
//! drives it with concurrent closed-loop clients under several batch
//! policies and reports queries/s, p50 and p99 reply latency, and the mean
//! coalesced batch size — the baseline future scheduling work (cost-aware
//! admission, cross-query fusion) measures against. On a multi-device pool
//! every run is repeated once per plan: none (the engine on one device,
//! one drainer a device), rows (`--tensor-parallel`), weights
//! (`--weight-sharded`) and hybrid (both).
//!
//! Run: `cargo run --release --example serve_loadgen`
//! Env: `GPUPOLY_BACKEND=cpusim|reference` picks the kernel backend,
//!      `LOADGEN_CLIENTS` / `LOADGEN_REQUESTS` scale the run,
//!      `LOADGEN_DEVICES` sizes the device pool (every plan when >1),
//!      `LOADGEN_MUX` sets the pipelining window for the multiplexed leg
//!      (0 disables it).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpupoly::device::{CpuSimBackend, ReferenceBackend};
use gpupoly::nn::{builder::NetworkBuilder, store, Network};
use gpupoly::serve::protocol::{Reply, Request};
use gpupoly::serve::{BatchPolicy, Client, Plan, Server, ServerConfig};

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
            width,
            (0..width * width).map(|i| mix(i, seed + 7)).collect(),
            (0..width).map(|i| mix(i, seed + 8) * 0.3).collect(),
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

struct RunReport {
    throughput: f64,
    p50: Duration,
    p99: Duration,
    mean_batch: f64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[allow(clippy::too_many_arguments)]
fn drive<B: gpupoly::device::Backend + Default>(
    dir: &std::path::Path,
    model: &str,
    inputs: usize,
    outputs: usize,
    policy: BatchPolicy,
    clients: usize,
    requests_per_client: usize,
    devices: usize,
    plan: Plan,
    mux_window: usize,
) -> RunReport {
    let mut cfg = ServerConfig::new(dir);
    cfg.policy = policy;
    cfg.queue_cap = 4 * clients.max(1);
    cfg.devices = devices;
    cfg.plan = plan;
    let server = Server::<B>::bind("127.0.0.1:0", cfg).expect("bind");
    let registry = server.registry().clone();
    let handle = server.spawn();
    let addr = handle.addr();

    // Warmup: load the model and touch every buffer size class once.
    {
        let mut client = Client::connect(addr).unwrap();
        client.verify(model, &vec![0.5; inputs], 0, 0.005).unwrap();
    }

    let start = Instant::now();
    let model = Arc::new(model.to_string());
    let mut joins = Vec::new();
    for client_id in 0..clients {
        let model = model.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let make_query = |step: usize| {
                let image: Vec<f32> = (0..inputs)
                    .map(|i| {
                        0.15 + 0.7 * (((client_id * 131 + step * 29 + i * 7) % 101) as f32 / 101.0)
                    })
                    .collect();
                let label = (client_id + step) % outputs;
                let eps = 0.003 + 0.002 * ((client_id + step) % 4) as f32;
                (image, label, eps)
            };
            if mux_window == 0 {
                // Classic closed loop: one id-less frame in flight.
                let mut latencies = Vec::with_capacity(requests_per_client);
                for step in 0..requests_per_client {
                    let (image, label, eps) = make_query(step);
                    let t = Instant::now();
                    client
                        .verify(&model, &image, label, eps)
                        .expect("load query verifies");
                    latencies.push(t.elapsed());
                }
                return latencies;
            }
            // Multiplexed closed loop: keep up to `mux_window` id-tagged
            // frames outstanding on the one connection, matching each
            // (possibly out-of-order) reply back to its send time by id.
            let mut sent_at = vec![None; requests_per_client];
            let mut latencies = Vec::with_capacity(requests_per_client);
            let mut next = 0usize;
            let mut outstanding = 0usize;
            while latencies.len() < requests_per_client {
                while outstanding < mux_window && next < requests_per_client {
                    let (image, label, eps) = make_query(next);
                    sent_at[next] = Some(Instant::now());
                    client
                        .send_request(
                            &Request::Verify {
                                model: model.as_str().to_string(),
                                image,
                                label,
                                eps,
                            },
                            Some(next as u64),
                        )
                        .expect("pipelined send");
                    next += 1;
                    outstanding += 1;
                }
                let (id, reply) = client.recv_any().expect("mux reply");
                let id = id.expect("reply echoes its id") as usize;
                assert!(matches!(reply, Reply::Verdict { .. }), "id {id}: {reply:?}");
                let t = sent_at[id].take().expect("unknown or duplicate id");
                latencies.push(t.elapsed());
                outstanding -= 1;
            }
            latencies
        }));
    }
    let mut latencies: Vec<Duration> = Vec::new();
    for join in joins {
        latencies.extend(join.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    latencies.sort();

    let stats = registry.model_stats();
    let (batches, items) = stats
        .iter()
        .fold((0u64, 0u64), |(b, i), m| (b + m.batches, i + m.batch_items));
    drop(registry);
    handle.shutdown();

    RunReport {
        throughput: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        mean_batch: items as f64 / batches.max(1) as f64,
    }
}

fn main() {
    let backend = std::env::var("GPUPOLY_BACKEND").unwrap_or_else(|_| "cpusim".into());
    let clients = env_usize("LOADGEN_CLIENTS", 8);
    let requests = env_usize("LOADGEN_REQUESTS", 40);
    let devices = env_usize("LOADGEN_DEVICES", 1).max(1);
    let mux = env_usize("LOADGEN_MUX", 4);

    let dir = std::env::temp_dir().join(format!("gpupoly-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (inputs, width, outputs) = (12, 32, 10);
    let net = make_net(42, inputs, width, outputs);
    store::save(&dir, "loadgen", &net).expect("write model");

    let policies = [
        (
            "no batching (max_batch=1)",
            BatchPolicy {
                max_batch: 1,
                max_delay: Duration::ZERO,
            },
        ),
        (
            "batch<=8, delay 1ms",
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            },
        ),
        (
            "batch<=32, delay 2ms",
            BatchPolicy {
                max_batch: 32,
                max_delay: Duration::from_millis(2),
            },
        ),
        (
            "batch<=32, delay 5ms",
            BatchPolicy {
                max_batch: 32,
                max_delay: Duration::from_millis(5),
            },
        ),
    ];

    println!(
        "serve_loadgen: backend={backend} model={inputs}->{width}->{width}->{outputs} \
         clients={clients} requests/client={requests} devices={devices}\n"
    );
    println!(
        "{:<8} {:<30} {:>10} {:>10} {:>10} {:>11}",
        "plan", "policy", "q/s", "p50", "p99", "mean batch"
    );
    let mut runs: Vec<(String, BatchPolicy, usize)> = policies
        .iter()
        .map(|(label, policy)| (label.to_string(), *policy, 0))
        .collect();
    if mux > 0 {
        // Re-run the coalescing-friendly policy with pipelined id-tagged
        // frames: same connections, `mux` requests outstanding on each.
        runs.push((
            format!("batch<=32, delay 2ms, mux={mux}"),
            BatchPolicy {
                max_batch: 32,
                max_delay: Duration::from_millis(2),
            },
            mux,
        ));
    }
    // One device has one placement; a pool runs every plan.
    let plans = [(false, false), (true, false), (false, true), (true, true)];
    let plans = &plans[..if devices > 1 { plans.len() } else { 1 }];
    for &(split_rows, shard_weights) in plans {
        let plan = Plan {
            split_rows,
            shard_weights,
        };
        let plan_name = match (split_rows, shard_weights) {
            (false, false) => "none",
            (true, false) => "rows",
            (false, true) => "weights",
            (true, true) => "hybrid",
        };
        for (label, policy, mux_window) in &runs {
            let (policy, mux_window) = (*policy, *mux_window);
            let report = match backend.as_str() {
                "reference" => drive::<ReferenceBackend>(
                    &dir, "loadgen", inputs, outputs, policy, clients, requests, devices, plan,
                    mux_window,
                ),
                _ => drive::<CpuSimBackend>(
                    &dir, "loadgen", inputs, outputs, policy, clients, requests, devices, plan,
                    mux_window,
                ),
            };
            println!(
                "{:<8} {:<30} {:>10.1} {:>10.2?} {:>10.2?} {:>11.2}",
                plan_name, label, report.throughput, report.p50, report.p99, report.mean_batch
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
