//! End-to-end coverage of the sharded serving surface: the multiplexed
//! wire (id-tagged pipelined frames over one connection) and a 2-device
//! pool serving tensor-parallel — margins bit-identical to a single-device
//! engine, per-device stats on the wire, both devices doing real work.

use std::path::PathBuf;
use std::time::Duration;

use gpupoly_core::{Engine, Query, VerifyConfig};
use gpupoly_device::{CpuSimBackend, Device, DeviceConfig};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::{store, Network};
use gpupoly_serve::protocol::{ErrorCode, Reply, Request, WireMargin};
use gpupoly_serve::{
    BatchPolicy, Client, ClientError, DevicePool, Registry, RegistryConfig, Server, ServerConfig,
};

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpupoly-pool-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A coalescing window wide enough that pipelined queries ride one batch: a
/// pool deals a small model's rows over its devices only where a list holds
/// more than one query, so a lone query walks on the first device like it
/// would on a single one.
const COALESCING: BatchPolicy = BatchPolicy {
    max_batch: 16,
    max_delay: Duration::from_millis(250),
};

/// Pipelines `queries` id-tagged over one connection without reading a
/// reply in between, and returns `(verified, margins)` per query, in query
/// order.
fn verify_pipelined(
    client: &mut Client,
    model: &str,
    queries: &[(Vec<f32>, usize, f32)],
) -> Vec<(bool, Vec<WireMargin>)> {
    for (id, (image, label, eps)) in queries.iter().enumerate() {
        let request = Request::Verify {
            model: model.into(),
            image: image.clone(),
            label: *label,
            eps: *eps,
        };
        client
            .send_request(&request, Some(id as u64))
            .expect("pipelined send");
    }
    let mut served = vec![None; queries.len()];
    for _ in queries {
        match client.recv_any().expect("mux reply") {
            (
                Some(id),
                Reply::Verdict {
                    verified, margins, ..
                },
            ) => served[id as usize] = Some((verified, margins)),
            other => panic!("expected an id-tagged verdict, got {other:?}"),
        }
    }
    served
        .into_iter()
        .map(|s| s.expect("every id answered"))
        .collect()
}

/// One connection, many outstanding id-tagged requests: every reply comes
/// back with its id (possibly out of order), an interleaved id-less frame
/// keeps the synchronous contract, and the connection survives the lot.
#[test]
fn multiplexed_frames_answer_by_id_on_one_connection() {
    let dir = temp_dir("mux");
    let net = make_net(3, 6, 10, 3);
    store::save(&dir, "alpha", &net).unwrap();
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", ServerConfig::new(&dir)).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    // Pipeline 8 id-tagged verifies without reading a single reply.
    const PIPELINED: u64 = 8;
    for id in 0..PIPELINED {
        let image: Vec<f32> = (0..6)
            .map(|i| 0.2 + 0.05 * ((id as usize + i) % 9) as f32)
            .collect();
        client
            .send_request(
                &Request::Verify {
                    model: "alpha".into(),
                    image,
                    label: id as usize % 3,
                    eps: 0.01,
                },
                Some(id),
            )
            .expect("pipelined send");
    }
    let mut seen = [false; PIPELINED as usize];
    for _ in 0..PIPELINED {
        let (id, reply) = client.recv_any().expect("mux reply");
        let id = id.expect("reply must echo its id") as usize;
        assert!(matches!(reply, Reply::Verdict { .. }), "id {id}: {reply:?}");
        assert!(!seen[id], "id {id} answered twice");
        seen[id] = true;
    }
    assert!(seen.iter().all(|&s| s), "every pipelined id answered");

    // An id-tagged error keeps its id too: bad label → typed error + id.
    client
        .send_request(
            &Request::Verify {
                model: "alpha".into(),
                image: vec![0.5; 6],
                label: 99,
                eps: 0.01,
            },
            Some(1234),
        )
        .unwrap();
    let (id, reply) = client.recv_any().unwrap();
    assert_eq!(id, Some(1234));
    assert!(matches!(reply, Reply::Error { .. }), "{reply:?}");

    // Id-less frames still work on the same connection (legacy contract).
    client.ping().expect("untagged frame after mux traffic");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 2-device tensor-parallel pool serves margins bit-identical to a
/// single-device engine, reports both devices on the stats wire, and the
/// aggregate meters are the per-device sums — both devices did real work.
#[test]
fn tensor_parallel_pool_is_bit_identical_and_metered_per_device() {
    let dir = temp_dir("tp");
    let net = make_net(7, 8, 14, 4);
    store::save(&dir, "beta", &net).unwrap();

    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.split_rows = true;
    cfg.policy = COALESCING;
    cfg.workers = Some(1);
    cfg.verify = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let queries: Vec<(Vec<f32>, usize, f32)> = (0..6)
        .map(|q| {
            let image: Vec<f32> = (0..8)
                .map(|i| 0.15 + 0.7 * (((q * 31 + i * 7) % 101) as f32 / 101.0))
                .collect();
            (image, q % 4, 0.005 + 0.003 * (q % 3) as f32)
        })
        .collect();
    let served = verify_pipelined(&mut client, "beta", &queries);

    // Bit-identity against a direct single-device engine.
    let direct_device = Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(1));
    let engine = Engine::new(
        direct_device,
        &net,
        VerifyConfig {
            early_termination: false,
            ..Default::default()
        },
    )
    .unwrap();
    let direct = engine.verify_batch_fused(
        &queries
            .iter()
            .map(|(image, label, eps)| Query::new(image.clone(), *label, *eps))
            .collect::<Vec<_>>(),
    );
    for ((verified, margins), d) in served.iter().zip(direct) {
        let d = d.expect("direct verdict");
        assert_eq!(*verified, d.verified);
        for (sm, dm) in margins.iter().zip(&d.margins) {
            assert_eq!(sm.adversary, dm.adversary);
            assert_eq!(sm.proven, dm.proven);
            assert_eq!(
                sm.lower.to_bits(),
                dm.lower.to_bits(),
                "tensor-parallel margin must be bit-identical to one device"
            );
        }
    }

    // Per-device breakdown on the wire: two named rows, both metered, and
    // the aggregate row is their exact sum.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.devices.len(), 2, "{stats:?}");
    assert!(stats.devices.iter().all(|d| !d.name.is_empty()));
    assert!(
        stats.devices.iter().all(|d| d.launches > 0 && d.flops > 0),
        "the row-sharded walk must run kernels on every device: {:?}",
        stats.devices
    );
    assert!(
        stats.devices.iter().all(|d| d.memory_in_use > 0),
        "tensor-parallel weights must be resident on every device"
    );
    assert_eq!(stats.device.name, "pool[2]");
    assert_eq!(
        stats.device.launches,
        stats.devices.iter().map(|d| d.launches).sum::<u64>()
    );
    assert_eq!(
        stats.device.flops,
        stats.devices.iter().map(|d| d.flops).sum::<u64>()
    );
    // A pool's batches are counted and timed like a single device's, so
    // cost-aware admission (`queue_cost_cap`) can engage.
    assert!(stats.models[0].fused_batches > 0, "{:?}", stats.models);
    assert!(
        stats.models[0].ewma_ms_per_cost > 0.0,
        "a served batch must warm the EWMA: {:?}",
        stats.models
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A deep dense ReLU chain: `inputs → width×depth (ReLU each) → outputs`.
/// Many same-sized hidden layers keep the largest single layer (and so the
/// gather double-buffer overhead) small relative to the full model — the
/// regime where weight sharding's per-device footprint win shows up.
fn make_deep_net(
    seed: u64,
    inputs: usize,
    width: usize,
    depth: usize,
    outputs: usize,
) -> Network<f32> {
    let mix = |i: usize, s: u64| {
        ((((i as u64 + 11) * (s + 37)) * 2654435761 % 1999) as f32 / 999.0 - 1.0) * 0.25
    };
    let mut b = NetworkBuilder::new_flat(inputs).dense_flat(
        width,
        (0..width * inputs).map(|i| mix(i, seed)).collect(),
        (0..width).map(|i| mix(i, seed + 5) * 0.3).collect(),
    );
    for layer in 1..depth {
        b = b.relu().dense_flat(
            width,
            (0..width * width)
                .map(|i| mix(i, seed + layer as u64))
                .collect(),
            (0..width)
                .map(|i| mix(i, seed + 50 + layer as u64) * 0.3)
                .collect(),
        );
    }
    b.relu()
        .dense_flat(
            outputs,
            (0..outputs * width).map(|i| mix(i, seed + 9)).collect(),
            vec![0.0; outputs],
        )
        .build()
        .expect("valid deep net")
}

/// A 2-device weight-sharded pool serves margins bit-identical to a
/// single-device engine, holds a shard of the weights resident on *every*
/// device, and meters the gathers on the stats wire (`comms_bytes`,
/// `resident_bytes`, `peak_resident_bytes` per device row).
#[test]
fn weight_sharded_pool_is_bit_identical_and_metered_per_device() {
    let dir = temp_dir("ws");
    let net = make_net(7, 8, 14, 4);
    store::save(&dir, "gamma", &net).unwrap();

    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.shard_weights = true;
    cfg.workers = Some(1);
    cfg.verify = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let queries: Vec<(Vec<f32>, usize, f32)> = (0..6)
        .map(|q| {
            let image: Vec<f32> = (0..8)
                .map(|i| 0.15 + 0.7 * (((q * 31 + i * 7) % 101) as f32 / 101.0))
                .collect();
            (image, q % 4, 0.005 + 0.003 * (q % 3) as f32)
        })
        .collect();
    let mut served = Vec::new();
    for (image, label, eps) in &queries {
        served.push(client.verify("gamma", image, *label, *eps).expect("verify"));
    }

    // Bit-identity against a direct single-device engine: weight residency
    // is invisible in the margins.
    let direct_device = Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(1));
    let engine = Engine::new(
        direct_device,
        &net,
        VerifyConfig {
            early_termination: false,
            ..Default::default()
        },
    )
    .unwrap();
    let direct = engine.verify_batch_fused(
        &queries
            .iter()
            .map(|(image, label, eps)| Query::new(image.clone(), *label, *eps))
            .collect::<Vec<_>>(),
    );
    for (s, d) in served.iter().zip(direct) {
        let d = d.expect("direct verdict");
        assert_eq!(s.verified, d.verified);
        for (sm, dm) in s.margins.iter().zip(&d.margins) {
            assert_eq!(sm.adversary, dm.adversary);
            assert_eq!(sm.proven, dm.proven);
            assert_eq!(
                sm.lower.to_bits(),
                dm.lower.to_bits(),
                "weight-sharded margin must be bit-identical to one device"
            );
        }
    }

    // Per-device wire rows: every device holds a shard (resident gauge and
    // its high-water both nonzero), the executing device metered gathered
    // bytes under `comms`, and the aggregate row is the exact sum.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.devices.len(), 2, "{stats:?}");
    assert!(
        stats
            .devices
            .iter()
            .all(|d| d.resident_bytes > 0 && d.memory_in_use > 0),
        "every device must hold a weight shard: {:?}",
        stats.devices
    );
    assert!(
        stats
            .devices
            .iter()
            .all(|d| d.peak_resident_bytes >= d.resident_bytes),
        "peak resident is a high-water mark: {:?}",
        stats.devices
    );
    assert!(
        stats.devices[0].comms_bytes > 0,
        "gathers land on the executing device: {:?}",
        stats.devices
    );
    assert_eq!(stats.device.name, "pool[2]");
    assert_eq!(
        stats.device.resident_bytes,
        stats.devices.iter().map(|d| d.resident_bytes).sum::<u64>()
    );
    assert_eq!(
        stats.device.comms_bytes,
        stats.devices.iter().map(|d| d.comms_bytes).sum::<u64>()
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hybrid 2D sharding over the wire: `--weight-sharded --tensor-parallel`
/// on a 2-device pool serves margins bit-identical to one device while
/// *every* device both walks rows (launches, flops) and gathers remote
/// layers onto itself (`comms_bytes`, gather hit/miss counters) — unlike
/// plain weight sharding, where only device 0 executes.
#[test]
fn hybrid_sharded_pool_walks_and_gathers_on_every_device() {
    let dir = temp_dir("hybrid");
    let net = make_deep_net(11, 8, 12, 4, 4);
    store::save(&dir, "delta", &net).unwrap();

    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.shard_weights = true;
    cfg.plan.split_rows = true;
    cfg.policy = COALESCING;
    cfg.workers = Some(1);
    cfg.verify = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let queries: Vec<(Vec<f32>, usize, f32)> = (0..6)
        .map(|q| {
            let image: Vec<f32> = (0..8)
                .map(|i| 0.15 + 0.7 * (((q * 29 + i * 13) % 101) as f32 / 101.0))
                .collect();
            (image, q % 4, 0.004 + 0.002 * (q % 3) as f32)
        })
        .collect();
    let served = verify_pipelined(&mut client, "delta", &queries);

    let direct_device = Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(1));
    let engine = Engine::new(
        direct_device,
        &net,
        VerifyConfig {
            early_termination: false,
            ..Default::default()
        },
    )
    .unwrap();
    let direct = engine.verify_batch_fused(
        &queries
            .iter()
            .map(|(image, label, eps)| Query::new(image.clone(), *label, *eps))
            .collect::<Vec<_>>(),
    );
    for ((verified, margins), d) in served.iter().zip(direct) {
        let d = d.expect("direct verdict");
        assert_eq!(*verified, d.verified);
        for (sm, dm) in margins.iter().zip(&d.margins) {
            assert_eq!(sm.adversary, dm.adversary);
            assert_eq!(sm.proven, dm.proven);
            assert_eq!(
                sm.lower.to_bits(),
                dm.lower.to_bits(),
                "hybrid margin must be bit-identical to one device"
            );
        }
    }

    // Every device is metered on the wire: rows walked (launches, flops),
    // a shard held resident, and remote layers gathered onto it (comms,
    // gather counters). The aggregate row is the exact per-field sum.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.devices.len(), 2, "{stats:?}");
    assert!(
        stats.devices.iter().all(|d| d.launches > 0 && d.flops > 0),
        "every device must walk its share of the rows: {:?}",
        stats.devices
    );
    assert!(
        stats
            .devices
            .iter()
            .all(|d| d.resident_bytes > 0 && d.memory_in_use > 0),
        "every device must hold a weight shard: {:?}",
        stats.devices
    );
    assert!(
        stats.devices.iter().all(|d| d.comms_bytes > 0),
        "every device must gather remote layers onto itself: {:?}",
        stats.devices
    );
    assert!(
        stats.devices.iter().all(|d| d.gather_misses > 0),
        "gather misses are the metered copies: {:?}",
        stats.devices
    );
    assert_eq!(stats.device.name, "pool[2]");
    for (sum, agg, what) in [
        (
            stats.devices.iter().map(|d| d.comms_bytes).sum::<u64>(),
            stats.device.comms_bytes,
            "comms_bytes",
        ),
        (
            stats.devices.iter().map(|d| d.gather_hits).sum::<u64>(),
            stats.device.gather_hits,
            "gather_hits",
        ),
        (
            stats.devices.iter().map(|d| d.gather_misses).sum::<u64>(),
            stats.device.gather_misses,
            "gather_misses",
        ),
        (
            stats
                .devices
                .iter()
                .map(|d| d.gather_evictions)
                .sum::<u64>(),
            stats.device.gather_evictions,
            "gather_evictions",
        ),
    ] {
        assert_eq!(agg, sum, "aggregate {what} must be the per-device sum");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Eviction interaction of weight-sharded workers: a model pinned by
/// admitted-but-unanswered work survives memory pressure; once unpinned it
/// is evicted whole — and eviction frees the shard on *every* pool device,
/// not just the worker's home.
#[test]
fn weight_sharded_eviction_frees_every_devices_shard_and_respects_pins() {
    use gpupoly_serve::BatchPolicy;
    let dir = temp_dir("ws-evict");
    store::save(&dir, "m1", &make_net(3, 8, 24, 4)).unwrap();
    store::save(&dir, "m2", &make_net(4, 8, 24, 4)).unwrap();

    // ~1264 full bytes per model; worst shard + double buffer ≈ 2592. A
    // 3000-byte per-device budget fits one weight-sharded model, never two.
    let mut cfg = RegistryConfig::new(&dir);
    cfg.plan.shard_weights = true;
    cfg.memory_budget = Some(3000);
    // A long coalescing window keeps m1's query admitted-but-unanswered
    // (hence pinned) while m2 applies pressure.
    cfg.policy = BatchPolicy {
        max_batch: 16,
        max_delay: Duration::from_millis(1500),
    };
    let pool: std::sync::Arc<DevicePool<CpuSimBackend>> =
        std::sync::Arc::new(DevicePool::build(2, DeviceConfig::new().workers(1)));
    let registry = Registry::with_pool(pool.clone(), cfg);

    let pending = registry.submit("m1", vec![0.5; 8], 0, 0.01).unwrap();
    assert!(
        (0..2).all(|i| pool.device(i).stats().resident_bytes() > 0),
        "m1's shards must be resident on every device"
    );

    // Pinned: m2's make-room pressure must bounce, not evict mid-flight m1.
    match registry.submit("m2", vec![0.5; 8], 1, 0.01) {
        Err(gpupoly_serve::SubmitError::Overloaded(msg)) => {
            assert!(msg.contains("pinned"), "untyped pressure bounce: {msg}")
        }
        other => panic!("expected Overloaded while m1 is pinned, got {other:?}"),
    }
    assert!(
        pending
            .recv_timeout(Duration::from_secs(30))
            .expect("m1 replies")
            .is_ok(),
        "the pinned model still answers"
    );

    // Unpinned: m2 now evicts m1 whole — both devices swap to m2's shards.
    assert!(registry
        .submit("m2", vec![0.5; 8], 1, 0.01)
        .unwrap()
        .recv_timeout(Duration::from_secs(30))
        .expect("m2 replies")
        .is_ok());
    assert_eq!(registry.resident(), vec!["m2"]);
    assert!(
        pool.replicas("m1").is_empty(),
        "m1's placement is forgotten"
    );
    assert!(
        (0..2).all(|i| pool.device(i).stats().resident_bytes() > 0),
        "m2's shards span the pool after the eviction"
    );

    // Explicit eviction returns every device's shard bytes (and the gather
    // scratch riding on the executing device).
    assert!(registry.evict("m2"));
    for i in 0..2 {
        let dev = pool.device(i);
        assert_eq!(
            dev.stats().resident_bytes(),
            0,
            "device {i} still holds shard bytes after eviction"
        );
        assert_eq!(
            dev.memory_in_use(),
            0,
            "device {i} still holds allocations after eviction"
        );
        assert!(
            dev.stats().peak_resident_bytes() > 0,
            "the high-water mark survives eviction for capacity planning"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A model whose full weights exceed ONE device's memory budget loads and
/// answers (bit-identically) across a weight-sharded pool — and without
/// `--weight-sharded` the same model earns a typed `device_oom`, because
/// no amount of eviction can ever fit it on a single device.
#[test]
fn oversized_model_loads_weight_sharded_and_device_ooms_without() {
    let dir = temp_dir("ws-big");
    // 25 dense layers, ~100 KB of weights; largest layer ~4.2 KB. Per-device:
    // worst shard ≈ 51 KB + 8.4 KB double buffer — comfortably under an
    // 80 KB budget that the 100 KB full model busts.
    let net = make_deep_net(11, 12, 32, 24, 8);
    store::save(&dir, "big", &net).unwrap();
    let budget = 80_000;
    assert!(net.param_count() * 4 > budget, "model must bust one device");

    // Without weight sharding: typed device_oom at admission.
    let mut plain = ServerConfig::new(&dir);
    plain.devices = 2;
    plain.memory_budget = Some(budget);
    plain.workers = Some(1);
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", plain).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    match client.verify("big", &[0.5; 12], 0, 0.002) {
        Err(ClientError::Server {
            code: ErrorCode::DeviceOom,
            ..
        }) => {}
        other => panic!("expected device_oom for the oversized model, got {other:?}"),
    }
    handle.shutdown();

    // Weight-sharded across 2 devices: the same model loads and answers
    // bit-identically to an (unbudgeted) single-device engine.
    let mut ws = ServerConfig::new(&dir);
    ws.devices = 2;
    ws.plan.shard_weights = true;
    ws.memory_budget = Some(budget);
    ws.workers = Some(1);
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", ws).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let image: Vec<f32> = (0..12).map(|i| 0.3 + 0.04 * (i % 7) as f32).collect();
    let served = client
        .verify("big", &image, 0, 0.002)
        .expect("oversized model must serve across the weight-sharded pool");

    let engine = Engine::new(
        Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(1)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let direct = engine.verify_batch_fused(&[Query::new(image, 0, 0.002)]);
    let direct = direct[0].as_ref().expect("direct verdict");
    assert_eq!(served.verified, direct.verified);
    for (sm, dm) in served.margins.iter().zip(&direct.margins) {
        assert_eq!(sm.lower.to_bits(), dm.lower.to_bits());
    }

    // The stats wire shows the win: no single device holds the full model.
    let stats = client.stats().expect("stats");
    let full = (net.param_count() * 4) as u64;
    assert!(stats
        .devices
        .iter()
        .all(|d| d.resident_bytes > 0 && d.resident_bytes < full));

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Weight sharding composes with tensor-parallel serving (hybrid 2D
/// sharding) but still refuses the single-device precision tier at bind.
#[test]
fn weight_sharded_excludes_tensor_parallel_and_precision_tier_at_bind() {
    let dir = temp_dir("ws-excl");
    store::save(&dir, "m", &make_net(1, 6, 8, 3)).unwrap();

    // Hybrid is a supported composition: bind must succeed.
    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.shard_weights = true;
    cfg.plan.split_rows = true;
    let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg)
        .expect("hybrid (--weight-sharded --tensor-parallel) must bind");
    drop(server);

    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.shard_weights = true;
    cfg.precision_tier = true;
    match Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}"),
        Ok(_) => panic!("bind must refuse --weight-sharded with --precision-tier"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The tiered engine is single-device: combining it with tensor-parallel
/// serving must be refused at bind time, not discovered at load time.
#[test]
fn tensor_parallel_excludes_precision_tier_at_bind() {
    let dir = temp_dir("excl");
    let mut cfg = ServerConfig::new(&dir);
    cfg.devices = 2;
    cfg.plan.split_rows = true;
    cfg.precision_tier = true;
    match Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("tensor-parallel + precision-tier must be refused at bind"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
