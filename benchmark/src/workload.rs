//! The four workloads and their seeded query generator.
//!
//! A workload is a network, an ε grid and an operation order. Work is a fixed
//! operation count (frozen below after calibration on the 2-core container,
//! so a full-length run measures for about `run_seconds`), never a fixed
//! duration: a faster program gives a shorter run. The seed drives image
//! generation only; the program under test sees nothing but the queries.

use gpupoly::core::Query;
use gpupoly::nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly::nn::Network;
use gpupoly::train::data;

/// How the queries reach the program.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One `Engine::verify_robustness` call per query (the paper's Table-2
    /// measurement: time per image).
    Single,
    /// `Engine::verify_batch_fused` calls of `k` queries each.
    Fused { k: usize },
    /// Closed loop over loopback TCP against an in-process `Server`:
    /// `conns` client threads, each keeping `window` id-tagged frames
    /// outstanding. Every `REPEAT_EVERY`-th request repeats the box sent
    /// `REPEAT_BACK` positions earlier on its connection with another label.
    Serve { conns: usize, window: usize },
}

/// Every 4th request of a serve connection repeats an earlier box.
pub const REPEAT_EVERY: usize = 4;
/// How far back (in positions on the connection) the repeated box lies. Not
/// a multiple of `REPEAT_EVERY`, so the source is always a fresh image and
/// repeats never chain; two connections put about 34 boxes in between, inside
/// the engine's 64-entry analysis cache.
pub const REPEAT_BACK: usize = 17;
/// Queries of the warm-up batch that ends every set-up (for `Fused`, one
/// call of this many).
pub const WARMUP_QUERIES: usize = 4;
/// Fresh queries kept aside for the traced run's unloaded probes.
pub const PROBE_QUERIES: usize = 50;
/// Network initialisation seed, fixed: `--seed` drives the images only.
pub const NET_SEED: u64 = 7;

/// One workload. `why` lives in `BENCHMARK.json`.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub arch: ArchId,
    pub scale: f64,
    pub eps: &'static [f32],
    pub shape: Shape,
    /// Operations of a full-length run: queries (`Single`), fused calls
    /// (`Fused`) or requests per connection (`Serve`).
    pub ops: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense_single",
        arch: ArchId::Fc6x500,
        scale: 0.2,
        eps: &[3e-5, 1e-4, 3e-4],
        shape: Shape::Single,
        ops: 150,
    },
    Workload {
        name: "dense_fused",
        arch: ArchId::Fc6x500,
        scale: 0.2,
        eps: &[3e-5, 1e-4, 3e-4],
        shape: Shape::Fused { k: 16 },
        ops: 13,
    },
    Workload {
        name: "conv_fused",
        arch: ArchId::ConvBig,
        scale: 0.12,
        eps: &[5e-4, 1e-3],
        shape: Shape::Fused { k: 8 },
        ops: 9,
    },
    Workload {
        name: "serve_mix",
        arch: ArchId::Fc6x500,
        scale: 0.05,
        eps: &[2e-4, 5e-4, 2e-3],
        shape: Shape::Serve {
            conns: 2,
            window: 8,
        },
        ops: 1000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's network: deterministic He-init, untrained (training on
    /// the synthetic data reaches at most 0.4 accuracy and only adds set-up
    /// noise).
    pub fn build_net(&self) -> Network<f32> {
        build_arch(self.arch, Dataset::MnistLike, self.scale, NET_SEED)
            .expect("benchmark architectures are valid at their scales")
    }

    /// Operation count of a run scaled to `share` of full length.
    pub fn scaled_ops(&self, share: f64) -> usize {
        ((self.ops as f64 * share).round() as usize).max(1)
    }

    /// Queries of a run with `ops` operations.
    pub fn query_count(&self, ops: usize) -> usize {
        match self.shape {
            Shape::Single => ops,
            Shape::Fused { k } => ops * k,
            Shape::Serve { conns, .. } => ops * conns,
        }
    }
}

/// The generated inputs of one run.
pub struct Generated {
    /// Queries in issue order. For `Serve`, connection `c` sends
    /// `queries[c * ops .. (c + 1) * ops]` in order.
    pub queries: Vec<Query<f32>>,
    /// Warm-up queries (disjoint images, so they never pre-fill the
    /// analysis cache for a timed query).
    pub warmup: Vec<Query<f32>>,
    /// Probe queries, disjoint from both.
    pub probe: Vec<Query<f32>>,
    /// FNV-1a over the workload name and every image, label and ε in issue
    /// order, as 16 hex digits.
    pub digest: String,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Generates the run's queries from `seed`. Labels are the network's own
/// predictions, so every query asks about the class the network outputs.
pub fn generate(wl: &Workload, net: &Network<f32>, ops: usize, seed: u64) -> Generated {
    let n = wl.query_count(ops);
    let per_conn = match wl.shape {
        Shape::Serve { .. } => ops,
        _ => n,
    };
    // One image pool per run; repeats consume no fresh image.
    let pool = data::synthetic(Dataset::MnistLike, n + WARMUP_QUERIES + PROBE_QUERIES, seed).images;
    let mut fresh = pool.iter();
    let mut queries: Vec<Query<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        let pos = i % per_conn;
        let repeat = matches!(wl.shape, Shape::Serve { .. })
            && pos % REPEAT_EVERY == REPEAT_EVERY - 1
            && pos >= REPEAT_BACK;
        let query = if repeat {
            let earlier = &queries[i - REPEAT_BACK];
            Query::new(
                earlier.image.clone(),
                (earlier.label + 1) % Dataset::MnistLike.classes(),
                earlier.eps,
            )
        } else {
            let image = fresh.next().expect("pool covers every query").clone();
            let label = net.classify(&image);
            Query::new(image, label, wl.eps[i % wl.eps.len()])
        };
        queries.push(query);
    }
    let mut spare = pool[n..]
        .iter()
        .enumerate()
        .map(|(i, image)| Query::new(image.clone(), net.classify(image), wl.eps[i % wl.eps.len()]));
    let warmup: Vec<Query<f32>> = spare.by_ref().take(WARMUP_QUERIES).collect();
    let probe: Vec<Query<f32>> = spare.collect();

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, wl.name.as_bytes());
    for q in &queries {
        for x in &q.image {
            fnv1a(&mut hash, &x.to_bits().to_le_bytes());
        }
        fnv1a(&mut hash, &(q.label as u64).to_le_bytes());
        fnv1a(&mut hash, &q.eps.to_bits().to_le_bytes());
    }
    Generated {
        queries,
        warmup,
        probe,
        digest: format!("{hash:016x}"),
    }
}
