//! Streams are scheduling: a layer's rows cut into walks that run side by
//! side ([`gpupoly_device::Device::streams`]) give, bit for bit, what one
//! walk over the whole list gives. A one-worker device never cuts, so it is
//! the uncut reference every other worker count is held against — on both
//! backends, on the three benchmark-sized architectures (dense, dependence
//! sets, a residual split/merge inside a stream), through every entry that
//! reaches the one driver.

use gpupoly_core::{
    CompleteVerdict, Engine, EngineOptions, Query, RefineBudget, RobustnessVerdict, TieredEngine,
    VerifyConfig, VerifyError,
};
use gpupoly_device::{Backend, Device, DeviceConfig};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::Network;

/// Worker counts compared; the first never cuts.
const WORKERS: [usize; 4] = [1, 2, 3, 5];

/// An unoptimized build is some twenty times slower: it compares one cut
/// count with the uncut walk, and runs the two large networks on the
/// production backend only. CI runs this suite optimized, in full.
const QUICK: bool = cfg!(debug_assertions);

/// The worker counts a cut schedule is run at.
fn cut_workers() -> &'static [usize] {
    if QUICK {
        &[3]
    } else {
        &WORKERS[1..]
    }
}

/// One network of the suite and how hard it is driven.
struct Case {
    name: &'static str,
    net: Network<f32>,
    /// Query radius: enough unstable rows a layer to cut, few enough to
    /// finish in a debug build.
    eps: f32,
    /// Queries of the fused batch (two of them over a box already in it).
    batch: usize,
    /// The dense network: small enough for the configurations that make
    /// every row a walk or every neuron a row.
    small: bool,
}

/// The benchmark's architectures at the benchmark's scales (and its
/// initialisation seed), plus a residual network: a split and a merge
/// inside every stream that walks through it.
fn cases() -> Vec<Case> {
    [
        ("Fc6x500", ArchId::Fc6x500, 0.2, 1e-4, 16, true),
        ("ConvBig", ArchId::ConvBig, 0.12, 2e-4, 4, false),
        ("ResNetTiny", ArchId::ResNetTiny, 0.04, 3e-5, 4, false),
    ]
    .into_iter()
    .map(|(name, arch, scale, eps, batch, small)| Case {
        name,
        net: build_arch(arch, Dataset::MnistLike, scale, 7).expect("zoo architecture"),
        eps,
        batch,
        small,
    })
    .collect()
}

/// `n` seeded queries at radius `eps`, labelled with the network's own
/// prediction: smooth images, so neighbouring pixels agree as real ones do.
fn queries(net: &Network<f32>, n: usize, eps: f32, seed: u64) -> Vec<Query<f32>> {
    let len = Dataset::MnistLike.input_shape().len();
    (0..n as u64)
        .map(|q| {
            let mut x = (seed + q).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut level = 0.5f32;
            let image: Vec<f32> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let step = ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                    level = (level + 0.3 * step).clamp(0.0, 1.0);
                    level
                })
                .collect();
            let label = net.classify(&image);
            Query::new(image, label, eps)
        })
        .collect()
}

/// What a verdict must repeat whatever the schedule: the decision, the
/// margin bits and the row counters. (`chunks` and `candidates` count walks
/// and their rounds, which the cut changes by design.)
#[derive(Clone, Debug, PartialEq, Eq)]
struct Seen {
    verified: bool,
    margins: Vec<(usize, u32, bool)>,
    rows: (usize, usize, usize, usize),
}

fn seen(v: &RobustnessVerdict<f32>) -> Seen {
    Seen {
        verified: v.verified,
        margins: v
            .margins
            .iter()
            .map(|m| (m.adversary, m.lower.to_bits(), m.proven))
            .collect(),
        rows: (
            v.stats.relu_nodes,
            v.stats.rows_refined,
            v.stats.rows_skipped_stable,
            v.stats.rows_stopped_early,
        ),
    }
}

fn seen_all(verdicts: Vec<Result<RobustnessVerdict<f32>, VerifyError>>) -> Vec<Seen> {
    verdicts
        .iter()
        .map(|v| seen(v.as_ref().expect("query verifies")))
        .collect()
}

/// Everything one engine configuration answers for one network, in a form
/// that compares across worker counts, plus the walks it took.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Answers {
    singles: Vec<Seen>,
    fused: Vec<Seen>,
    few_rows: Vec<Seen>,
    one_row_walks: Vec<Seen>,
    full_schedule: Vec<Seen>,
}

fn answers<B: Backend>(device: Device<B>, case: &Case) -> (Answers, usize) {
    let (net, eps) = (&case.net, case.eps);
    let cfg = VerifyConfig::default();
    // Cache off: every entry below walks for itself.
    let opts = EngineOptions {
        analysis_cache: 0,
        ..Default::default()
    };
    let engine = |cfg| Engine::with_options(device.clone(), net, cfg, opts).expect("engine");
    let qs = queries(net, case.batch, eps, 11);
    let default = engine(cfg);

    let single = vec![default.verify_robustness(&qs[0].image, qs[0].label, qs[0].eps)];
    let walks = single[0].as_ref().expect("query verifies").stats.chunks;

    // Two of the batch's queries are over a box already in it: the same
    // label again, and another label.
    let mut batch = qs.clone();
    batch[2] = batch[0].clone();
    batch[3] = Query::new(batch[1].image.clone(), (batch[1].label + 1) % 10, eps);

    // A radius at which a layer has a handful of unstable rows at most:
    // fewer rows than a many-worker device has streams.
    let narrow: Vec<Query<f32>> = qs[..2]
        .iter()
        .map(|q| Query::new(q.image.clone(), q.label, eps * 0.02))
        .collect();

    // One row a walk, and the schedule without early termination (every
    // neuron of every layer a row): hundreds of walks and thousands of rows
    // on the large networks, so the dense one stands for them.
    let small_only = |cfg| {
        if case.small {
            seen_all(engine(cfg).verify_batch_fused(&qs[..1]))
        } else {
            Vec::new()
        }
    };
    let out = Answers {
        singles: seen_all(single),
        fused: seen_all(default.verify_batch_fused(&batch)),
        few_rows: seen_all(default.verify_batch_fused(&narrow)),
        one_row_walks: small_only(VerifyConfig {
            chunk_rows: Some(1),
            ..cfg
        }),
        full_schedule: small_only(VerifyConfig {
            early_termination: false,
            ..cfg
        }),
    };
    (out, walks)
}

/// Every worker count of `device` against the uncut walk on the production
/// backend — so the two backends are held to each other as well.
fn check_backend<B: Backend>(label: &str, device: impl Fn(usize) -> Device<B>, production: bool) {
    for case in cases() {
        if QUICK && !production && !case.small {
            continue;
        }
        let name = case.name;
        let uncut = Device::new(DeviceConfig::new().workers(WORKERS[0]));
        let (want, uncut_walks) = answers(uncut, &case);
        assert!(
            want.singles[0].rows.1 > 0 && want.few_rows.iter().any(|s| s.rows.1 > 0),
            "{label}/{name}: both radii must leave rows to refine"
        );
        if !production {
            assert_eq!(
                answers(device(WORKERS[0]), &case),
                (want.clone(), uncut_walks)
            );
        }
        for &workers in cut_workers() {
            let (got, walks) = answers(device(workers), &case);
            assert_eq!(got, want, "{label}/{name}: {workers} workers");
            assert!(
                walks > uncut_walks,
                "{label}/{name}: {workers} workers took {walks} walks where one \
                 worker takes {uncut_walks} — nothing was cut, nothing was tested"
            );
        }
    }
}

#[test]
fn any_worker_count_gives_the_uncut_walks_bits_on_cpusim() {
    check_backend(
        "cpusim",
        |w| Device::new(DeviceConfig::new().workers(w)),
        true,
    );
}

#[test]
fn any_worker_count_gives_the_uncut_walks_bits_on_the_reference_backend() {
    check_backend(
        "reference",
        |w| Device::reference(DeviceConfig::new().workers(w)),
        false,
    );
}

/// What a complete-mode verdict must repeat: its kind, its split counts and
/// the base verdict's bits.
fn seen_complete<F: gpupoly_interval::Fp>(v: &CompleteVerdict<F>) -> String {
    let base = |b: &RobustnessVerdict<F>| -> Vec<u64> {
        b.margins
            .iter()
            .map(|m| m.lower.to_f64().to_bits())
            .collect()
    };
    match v {
        CompleteVerdict::Proven { base: b, splits } => {
            format!("proven {splits} {:?}", b.as_ref().map(base))
        }
        CompleteVerdict::Falsified {
            counterexample,
            adversary,
            splits,
        } => format!(
            "falsified {adversary} {splits} {:?}",
            counterexample
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>()
        ),
        CompleteVerdict::Unknown {
            base: b,
            splits_exhausted,
            frontier_remaining,
        } => format!(
            "unknown {splits_exhausted} {frontier_remaining} {:?}",
            base(b)
        ),
    }
}

#[test]
fn refinement_generations_and_tier_escalations_walk_as_streams_too() {
    let case = cases().swap_remove(0);
    let (net, eps) = (&case.net, case.eps);
    let wide = net.widen();
    // A radius the plain analysis cannot settle: branch-and-bound splits,
    // and the fast tier escalates.
    let q = queries(net, 1, eps * 30.0, 23).swap_remove(0);
    let budget = RefineBudget::with_max_splits(1);
    let run = |workers: usize| {
        let device = Device::new(DeviceConfig::new().workers(workers));
        let engine = Engine::new(device.clone(), net, VerifyConfig::default()).expect("engine");
        let complete = seen_complete(&engine.verify_complete(&q, &budget).expect("complete"));
        let splits = engine.stats().splits;
        let tiered =
            TieredEngine::new(device, net, &wide, VerifyConfig::default()).expect("tiered engine");
        let escalated = seen_all(tiered.verify_batch(std::slice::from_ref(&q)));
        (complete, escalated, splits, tiered.stats().escalated)
    };
    let want = run(1);
    assert!(want.2 > 0, "the radius must make refinement split");
    assert!(want.3 > 0, "the radius must make the fast tier escalate");
    for &workers in cut_workers() {
        assert_eq!(run(workers), want, "{workers} workers");
    }
}

/// One ReLU layer over 64 pixels, neuron i = x_i − 0.5: a pixel at 0.5 is
/// unstable, one at 0.9 stably positive, so an image chooses how many rows
/// its query has.
fn pixel_controlled_net() -> Network<f32> {
    let eye = |i: usize| if i.is_multiple_of(65) { 1.0_f32 } else { 0.0 };
    NetworkBuilder::new_flat(64)
        .flatten_dense(64, eye, |_| -0.5)
        .relu()
        .flatten_dense(2, |i| ((i % 5) as f32 - 2.0) * 0.3, |_| 0.0)
        .build()
        .expect("net builds")
}

#[test]
fn a_walk_that_runs_out_of_memory_fails_alone() {
    // Two queries, 2 and 40 unstable rows, and walks of up to 40 rows: the
    // list is cut on the query boundary into a small walk and a large one,
    // which run side by side. On a cap between what the two need, the large
    // walk fails and goes round again in halves, each of which may fail
    // again; the small one, whose walk fit, is walked exactly once.
    let net = pixel_controlled_net();
    let image = |unstable: usize| -> Vec<f32> {
        (0..64)
            .map(|i| if i < unstable { 0.5 } else { 0.9 })
            .collect()
    };
    let qs = vec![Query::new(image(2), 0, 0.1), Query::new(image(40), 1, 0.1)];
    let cfg = VerifyConfig {
        chunk_rows: Some(40),
        ..Default::default()
    };
    let free = Engine::new(Device::new(DeviceConfig::new().workers(2)), &net, cfg).unwrap();
    let want = seen_all(free.verify_batch_fused(&qs));

    let mut pinned = false;
    for cap in (20..=64).rev().map(|kib| kib * 1024) {
        let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(cap));
        let engine = Engine::new(device.clone(), &net, cfg).unwrap();
        let resident = engine.prepared().resident_bytes();
        let got = engine.verify_batch_fused(&qs);
        if !got.iter().all(Result::is_ok) || engine.stats().fused_batches != 1 {
            continue; // too tight: fell back to the per-query path
        }
        let stats: Vec<_> = got
            .iter()
            .map(|v| v.as_ref().unwrap().stats.clone())
            .collect();
        assert_eq!(seen_all(got), want, "cap {cap}");
        assert_eq!(
            device.memory_in_use(),
            resident + device.buffer_pool_bytes(),
            "cap {cap}: what is charged is the weights and the shelf"
        );
        assert!(device.peak_memory() <= cap, "cap {cap} violated");
        // Lower in the window the small walk can fail too, while a half of
        // the large one holds what it needs; that is not the case pinned.
        if stats[1].chunk_shrinks > 0 && stats[0].chunk_shrinks == 0 {
            assert_eq!(
                stats[0].chunks, 1,
                "cap {cap}: the small walk fit; it must not be walked again"
            );
            assert!(stats[1].chunks >= 2, "cap {cap}: the large walk was re-cut");
            pinned = true;
        }
        drop(engine);
        assert_eq!(
            device.memory_in_use(),
            0,
            "cap {cap}: drop returns every byte"
        );
    }
    assert!(
        pinned,
        "no capacity in the scan window made the large walk fail on its own; \
         widen the window"
    );
}

#[test]
fn a_stream_finds_its_own_buffers_whatever_its_siblings_do() {
    // The shelf has a lane per worker, and a section's streams are dealt
    // round the workers in order, so the pool's counters are a function of
    // the queries, not of the interleaving: two fresh devices end the same
    // run with the same hits, misses, fresh bytes and lanes.
    // (`peak_memory` is the one reading that is a moment's sum.)
    let case = cases().swap_remove(0);
    let qs = queries(&case.net, 3, case.eps, 31);
    let run = |cfg: VerifyConfig| {
        let device = Device::new(DeviceConfig::new().workers(3));
        let engine = Engine::new(device.clone(), &case.net, cfg).expect("engine");
        let mut fresh = Vec::new();
        for q in &qs {
            engine
                .verify_robustness(&q.image, q.label, q.eps)
                .expect("query verifies");
            fresh.push(device.stats().bytes_allocated());
        }
        let stats = device.stats();
        let pool = (stats.pool_hits(), stats.pool_misses(), device.shelf_lanes());
        (fresh, pool, device.peak_live_memory())
    };
    let default = run(VerifyConfig::default());
    assert_eq!(run(VerifyConfig::default()), default);
    assert!(default.1 .2.len() > 1, "streams ran: the shelf has lanes");

    // Without early termination every query walks the same shapes: once
    // each lane is warm, nothing is allocated afresh.
    let (fresh, ..) = run(VerifyConfig {
        early_termination: false,
        ..Default::default()
    });
    assert!(
        fresh.iter().all(|&bytes| bytes == fresh[0]),
        "fresh bytes after the first query: {fresh:?}"
    );
}

#[test]
fn cut_lists_reach_a_steady_state_that_allocates_nothing() {
    // What the engine's allocation-flatness tests check on networks too
    // small to cut, on lists that are: a one-entry analysis cache under a
    // rotation of boxes recomputes every query, with early termination on
    // (so rows are compacted out mid-walk), and once every lane of the shelf has seen
    // the rotation nothing is allocated afresh — `bytes_allocated` and
    // `memory_in_use` stand still, run after run, and dropping the engine
    // returns every byte.
    let case = cases().swap_remove(0);
    let qs = queries(&case.net, 4, case.eps, 23);
    let device = Device::new(DeviceConfig::new().workers(2));
    let opts = EngineOptions {
        analysis_cache: 1,
        ..Default::default()
    };
    let engine =
        Engine::with_options(device.clone(), &case.net, VerifyConfig::default(), opts).unwrap();
    let round = || {
        let verdicts: Vec<_> = qs
            .iter()
            .map(|q| engine.verify_robustness(&q.image, q.label, q.eps))
            .collect();
        for v in &verdicts {
            let stats = &v.as_ref().expect("query verifies").stats;
            assert!(
                stats.chunks > stats.relu_nodes,
                "the lists must be cut: {stats:?}"
            );
        }
        seen_all(verdicts)
    };
    let want = round();
    round();
    let warm = (device.stats().bytes_allocated(), device.memory_in_use());
    let lanes = device.shelf_lanes();
    assert!(lanes.len() > 1, "streams ran: the shelf has lanes");
    for _ in 0..3 {
        assert_eq!(round(), want);
        assert_eq!(
            (device.stats().bytes_allocated(), device.memory_in_use()),
            warm,
            "a warm shelf serves every stream of every list"
        );
        assert_eq!(device.shelf_lanes(), lanes);
    }
    assert!(
        device.stats().kernel_launches("compact_indices") > 0,
        "rows that stopped early were compacted out of the cut lists"
    );
    let (hits, misses) = engine.cache_stats();
    assert_eq!((hits, misses), (0, 20), "every query was recomputed");
    drop(engine);
    assert_eq!(device.memory_in_use(), 0);
    assert_eq!(device.buffer_pool_bytes(), 0);
}

#[test]
fn walks_side_by_side_fit_a_capped_device_together() {
    // A cap that holds the weights and 32 rows as the schedule sizes them
    // (the widest layer, two interval planes, three buffers deep), plus
    // 1 KiB: the walks that are live at once share it, so no walk may be cut
    // for a share larger than it gets — no out-of-memory retry, cold or
    // warm — and the margins are the uncapped device's.
    let case = cases().swap_remove(0);
    let qs = queries(&case.net, 2, case.eps, 5);
    let free = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &case.net,
        VerifyConfig::default(),
    )
    .unwrap();
    let resident = free.prepared().resident_bytes();
    let widest = 28 * 28;
    let row = widest * std::mem::size_of::<[f32; 2]>() * 2 * 3;
    let cap = resident + 32 * row + 1024;
    let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(cap));
    let opts = EngineOptions {
        analysis_cache: 0,
        ..Default::default()
    };
    let engine =
        Engine::with_options(device.clone(), &case.net, VerifyConfig::default(), opts).unwrap();
    for warmth in ["cold", "warm"] {
        for q in &qs {
            let want = free.verify_robustness(&q.image, q.label, q.eps).unwrap();
            let got = engine.verify_robustness(&q.image, q.label, q.eps).unwrap();
            assert_eq!(seen(&got), seen(&want), "{warmth}");
            assert!(
                got.stats.chunks > want.stats.chunks,
                "{warmth}: the cap must cut the lists further ({} walks, {} uncapped)",
                got.stats.chunks,
                want.stats.chunks
            );
            assert_eq!(
                got.stats.chunk_shrinks, 0,
                "{warmth}: concurrent walks must fit the cap together"
            );
        }
    }
    assert!(device.peak_memory() <= cap, "capacity was violated");
    assert!(device.buffer_pool_bytes() > 1024, "the shelf is warm");
}
