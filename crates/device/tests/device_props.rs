//! Property-based tests of the simulated-GPU primitives, driven through
//! the backend conformance suite so every randomly generated case is
//! checked on **both** in-tree backends: the tiled/parallel
//! [`CpuSimBackend`] and the straight-line [`ReferenceBackend`]. The
//! conformance checkers pin bit-identity against scalar oracles (and
//! containment soundness for the interval GEMM), so these properties are
//! strictly stronger than the original per-kernel assertions.

use gpupoly_device::{conformance, gemm, CpuSimBackend, Device, DeviceConfig};
use gpupoly_device::{Backend, DeviceBuffer, ReferenceBackend};
use gpupoly_interval::Itv;
use proptest::prelude::*;

fn cpusim() -> Device<CpuSimBackend> {
    Device::new(DeviceConfig::new().workers(3))
}

fn reference() -> Device<ReferenceBackend> {
    Device::reference(DeviceConfig::new().workers(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_matches_serial_on_both_backends(
        xs in prop::collection::vec(0u32..7, 0..2000),
    ) {
        conformance::check_scan_against_oracle(&cpusim(), &xs);
        conformance::check_scan_against_oracle(&reference(), &xs);
    }

    #[test]
    fn compaction_matches_filter_on_both_backends(
        keep in prop::collection::vec(any::<bool>(), 0..1500),
        row_len in 1usize..8,
    ) {
        conformance::check_compaction_against_oracle(&cpusim(), &keep, row_len);
        conformance::check_compaction_against_oracle(&reference(), &keep, row_len);
    }

    #[test]
    fn gemm_family_matches_oracles_on_both_backends(
        m in 0usize..6, k in 0usize..12, n in 0usize..9,
        seed in 0u64..1000,
    ) {
        // Shapes include empty (m/k/n = 0), 1-element and non-square cases.
        conformance::check_gemm_against_oracle(&cpusim(), m, k, n, seed);
        conformance::check_gemm_against_oracle(&reference(), m, k, n, seed);
    }

    #[test]
    fn gemm_results_bit_identical_across_backends(
        m in 1usize..5, k in 1usize..10, n in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mix = |i: usize, s: u64| (((i as u64 + 1) * (s + 3) * 2654435761) % 2000) as f32 / 1000.0 - 1.0;
        let a: Vec<Itv<f32>> = (0..m * k).map(|i| Itv::point(mix(i, seed))).collect();
        let b: Vec<f32> = (0..k * n).map(|i| mix(i, seed + 1)).collect();
        let mut c1 = vec![Itv::zero(); m * n];
        let mut c2 = vec![Itv::zero(); m * n];
        gemm::gemm_itv_f(&cpusim(), &a, &b, &mut c1, m, k, n);
        gemm::gemm_itv_f(&reference(), &a, &b, &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert_eq!(x.lo.to_bits(), y.lo.to_bits());
            prop_assert_eq!(x.hi.to_bits(), y.hi.to_bits());
        }
    }

    #[test]
    fn gemm_acc_equals_gemm_plus_initial(
        m in 1usize..4, k in 1usize..6, n in 1usize..6,
    ) {
        let dev = cpusim();
        let a: Vec<Itv<f32>> = (0..m * k).map(|i| Itv::point((i % 5) as f32 - 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 3) as f32 - 1.0).collect();
        let init: Vec<Itv<f32>> = (0..m * n).map(|i| Itv::point(i as f32 * 0.5)).collect();
        let mut acc = init.clone();
        gemm::gemm_itv_f_acc(&dev, &a, &b, &mut acc, m, k, n);
        let mut fresh = vec![Itv::zero(); m * n];
        gemm::gemm_itv_f(&dev, &a, &b, &mut fresh, m, k, n);
        for ((z, f), i0) in acc.iter().zip(&fresh).zip(&init) {
            let sum = f.add(*i0);
            // same operations in a different association order: equal up to ulps
            prop_assert!((z.lo - sum.lo).abs() <= 1e-4 && (z.hi - sum.hi).abs() <= 1e-4);
        }
    }

    #[test]
    fn memory_accounting_never_exceeds_capacity(
        sizes in prop::collection::vec(1usize..2000, 1..30),
        cap in 1000usize..10_000,
    ) {
        let dev = Device::new(DeviceConfig::new().workers(1).memory_capacity(cap));
        let mut live = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            match DeviceBuffer::<u8>::zeroed(&dev, s) {
                Ok(b) => live.push(b),
                Err(_) => prop_assert!(dev.memory_in_use() + s > cap),
            }
            prop_assert!(dev.memory_in_use() <= cap);
            if i % 3 == 0 && !live.is_empty() {
                live.remove(0);
            }
        }
        drop(live);
        prop_assert_eq!(dev.memory_in_use(), 0);
        prop_assert!(dev.peak_memory() <= cap);
    }
}

/// A held pool buffer of one of two element types of the same size — the
/// pair a size-keyed shelf would be most tempted to confuse.
enum Held {
    U(DeviceBuffer<u64>),
    I(DeviceBuffer<i64>),
}

impl Held {
    fn bytes(&self) -> usize {
        match self {
            Held::U(b) => b.bytes(),
            Held::I(b) => b.bytes(),
        }
    }

    /// 0 for `u64`, 1 for `i64`.
    fn kind(&self) -> usize {
        match self {
            Held::U(_) => 0,
            Held::I(_) => 1,
        }
    }
}

/// Allocates `len` elements of `T` through one of the three pool-eligible
/// constructors and checks what the pool handed out: the length asked for,
/// the promised contents, and a charge of at least the request — exactly the
/// request for an upload.
fn pool_alloc<T>(dev: &Device, len: usize, ctor: u32, fill: T) -> DeviceBuffer<T>
where
    T: Copy + Default + PartialEq + std::fmt::Debug + Send + 'static,
{
    let mut buf = match ctor {
        0 => DeviceBuffer::<T>::zeroed(dev, len).unwrap(),
        1 => DeviceBuffer::<T>::for_overwrite(dev, len).unwrap(),
        _ => DeviceBuffer::from_slice(dev, &vec![fill; len]).unwrap(),
    };
    let want = len * std::mem::size_of::<T>();
    assert_eq!(buf.len(), len);
    assert!(
        buf.bytes() == want || (ctor < 2 && buf.bytes() > want),
        "{want} B served by a {} B allocation",
        buf.bytes()
    );
    match ctor {
        0 => assert!(buf.iter().all(|&x| x == T::default()), "zeroed contents"),
        1 => {}
        _ => assert!(buf.iter().all(|&x| x == fill), "uploaded contents"),
    }
    buf.fill(fill); // dirty it for whoever is served this allocation next
    buf
}

/// What one shelf lane should hold, per element type ([`Held::kind`]): the
/// sizes of the buffers the test dropped there and the pool has neither
/// handed out again nor freed, and the most the test held live at once.
#[derive(Default)]
struct LaneModel {
    shelf: [Vec<usize>; 2],
    most: [usize; 2],
}

/// Runs an alloc/drop sequence in the calling thread's shelf lane, which
/// `lane` models, and checks every step against the pool's rule: a hit is
/// the smallest shelved buffer of its type that holds the request (exactly
/// it, for an upload) and adds no fresh bytes; a miss charges exactly the
/// request and frees that type's largest shelved buffer, if any. Other
/// lanes stay as they were. After every step the lane's shelved plus held
/// buffers of each type number at most the most it held at once.
fn run_lane_ops(
    dev: &Device,
    ops: &[(u32, f32, bool, u32, usize)],
    lane: &mut LaneModel,
) -> Result<(), TestCaseError> {
    let (others_in_use, others_shelved) = (
        dev.memory_in_use() - lane.shelf.iter().flatten().sum::<usize>(),
        dev.buffer_pool_bytes() - lane.shelf.iter().flatten().sum::<usize>(),
    );
    let mut held: Vec<Held> = Vec::new();
    // Request sizes drift downwards, as the rows of a walk do after every
    // early-termination filter, and start over with the next walk.
    let mut base = 6000usize;
    for &(choice, scale, unsigned, ctor, pick) in ops {
        if choice < 55 || held.is_empty() {
            let len = (base as f32 * scale) as usize + 1;
            base = if base < 64 { 6000 } else { base * 15 / 16 };
            let want = len * 8;
            let kind = usize::from(!unsigned);
            let shelf = &mut lane.shelf[kind];
            let fit = shelf
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == want || (ctor < 2 && b > want))
                .min_by_key(|&(_, &b)| b)
                .map(|(at, _)| at);
            let (hits0, fresh0, in_use0) = (
                dev.stats().pool_hits(),
                dev.stats().bytes_allocated(),
                dev.memory_in_use(),
            );
            let buf = if unsigned {
                Held::U(pool_alloc(dev, len, ctor, u64::MAX))
            } else {
                Held::I(pool_alloc(dev, len, ctor, -1i64))
            };
            let fresh = (dev.stats().bytes_allocated() - fresh0) as usize;
            let hit = dev.stats().pool_hits() > hits0;
            prop_assert_eq!(hit, fit.is_some(), "{} B of kind {}", want, kind);
            if let Some(at) = fit {
                // Recycled: no fresh bytes, the best fit's charge.
                prop_assert_eq!((fresh, buf.bytes()), (0, shelf.swap_remove(at)));
            } else {
                // Fresh, exactly the request, in place of the largest.
                prop_assert_eq!((fresh, buf.bytes()), (want, want));
                let largest = (0..shelf.len()).max_by_key(|&at| shelf[at]);
                let freed = largest.map_or(0, |at| shelf.swap_remove(at));
                prop_assert_eq!(dev.memory_in_use(), in_use0 + want - freed);
            }
            held.push(buf);
        } else {
            let buf = held.swap_remove(pick % held.len());
            lane.shelf[buf.kind()].push(buf.bytes());
        }
        let live: usize = held.iter().map(Held::bytes).sum();
        let shelved: usize = lane.shelf.iter().flatten().sum();
        prop_assert_eq!(dev.buffer_pool_bytes(), others_shelved + shelved);
        prop_assert_eq!(dev.memory_in_use(), others_in_use + live + shelved);
        prop_assert!(live <= dev.peak_live_memory());
        for kind in 0..2 {
            let holding = held.iter().filter(|h| h.kind() == kind).count();
            lane.most[kind] = lane.most[kind].max(holding);
            prop_assert!(
                holding + lane.shelf[kind].len() <= lane.most[kind],
                "{} held and {} shelved of kind {}, at most {} held at once",
                holding,
                lane.shelf[kind].len(),
                kind,
                lane.most[kind]
            );
        }
    }
    for buf in held {
        lane.shelf[buf.kind()].push(buf.bytes());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sequence runs in lane 0, then in the lane of a two-worker
    /// section's second worker, lane 1, which must find nothing of lane 0's,
    /// then in lane 0 again.
    #[test]
    fn pool_accounting_holds_over_random_alloc_drop_sequences(
        ops in prop::collection::vec(
            (0u32..100, 0.6f32..1.4, any::<bool>(), 0u32..3, 0usize..64),
            50..400,
        ),
    ) {
        let dev = Device::new(DeviceConfig::new().workers(2));
        dev.buffer_pool_retain();
        let (first, then) = ops.split_at(ops.len() / 2);
        let mut lane0 = LaneModel::default();
        run_lane_ops(&dev, first, &mut lane0)?;
        for lane1 in dev.streams(2, |pos| {
            (pos == 1).then(|| run_lane_ops(&dev, &ops, &mut LaneModel::default()))
        }) {
            lane1.unwrap_or(Ok(()))?;
        }
        run_lane_ops(&dev, then, &mut lane0)?;
        prop_assert_eq!(dev.shelf_lanes().len(), 2);
        prop_assert!(dev.stats().pool_hits() > 0, "the sequence never recycled");
        prop_assert_eq!(dev.memory_in_use(), dev.buffer_pool_bytes());
        dev.buffer_pool_release();
        prop_assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
    }
}

/// Threads that are not running a stream all use lane 0 of the shelf: eight
/// of them allocate and
/// drop drifting sizes of both element types against one device at once. No
/// interleaving is forced (none is special); what must hold whatever the
/// schedule is that no charge is lost or double-counted and that the last
/// release drains everything.
#[test]
fn pool_accounting_survives_concurrent_lanes() {
    let dev = Device::new(DeviceConfig::new().workers(1));
    dev.buffer_pool_retain();
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for lane in 0..8u64 {
            let (dev, start) = (&dev, &start);
            s.spawn(move || {
                start.wait();
                let mut held: Vec<Held> = Vec::new();
                let mut x = lane + 1;
                for step in 0..600usize {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let len = 64 + (x >> 40) as usize % 4096;
                    if held.len() < 6 {
                        held.push(if x & 1 == 0 {
                            Held::U(pool_alloc(dev, len, step as u32 % 3, lane))
                        } else {
                            Held::I(pool_alloc(dev, len, step as u32 % 3, lane as i64))
                        });
                    } else {
                        held.swap_remove((x >> 20) as usize % held.len());
                    }
                }
            });
        }
    });
    assert_eq!(
        dev.memory_in_use(),
        dev.buffer_pool_bytes(),
        "every lane dropped its buffers: what is charged is on the shelf"
    );
    assert!(dev.stats().pool_hits() > 0);
    dev.buffer_pool_release();
    assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
}

/// One stream's share of a seeded allocation script: drifting sizes of both
/// element types, at most six buffers held, a yield wherever `yields` says
/// so. What the script asks for depends on `pos` and the step only.
fn run_pool_script(dev: &Device, pos: usize, mut yields: u64) {
    let mut held: Vec<Held> = Vec::new();
    let mut x = pos as u64 + 1;
    let mut base = 5000usize;
    for step in 0..300u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        yields = yields
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        if yields >> 61 == 0 {
            std::thread::yield_now();
        }
        if held.len() < 6 && x & 3 != 0 {
            let len = base / 2 + (x >> 40) as usize % base;
            base = if base < 64 { 5000 } else { base * 7 / 8 };
            held.push(if x & 4 == 0 {
                Held::U(pool_alloc(dev, len, step % 3, pos as u64))
            } else {
                Held::I(pool_alloc(dev, len, step % 3, pos as i64))
            });
        } else if !held.is_empty() {
            held.swap_remove((x >> 20) as usize % held.len());
        }
    }
}

/// The shelf has one lane per worker and the streams are dealt to the
/// workers before any runs, so what a stream finds there is what the
/// streams its worker ran before it left — whatever the other worker did in
/// between. The same script on fresh devices, its streams yielding at
/// different points every time, must leave the same counters every time.
#[test]
fn pool_counters_of_streams_repeat_whatever_the_interleaving() {
    let counters = |yields: u64| {
        let dev = Device::new(DeviceConfig::new().workers(2));
        dev.buffer_pool_retain();
        for round in 0..3u64 {
            // Lane 0 between sections, as a driver's own allocations are.
            run_pool_script(&dev, 7, 0);
            dev.streams(4, |pos| {
                run_pool_script(&dev, pos, (yields + round) * 4 + pos as u64 + 1)
            });
        }
        let seen = (
            dev.stats().pool_hits(),
            dev.stats().pool_misses(),
            dev.stats().bytes_allocated(),
            dev.peak_live_memory(),
            dev.shelf_lanes(),
        );
        assert_eq!(dev.memory_in_use(), dev.buffer_pool_bytes());
        dev.buffer_pool_release();
        assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
        seen
    };
    let want = counters(0);
    assert!(want.0 > 0 && want.1 > 0, "the script both hits and misses");
    assert_eq!(want.4.len(), 2, "one lane per worker");
    for yields in 1..200 {
        assert_eq!(counters(yields), want, "yield pattern {yields}");
    }
}

/// Four streams on two workers: worker `w` runs streams `w` and `w + 2`,
/// back to back in lane `w`. When a worker's two streams run the same
/// script, the second is served whole from what the first shelved — every
/// request a hit, no fresh bytes — so the device ends exactly as one stream
/// a worker leaves it.
#[test]
fn a_workers_later_streams_are_served_from_its_earlier_streams_shelf() {
    let script = |dev: &Device, pos: usize| {
        let held: Vec<DeviceBuffer<u32>> = (1..=3)
            .map(|k| DeviceBuffer::for_overwrite(dev, 1000 * k + pos % 2).unwrap())
            .collect();
        drop(held);
    };
    let run = |streams: usize| {
        let dev = Device::new(DeviceConfig::new().workers(2));
        dev.buffer_pool_retain();
        dev.streams(streams, |pos| script(&dev, pos));
        let stats = dev.stats();
        let seen = (
            stats.pool_hits(),
            stats.pool_misses(),
            stats.bytes_allocated(),
            dev.peak_live_memory(),
            dev.shelf_lanes(),
        );
        dev.buffer_pool_release();
        assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
        seen
    };
    let (hits, misses, fresh, peak, lanes) = run(2);
    assert_eq!(
        (hits, misses),
        (0, 6),
        "one stream a worker: every request fresh"
    );
    assert_eq!(lanes.len(), 2, "one lane per worker");
    assert_eq!(
        run(4),
        (hits + 6, misses, fresh, peak, lanes),
        "the second stream of each worker hits on every request, in its worker's lane"
    );
}

#[test]
fn pool_lane_serves_only_what_it_shelved_and_release_drains_every_lane() {
    let dev = Device::new(DeviceConfig::new().workers(2));
    dev.buffer_pool_retain();
    // Shelved outside any stream: lane 0.
    drop(DeviceBuffer::from_slice(&dev, &[7u32; 1000]).unwrap());
    assert_eq!(dev.shelf_lanes(), vec![(4000, 4000)]);
    assert_eq!((dev.stats().pool_hits(), dev.stats().pool_misses()), (0, 1));
    let both = std::sync::Barrier::new(2);
    let from_lane_1 = dev.streams(2, |pos| {
        both.wait(); // both streams are live: neither runs in the other's place
        let buf = DeviceBuffer::<u32>::for_overwrite(&dev, 1000).unwrap();
        both.wait(); // both have asked before either drops
        if pos == 0 {
            assert!(buf.iter().all(|&x| x == 7), "lane 0 finds its own buffer");
            None
        } else {
            assert!(buf.iter().all(|&x| x == 0), "lane 1 has nothing shelved");
            Some(buf)
        }
    });
    assert_eq!(
        (dev.stats().pool_hits(), dev.stats().pool_misses()),
        (1, 2),
        "one request per lane: lane 0's hit, lane 1's miss"
    );
    assert_eq!(dev.stats().bytes_allocated(), 8000);
    // Dropped by a thread in lane 0, the buffer still goes home to lane 1.
    drop(from_lane_1);
    assert_eq!(dev.shelf_lanes(), vec![(4000, 4000), (4000, 4000)]);
    assert_eq!(dev.peak_live_memory(), 8000, "the lanes' marks, summed");
    // ... where lane 0 does not find it.
    let a = DeviceBuffer::<u32>::for_overwrite(&dev, 1000).unwrap();
    let b = DeviceBuffer::<u32>::for_overwrite(&dev, 1000).unwrap();
    assert_eq!(dev.stats().pool_hits(), 2, "lane 0 holds one such buffer");
    assert_eq!(dev.stats().bytes_allocated(), 12000);
    drop((a, b));
    dev.buffer_pool_release();
    assert!(dev.shelf_lanes().iter().all(|&(shelved, _)| shelved == 0));
    assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
}

#[test]
fn compaction_edge_masks_on_both_backends() {
    fn masks<B: Backend>(dev: &Device<B>) {
        conformance::check_compaction_against_oracle(dev, &[], 3);
        conformance::check_compaction_against_oracle(dev, &[true], 1);
        conformance::check_compaction_against_oracle(dev, &[false], 1);
        conformance::check_compaction_against_oracle(dev, &[false; 257], 2);
        conformance::check_compaction_against_oracle(dev, &[true; 257], 2);
    }
    masks(&cpusim());
    masks(&reference());
}
