//! Property-based tests of the simulated-GPU primitives, driven through
//! the backend conformance suite so every randomly generated case is
//! checked on **both** in-tree backends: the tiled/parallel
//! [`CpuSimBackend`] and the straight-line [`ReferenceBackend`]. The
//! conformance checkers pin bit-identity against scalar oracles (and
//! containment soundness for the interval GEMM), so these properties are
//! strictly stronger than the original per-kernel assertions.

use gpupoly_device::{conformance, gemm, CpuSimBackend, Device, DeviceConfig};
use gpupoly_device::{Backend, DeviceBuffer, ReferenceBackend, SHELF_LIVE_MULTIPLE};
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
}

/// Allocates `len` elements of `T` through one of the three pool-eligible
/// constructors and checks what the pool handed out: the length asked for,
/// the promised contents, and a charge of one to two times the request.
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
        (want..=2 * want).contains(&buf.bytes()),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_accounting_holds_over_random_alloc_drop_sequences(
        ops in prop::collection::vec(
            (0u32..100, 0.6f32..1.4, any::<bool>(), 0u32..3, 0usize..64),
            50..400,
        ),
    ) {
        let dev = Device::new(DeviceConfig::new().workers(1));
        dev.buffer_pool_retain();
        let mut held: Vec<Held> = Vec::new();
        // Request sizes drift downwards, as the rows of a walk do after every
        // early-termination filter, and start over with the next walk.
        let mut base = 6000usize;
        for &(choice, scale, unsigned, ctor, pick) in &ops {
            if choice < 55 || held.is_empty() {
                let len = (base as f32 * scale) as usize + 1;
                base = if base < 64 { 6000 } else { base * 15 / 16 };
                let (hits0, fresh0) = (dev.stats().pool_hits(), dev.stats().bytes_allocated());
                let buf = if unsigned {
                    Held::U(pool_alloc(&dev, len, ctor, u64::MAX))
                } else {
                    Held::I(pool_alloc(&dev, len, ctor, -1i64))
                };
                // Recycled (no fresh bytes) or fresh (exactly the request).
                let fresh = (dev.stats().bytes_allocated() - fresh0) as usize;
                if dev.stats().pool_hits() > hits0 {
                    prop_assert_eq!(fresh, 0);
                } else {
                    prop_assert_eq!((fresh, buf.bytes()), (len * 8, len * 8));
                }
                held.push(buf);
            } else {
                held.swap_remove(pick % held.len());
            }
            let live: usize = held.iter().map(Held::bytes).sum();
            prop_assert_eq!(dev.memory_in_use(), live + dev.buffer_pool_bytes());
            prop_assert!(live <= dev.peak_live_memory());
            prop_assert!(dev.buffer_pool_bytes() <= SHELF_LIVE_MULTIPLE * dev.peak_live_memory());
            prop_assert!(dev.peak_memory() <= (SHELF_LIVE_MULTIPLE + 1) * dev.peak_live_memory());
        }
        prop_assert!(dev.stats().pool_hits() > 0, "the sequence never recycled");
        drop(held);
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

/// The shelf has one lane per stream position, so what a stream finds there
/// is what the stream at its position left — whatever its siblings did in
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
    assert_eq!(want.4.len(), 4, "one lane per stream position");
    for yields in 1..200 {
        assert_eq!(counters(yields), want, "yield pattern {yields}");
    }
}

/// Resident weights are in lane 0's live mark only, and every lane's budget
/// is credited with a worker's share of them — so the allowance they add to
/// the shelf is the device's, `lanes / workers` times over, not one per
/// lane. Eight workers, two lanes each; a stream holds one 8 kB buffer at a
/// time, of five element types in turn, so its own mark lets it keep two of
/// the five: with 160 kB of weights (a 20 kB share) it keeps all five, with
/// 16 kB (2 kB) the two — and the device's peak stays inside the bound
/// [`gpupoly_device::Device::peak_live_memory`] documents.
#[test]
fn pool_lanes_share_the_resident_allowance_between_them() {
    const WORKERS: usize = 8;
    const LANES: usize = 2 * WORKERS;
    for (weights, kept) in [(160_000, 40_000), (16_000, 16_000)] {
        let dev = Device::new(DeviceConfig::new().workers(WORKERS));
        dev.buffer_pool_retain();
        let resident = DeviceBuffer::from_slice(&dev, &vec![1u8; weights])
            .unwrap()
            .into_persistent();
        dev.streams(LANES, |_| {
            drop(DeviceBuffer::<u8>::for_overwrite(&dev, 8000).unwrap());
            drop(DeviceBuffer::<u16>::for_overwrite(&dev, 4000).unwrap());
            drop(DeviceBuffer::<u32>::for_overwrite(&dev, 2000).unwrap());
            drop(DeviceBuffer::<u64>::for_overwrite(&dev, 1000).unwrap());
            drop(DeviceBuffer::<i64>::for_overwrite(&dev, 1000).unwrap());
        });
        let lanes = dev.shelf_lanes();
        assert_eq!(lanes.len(), LANES);
        // Lane 0 also holds the weights, live: its own mark covers all five.
        assert_eq!(lanes[0], (40_000, weights + 8000));
        for (lane, &seen) in lanes.iter().enumerate().skip(1) {
            assert_eq!(seen, (kept, 8000), "lane {lane} on {weights} B of weights");
        }
        let live = dev.peak_live_memory();
        assert_eq!(live, weights + LANES * 8000);
        let allowance = SHELF_LIVE_MULTIPLE * (LANES / WORKERS) * weights;
        assert!(dev.buffer_pool_bytes() <= SHELF_LIVE_MULTIPLE * live + allowance);
        assert!(dev.peak_memory() <= (SHELF_LIVE_MULTIPLE + 1) * live + allowance);
        // A share apiece, not the weights apiece.
        assert!(dev.buffer_pool_bytes() <= 40_000 + (LANES - 1) * kept);
        drop(resident);
        dev.buffer_pool_release();
        assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (0, 0));
    }
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
