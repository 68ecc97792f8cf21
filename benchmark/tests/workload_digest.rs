//! The generator is a function of the seed alone.

use gpupoly_benchmark::workload::{generate, WORKLOADS};

/// `workload_digest` of every full-length workload at seed 1. A change here
/// means the benchmark's inputs changed and earlier results no longer compare.
const SEED_1: [(&str, &str); 4] = [
    ("dense_single", "6aa336194a6c3e0d"),
    ("dense_fused", "96c2b2cff916cce0"),
    ("conv_fused", "7863928917a2572a"),
    ("serve_mix", "050e3e0d2b8b0a7b"),
];

#[test]
fn same_seed_same_digest_and_other_seed_other_digest() {
    for wl in &WORKLOADS {
        let net = wl.build_net();
        let a = generate(wl, &net, wl.ops, 1);
        let b = generate(wl, &net, wl.ops, 1);
        let c = generate(wl, &net, wl.ops, 2);
        assert_eq!(a.digest, b.digest, "{}", wl.name);
        assert_eq!(a.queries, b.queries, "{}", wl.name);
        assert_ne!(a.digest, c.digest, "{}", wl.name);
        let recorded = SEED_1
            .iter()
            .find(|(n, _)| *n == wl.name)
            .expect("recorded");
        assert_eq!(a.digest, recorded.1, "{}: seed-1 inputs changed", wl.name);
    }
}

#[test]
fn serve_repeats_send_an_earlier_box_under_another_label() {
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == "serve_mix")
        .expect("listed");
    let net = wl.build_net();
    let gen = generate(wl, &net, 100, 1);
    let repeats: Vec<usize> = (0..gen.queries.len())
        .filter(|&i| {
            let earlier = i.checked_sub(gpupoly_benchmark::workload::REPEAT_BACK);
            earlier
                .is_some_and(|e| e / 100 == i / 100 && gen.queries[e].image == gen.queries[i].image)
        })
        .collect();
    // Every 4th request from position 19 on, on both connections.
    assert_eq!(repeats.len(), 2 * 21);
    for i in repeats {
        let earlier = &gen.queries[i - gpupoly_benchmark::workload::REPEAT_BACK];
        assert_eq!(gen.queries[i].eps, earlier.eps);
        assert_eq!(gen.queries[i].label, (earlier.label + 1) % 10);
    }
}
