//! The correctness gate every run ends with.
//!
//! Three independent oracles, none of them the engine under test:
//! a `ReferenceBackend` engine (naive serial kernels) must give bit-identical
//! margins on the first queries; every `Proven` verdict must survive concrete
//! points of its box evaluated with plain inference; and verdicts that
//! travelled the wire must be bit-equal to an in-process engine's.

use std::collections::BTreeSet;

use gpupoly::core::Query;
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::Network;

use crate::inproc::{self, Outcome};
use crate::traced::WORKERS;
use crate::workload::Shape;

/// Queries re-verified on the reference backend.
pub const REFERENCE_QUERIES: usize = 8;
/// Concrete points evaluated inside the box of every `Proven` verdict.
pub const POINTS_PER_PROOF: usize = 16;

/// The queries a gate found wrong, with one line each saying why.
#[derive(Default)]
pub struct Failures {
    pub queries: BTreeSet<usize>,
    pub notes: Vec<String>,
}

impl Failures {
    fn fail(&mut self, query: usize, why: String) {
        if self.queries.insert(query) && self.notes.len() < 20 {
            self.notes.push(format!("query {query}: {why}"));
        }
    }

    /// A fault that belongs to no single query (an unreadable `stats` frame,
    /// disagreeing probes): the run must not read as correct, so it is
    /// charged to the first query.
    pub fn fail_run(&mut self, why: String) {
        self.queries.insert(0);
        self.notes.push(why);
    }

    /// Typed errors, refusals and timeouts count as failures too.
    pub fn note_errors(&mut self, outcomes: &[Result<Outcome, String>]) {
        for (i, o) in outcomes.iter().enumerate() {
            if let Err(e) = o {
                self.fail(i, e.clone());
            }
        }
    }

    /// The run's outcome for query `at[i]` must equal the oracle's `want[i]`
    /// bit for bit.
    pub fn expect_equal(
        &mut self,
        oracle: &str,
        want: &[Result<Outcome, String>],
        at: &[usize],
        got: &[Result<Outcome, String>],
    ) {
        for (w, &i) in want.iter().zip(at) {
            match (w, &got[i]) {
                (Ok(w), Ok(g)) if w == g => {}
                (Ok(_), Ok(_)) => self.fail(i, format!("margins differ from the {oracle}")),
                (Err(e), _) => self.fail(i, format!("{oracle} failed: {e}")),
                (_, Err(_)) => {} // already counted by `note_errors`
            }
        }
    }
}

/// Margins of `queries` from a fresh engine on the naive reference backend.
pub fn reference_outcomes(
    net: &Network<f32>,
    queries: &[Query<f32>],
) -> Vec<Result<Outcome, String>> {
    let device = Device::reference(DeviceConfig::new().workers(WORKERS));
    let engine = inproc::engine(device, net);
    inproc::run_phase(&engine, net, Shape::Single, queries, false).outcomes
}

/// Margins of `queries` from a fresh production engine, fused `k` at a time
/// (bit-identical to one at a time by the engine's contract).
pub fn engine_outcomes(
    net: &Network<f32>,
    queries: &[Query<f32>],
    k: usize,
) -> Vec<Result<Outcome, String>> {
    let device = Device::new(DeviceConfig::new().workers(WORKERS));
    let engine = inproc::engine(device, net);
    inproc::run_phase(&engine, net, Shape::Fused { k }, queries, false).outcomes
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// For every `Proven` verdict, evaluates seeded points of the query's box
/// (half of them corners, where a linear bound is tightest) with plain
/// inference: the certified label must stay strictly on top.
pub fn check_proofs(
    failures: &mut Failures,
    net: &Network<f32>,
    queries: &[Query<f32>],
    outcomes: &[Result<Outcome, String>],
    seed: u64,
) {
    for (i, (q, o)) in queries.iter().zip(outcomes).enumerate() {
        if !matches!(o, Ok(o) if o.verified) {
            continue;
        }
        let mut rng = seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        for p in 0..POINTS_PER_PROOF {
            let corner = p % 2 == 0;
            let point: Vec<f32> = q
                .image
                .iter()
                .map(|&x| {
                    let (lo, hi) = ((x - q.eps).max(0.0), (x + q.eps).min(1.0));
                    let r = splitmix(&mut rng);
                    if corner {
                        if r & 1 == 0 {
                            lo
                        } else {
                            hi
                        }
                    } else {
                        (lo + (hi - lo) * ((r >> 40) as f32 / (1u64 << 24) as f32)).min(hi)
                    }
                })
                .collect();
            let out = net.infer(&point);
            if let Some(rival) = (0..out.len()).find(|&j| j != q.label && out[j] >= out[q.label]) {
                failures.fail(
                    i,
                    format!(
                        "proven, yet class {rival} ties or beats label {} at a point of the box",
                        q.label
                    ),
                );
                break;
            }
        }
    }
}
