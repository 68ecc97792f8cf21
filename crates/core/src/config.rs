//! Verifier configuration.

use std::time::Duration;

/// Tuning knobs of the verifier.
///
/// The defaults reproduce the paper's GPUPoly: early termination on,
/// inference round-off accounted for. Setting
/// [`VerifyConfig::early_termination`] to `false` yields the plain DeepPoly
/// schedule (every unstable and stable ReLU input fully backsubstituted) and
/// is used by the early-termination ablation benchmark.
///
/// # Example
///
/// ```
/// use gpupoly_core::VerifyConfig;
///
/// let cfg = VerifyConfig::default();
/// assert!(cfg.early_termination);
/// let ablation = VerifyConfig { early_termination: false, ..Default::default() };
/// assert!(!ablation.early_termination);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VerifyConfig {
    /// Skip backsubstitution for ReLU inputs whose sign is already fixed and
    /// drop rows that stabilize mid-backsubstitution (paper §3.2, §4.2).
    pub early_termination: bool,
    /// Make the certificate hold what the network's own float inference
    /// computes, round-off included (paper §4.1): every expression pays
    /// `Σ |coefficient| · round-off` into its constants for each dense,
    /// convolution and residual-add node it starts from or is substituted
    /// through ([`crate::Analysis::round_off`],
    /// [`crate::ExprBatch::absorb_round_off`]).
    ///
    /// The round-off covered is that of inference as `gpupoly_nn` performs
    /// it (`Dense::forward`, `Conv2d::forward`, `Graph::eval`): per neuron
    /// the bias, then one fused multiply-add per input in index order,
    /// rounded to nearest; one rounded addition per residual add. It is a
    /// running error bound over exactly that recursion
    /// (`gpupoly_interval::wide::WideRun`), not the order-independent
    /// a-priori bound of Miné 2004 — which on the benchmark's `dense_single`
    /// costs 8 of the 118 queries proven. An implementation that sums in
    /// another order, or rounds products on their own, is not covered. The
    /// forward interval pass encloses the same recursion whatever this is
    /// set to.
    pub account_inference_error: bool,
    /// Upper bound on the rows of one backsubstitution walk; `None` sizes
    /// walks to a fixed working set, at most [`crate::WALK_BYTES`] of rows
    /// (paper §4.2, "Memory management"), short enough that a list is cut
    /// into [`crate::STREAMS_PER_WORKER`] walks for every worker, which runs
    /// them side by side with the other workers', and no longer than a
    /// capped device's free memory allows. `Some(usize::MAX)` is one walk per
    /// layer, on one thread.
    pub chunk_rows: Option<usize>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            early_termination: true,
            account_inference_error: true,
            chunk_rows: None,
        }
    }
}

/// How the branch-and-bound refinement tier splits an undecided query
/// (see [`crate::Engine::verify_complete`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SplitRule {
    /// Bisect the widest input dimension at its midpoint — the v1 rule of
    /// the "Fast and Complete" line of work (arXiv 2011.13824): both
    /// halves re-analyze with a strictly narrower box, so unstable ReLUs
    /// progressively stabilize.
    #[default]
    InputBisection,
    /// Branch on the most influential unstable ReLU (fixing its phase to
    /// active/inactive in each child). Reserved: the hook exists so the
    /// budget/frontier machinery is rule-agnostic, but selecting it today
    /// yields a typed [`crate::VerifyError::BadQuery`].
    UnstableRelu,
}

/// Work budget of one branch-and-bound refinement
/// ([`crate::Engine::verify_complete`]).
///
/// `max_splits` bounds the *splits* spent on one query (each split turns
/// one undecided sub-box into two children, so the total sub-boxes ever
/// analyzed is at most `1 + 2 * max_splits`); `deadline` bounds wall time,
/// checked between frontier generations. Whichever runs out first stops
/// refinement with a typed `Unknown { splits_exhausted, frontier_remaining }`
/// — never a panic, never an unsound verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RefineBudget {
    /// Maximum bisections per query; `0` degenerates to plain analysis
    /// plus a concrete counterexample probe.
    pub max_splits: u32,
    /// Optional wall-clock allowance for the whole refinement, measured
    /// from the `verify_complete` call. `None` means splits-only budgeting.
    pub deadline: Option<Duration>,
    /// Which branching rule drives refinement.
    pub split_rule: SplitRule,
}

impl Default for RefineBudget {
    fn default() -> Self {
        Self {
            max_splits: 32,
            deadline: None,
            split_rule: SplitRule::InputBisection,
        }
    }
}

impl RefineBudget {
    /// A splits-only budget with the default rule.
    pub fn with_max_splits(max_splits: u32) -> Self {
        Self {
            max_splits,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = VerifyConfig::default();
        assert!(c.early_termination);
        assert!(c.account_inference_error);
        assert!(c.chunk_rows.is_none());
    }

    #[test]
    fn refine_budget_defaults() {
        let b = RefineBudget::default();
        assert_eq!(b.max_splits, 32);
        assert!(b.deadline.is_none());
        assert_eq!(b.split_rule, SplitRule::InputBisection);
        assert_eq!(RefineBudget::with_max_splits(4).max_splits, 4);
    }
}
