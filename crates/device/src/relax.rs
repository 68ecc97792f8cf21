//! The DeepPoly ReLU relaxation.
//!
//! The relaxation table is consumed by the backend's ReLU substitution
//! kernel ([`crate::Backend::relu_step`]), so the type lives in this crate;
//! `gpupoly-core` re-exports it unchanged as `gpupoly_core::ReluRelax`.
//! [`ReluTable`] is what a walk reads of one query's ReLU layer, made once
//! and borrowed by every launch that steps through the layer
//! ([`crate::Backend::relu_step_tables`]).

use std::sync::OnceLock;

use gpupoly_interval::{round, Fp, Itv};

use crate::backend::ReluSides;

/// The four relaxation coefficients DeepPoly attaches to a ReLU neuron
/// `y = max(x, 0)` with input bounds `l ≤ x ≤ u`:
///
/// `alpha·x + beta  ≤  y  ≤  gamma·x + delta`.
///
/// Coefficients are intervals for floating-point soundness: `gamma = u/(u-l)`
/// involves a division, so its directed-rounding enclosure is genuinely wide
/// (a few ulps), and every downstream use takes the worst case over the
/// enclosure.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ReluRelax<F> {
    /// Lower slope (`0` or `1`, chosen adaptively — the DeepPoly heuristic
    /// minimizing relaxation area).
    pub alpha: Itv<F>,
    /// Lower intercept (always `0` for ReLU).
    pub beta: Itv<F>,
    /// Upper slope.
    pub gamma: Itv<F>,
    /// Upper intercept.
    pub delta: Itv<F>,
    /// `true` when the relaxation is exact (`l >= 0` or `u <= 0`); exact
    /// neurons satisfy the early-termination criterion of §3.2.
    pub exact: bool,
}

impl<F: Fp> ReluRelax<F> {
    /// Derives the relaxation from the input bounds `x ∈ [l, u]`.
    ///
    /// * `l >= 0`: identity, exact.
    /// * `u <= 0`: zero, exact.
    /// * otherwise: the triangle relaxation `y ≤ u(x-l)/(u-l)` above and
    ///   `y >= alpha·x` below with `alpha ∈ {0, 1}` picked by the smaller-area
    ///   rule (`1` iff `u > -l`).
    ///
    /// # Example
    ///
    /// ```
    /// use gpupoly_device::ReluRelax;
    /// use gpupoly_interval::Itv;
    ///
    /// let r = ReluRelax::from_bounds(Itv::new(-1.0_f32, 3.0));
    /// assert!(!r.exact);
    /// // upper slope ~ 3/4, delta ~ 3/4
    /// assert!(r.gamma.contains(0.75) && r.delta.contains(0.75));
    /// let id = ReluRelax::from_bounds(Itv::new(0.0_f32, 2.0));
    /// assert!(id.exact && id.gamma.contains(1.0));
    /// ```
    pub fn from_bounds(b: Itv<F>) -> Self {
        let (l, u) = (b.lo, b.hi);
        if l >= F::ZERO {
            return Self {
                alpha: Itv::point(F::ONE),
                beta: Itv::zero(),
                gamma: Itv::point(F::ONE),
                delta: Itv::zero(),
                exact: true,
            };
        }
        if u <= F::ZERO {
            return Self {
                alpha: Itv::zero(),
                beta: Itv::zero(),
                gamma: Itv::zero(),
                delta: Itv::zero(),
                exact: true,
            };
        }
        // Unstable: l < 0 < u. gamma = u / (u - l), enclosed outward.
        let den_lo = round::sub_down(u, l);
        let den_hi = round::sub_up(u, l);
        debug_assert!(den_lo > F::ZERO);
        let gamma = Itv::new(round::div_down(u, den_hi), round::div_up(u, den_lo));
        // delta = -gamma * l  (l < 0 so delta > 0); take the worst case over
        // the gamma enclosure.
        let delta = gamma.mul_f(l).neg();
        let alpha = if u > -l { F::ONE } else { F::ZERO };
        Self {
            alpha: Itv::point(alpha),
            beta: Itv::zero(),
            gamma,
            delta: Itv::new(delta.lo.max(F::ZERO), delta.hi),
            exact: false,
        }
    }

    /// Computes the relaxation for every neuron of a layer.
    pub fn layer(bounds: &[Itv<F>]) -> Vec<Self> {
        bounds.iter().map(|&b| Self::from_bounds(b)).collect()
    }

    /// The *live* neurons of a layer whose inputs are bounded by `bounds`,
    /// ascending: those whose relaxation is not [`ReluRelax::is_zero`]. A
    /// dense step into the layer computes only these columns
    /// ([`crate::gemm::gemm_itv_f_prepared`]). The test is the relaxation
    /// table's own, not a second comparison on the bounds: an input bound
    /// `b.hi > 0` would disagree with it on a NaN bound, which the table
    /// treats as unstable.
    pub fn live(bounds: &[Itv<F>]) -> Vec<u32> {
        (0..bounds.len() as u32)
            .filter(|&j| !Self::from_bounds(bounds[j as usize]).is_zero())
            .collect()
    }

    /// `true` when the relaxation is the identity on both sides
    /// (`alpha = gamma = [1, 1]`, `beta = delta = [0, 0]` — a stably
    /// non-negative input): substituting through it changes neither a
    /// coefficient nor the constant, so the ReLU step passes such neurons by.
    pub fn is_identity(&self) -> bool {
        let is = |v: Itv<F>, x: F| v.lo == x && v.hi == x;
        is(self.alpha, F::ONE)
            && is(self.gamma, F::ONE)
            && is(self.beta, F::ZERO)
            && is(self.delta, F::ZERO)
    }

    /// `true` when the relaxation is the zero function on both sides
    /// (stably-negative input): every coefficient substituted through it
    /// becomes an exact-zero interval. Such a neuron is *dead*: the dense
    /// step into its layer does not compute its column at all but writes it
    /// as exact zero ([`ReluRelax::live`]), the ReLU step leaves that zero
    /// as it is, and the interval GEMM of the next dense step skips it term
    /// by term.
    pub fn is_zero(&self) -> bool {
        let z = |v: Itv<F>| v.lo == F::ZERO && v.hi == F::ZERO;
        z(self.alpha) && z(self.beta) && z(self.gamma) && z(self.delta)
    }
}

/// What a backsubstitution step reads of one query's ReLU layer: the
/// relaxation of every neuron, the concrete bounds of the layer's output, the
/// live neurons ([`ReluRelax::live`]) and, made the first time a launch asks,
/// the sides [`crate::CpuSimBackend`] resolves the relaxations to. All of it
/// is a function of the query's bounds, so a table made once serves every
/// walk of every list through the layer, however the list is cut.
pub struct ReluTable<F> {
    relax: Vec<ReluRelax<F>>,
    out_bounds: Vec<Itv<F>>,
    live: Vec<u32>,
    sides: OnceLock<Option<ReluSides>>,
}

impl<F: Fp> ReluTable<F> {
    /// The table of a ReLU layer whose input is bounded by `in_bounds` and
    /// whose output by `out_bounds`.
    ///
    /// # Panics
    ///
    /// As [`ReluTable::from_parts`].
    pub fn new(in_bounds: &[Itv<F>], out_bounds: &[Itv<F>]) -> Self {
        Self::from_parts(ReluRelax::layer(in_bounds), out_bounds.to_vec())
    }

    /// A table over relaxations made some other way (the conformance suite
    /// makes ones no bounds give); the live list is read off `relax`.
    ///
    /// # Panics
    ///
    /// Panics when `relax` and `out_bounds` differ in length.
    pub fn from_parts(relax: Vec<ReluRelax<F>>, out_bounds: Vec<Itv<F>>) -> Self {
        assert_eq!(
            relax.len(),
            out_bounds.len(),
            "a relaxation and an output bound per neuron"
        );
        let live = (0..relax.len() as u32)
            .filter(|&j| !relax[j as usize].is_zero())
            .collect();
        Self {
            relax,
            out_bounds,
            live,
            sides: OnceLock::new(),
        }
    }

    /// The relaxation of every neuron.
    pub fn relax(&self) -> &[ReluRelax<F>] {
        &self.relax
    }

    /// The concrete bounds of the layer's output.
    pub fn out_bounds(&self) -> &[Itv<F>] {
        &self.out_bounds
    }

    /// The live neurons, ascending: those whose relaxation is not
    /// [`ReluRelax::is_zero`].
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// The sides of every relaxation, resolved once for the table's life
    /// (`None` for a table that does not resolve, and for a scalar type
    /// without [`Fp::EXACT_IN_F64`]).
    pub(crate) fn sides(&self) -> Option<&ReluSides> {
        self.sides
            .get_or_init(|| {
                F::EXACT_IN_F64
                    .then(|| ReluSides::resolve(&self.relax, &self.out_bounds))
                    .flatten()
            })
            .as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sound(l: f32, u: f32) {
        let r = ReluRelax::from_bounds(Itv::new(l, u));
        // Sample x across [l, u]; relaxation must sandwich relu(x), for the
        // worst-case instantiation of the interval coefficients.
        for i in 0..=100 {
            let x = l + (u - l) * (i as f32) / 100.0;
            let y = x.max(0.0);
            let lo = r.alpha.mul_f(x).add(r.beta);
            let hi = r.gamma.mul_f(x).add(r.delta);
            assert!(
                lo.lo <= y + 1e-5,
                "lower violated at x={x}: {} > {y} (l={l}, u={u})",
                lo.lo
            );
            assert!(
                hi.hi >= y - 1e-5,
                "upper violated at x={x}: {} < {y} (l={l}, u={u})",
                hi.hi
            );
        }
    }

    #[test]
    fn stable_positive_is_identity() {
        let r = ReluRelax::from_bounds(Itv::new(0.5_f32, 2.0));
        assert!(r.exact);
        assert_eq!(r.alpha, Itv::point(1.0));
        assert_eq!(r.delta, Itv::zero());
        assert!(!r.is_zero());
        check_sound(0.5, 2.0);
    }

    #[test]
    fn stable_negative_is_zero() {
        let r = ReluRelax::from_bounds(Itv::new(-3.0_f32, -0.1));
        assert!(r.exact);
        assert_eq!(r.gamma, Itv::zero());
        assert!(r.is_zero());
        check_sound(-3.0, -0.1);
    }

    #[test]
    fn boundary_zero_lower_is_exact_identity() {
        let r = ReluRelax::from_bounds(Itv::new(0.0_f32, 1.0));
        assert!(r.exact);
        let r = ReluRelax::from_bounds(Itv::new(-1.0_f32, 0.0));
        assert!(r.exact);
        assert_eq!(r.gamma, Itv::zero());
        assert!(r.is_zero());
    }

    #[test]
    fn unstable_triangle_is_sound() {
        for (l, u) in [(-1.0, 1.0), (-3.0, 0.5), (-0.25, 4.0), (-1e-3, 1e3)] {
            check_sound(l, u);
        }
    }

    #[test]
    fn alpha_heuristic_minimizes_area() {
        // |u| > |l| -> alpha = 1; |u| < |l| -> alpha = 0.
        let r = ReluRelax::from_bounds(Itv::new(-0.5_f32, 2.0));
        assert_eq!(r.alpha, Itv::point(1.0));
        let r = ReluRelax::from_bounds(Itv::new(-2.0_f32, 0.5));
        assert_eq!(r.alpha, Itv::point(0.0));
        assert!(!r.is_zero(), "unstable neurons are never stable-zero");
    }

    #[test]
    fn gamma_encloses_real_slope() {
        let (l, u) = (-1.0_f32, 3.0_f32);
        let r = ReluRelax::from_bounds(Itv::new(l, u));
        let exact = (u as f64) / ((u - l) as f64);
        assert!((r.gamma.lo as f64) <= exact && exact <= (r.gamma.hi as f64));
        assert!(r.gamma.hi - r.gamma.lo < 1e-5, "enclosure should be tight");
    }

    #[test]
    fn live_neurons_are_the_tables_on_signed_zero_infinite_and_subnormal_bounds() {
        let (inf, sub) = (f32::INFINITY, f32::from_bits(1));
        // (bounds, live): `l >= 0` is tested first, so a bound at zero from
        // below is the identity (live), and `u <= 0` holds for either zero.
        let cases = [
            (Itv::new(-1.0_f32, -0.0), false), // hi = -0.0: stably off
            (Itv::new(-1.0, 0.0), false),      // hi = +0.0: stably off
            (Itv::new(0.0, 0.0), true),        // lo = hi = 0: the identity
            (Itv::new(-0.0, -0.0), true),      // -0.0 >= 0 too
            (Itv::new(-inf, -inf), false),     // hi = -inf
            (Itv::new(-inf, -1.0), false),     // lo = -inf, stably off
            (Itv::new(-inf, 1.0), true),       // lo = -inf, unstable
            (Itv::new(-1.0, sub), true),       // subnormal hi: unstable
            (Itv::new(-sub, sub), true),
            (Itv::new(-sub, -0.0), false),
            (Itv::new(sub, inf), true),
            (Itv::new(-1.0, 2.0), true),
        ];
        let bounds: Vec<Itv<f32>> = cases.iter().map(|c| c.0).collect();
        let want: Vec<u32> = (0..cases.len() as u32)
            .filter(|&j| cases[j as usize].1)
            .collect();
        assert_eq!(ReluRelax::live(&bounds), want);
        for (j, &b) in bounds.iter().enumerate() {
            assert_eq!(
                want.contains(&(j as u32)),
                !ReluRelax::from_bounds(b).is_zero(),
                "neuron {j} ({b}): live list and relaxation table disagree"
            );
        }
        assert!(ReluRelax::<f32>::live(&[]).is_empty());
    }

    #[test]
    fn layer_maps_all_neurons() {
        let bounds = [
            Itv::new(-1.0_f32, 1.0),
            Itv::new(1.0, 2.0),
            Itv::new(-2.0, -1.0),
        ];
        let rs = ReluRelax::layer(&bounds);
        assert_eq!(rs.len(), 3);
        assert!(!rs[0].exact && rs[1].exact && rs[2].exact);
        assert!(!rs[0].is_zero() && !rs[1].is_zero() && rs[2].is_zero());
    }
}
