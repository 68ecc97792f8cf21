//! The specification and verdict types of the public API
//! ([`crate::Engine`] is the verifier).

use gpupoly_interval::Fp;

use crate::analysis::AnalysisStats;

/// A conjunction of strict linear inequalities over the network output:
/// each row claims `Σ coeffs·y + cst > 0`.
///
/// Robustness is the special case "the true logit beats every other logit"
/// ([`LinearSpec::robustness`]); safety properties in the ACAS-Xu style
/// ("output 0 is never minimal", etc.) are expressed the same way.
///
/// # Example
///
/// ```
/// use gpupoly_core::LinearSpec;
///
/// let spec = LinearSpec::<f32>::robustness(2, 4);
/// assert_eq!(spec.rows().len(), 3); // one margin per adversary class
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinearSpec<F> {
    rows: Vec<SpecRow<F>>,
}

/// One inequality `Σ coeffs·y + cst > 0` of a [`LinearSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpecRow<F> {
    /// Sparse coefficients over output neurons `(index, weight)`.
    pub coeffs: Vec<(usize, F)>,
    /// Constant term.
    pub cst: F,
}

impl<F: Fp> LinearSpec<F> {
    /// A spec from explicit rows.
    pub fn new(rows: Vec<SpecRow<F>>) -> Self {
        Self { rows }
    }

    /// The rows of the spec.
    pub fn rows(&self) -> &[SpecRow<F>] {
        &self.rows
    }

    /// The robustness spec for `label` among `classes` outputs: for every
    /// other class `o`, prove `y_label − y_o > 0`.
    pub fn robustness(label: usize, classes: usize) -> Self {
        let rows = (0..classes)
            .filter(|&o| o != label)
            .map(|o| SpecRow {
                coeffs: vec![(label, F::ONE), (o, F::NEG_ONE)],
                cst: F::ZERO,
            })
            .collect();
        Self { rows }
    }
}

/// Outcome of an [`crate::Engine::verify_spec`] call.
#[derive(Clone, Debug)]
pub struct SpecVerdict<F> {
    /// Per spec row: was `row > 0` proven?
    pub proven: Vec<bool>,
    /// Per spec row: the certified lower bound.
    pub lower_bounds: Vec<F>,
    /// Work counters of the underlying analysis plus the spec walk.
    pub stats: AnalysisStats,
}

impl<F> SpecVerdict<F> {
    /// `true` when every row was proven.
    pub fn all_proven(&self) -> bool {
        self.proven.iter().all(|&p| p)
    }
}

/// One adversary-class margin of a robustness verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Margin<F> {
    /// The competing class.
    pub adversary: usize,
    /// Certified lower bound on `y_label − y_adversary`.
    pub lower: F,
    /// Whether this margin was proven positive.
    pub proven: bool,
}

/// Outcome of an [`crate::Engine::verify_robustness`] call.
#[derive(Clone, Debug)]
pub struct RobustnessVerdict<F> {
    /// `true` when the label is certified for the whole L∞ ball.
    pub verified: bool,
    /// Certified margins against every other class.
    pub margins: Vec<Margin<F>>,
    /// Work counters.
    pub stats: AnalysisStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, VerifyConfig, VerifyError};
    use gpupoly_device::Device;
    use gpupoly_interval::Itv;
    use gpupoly_nn::builder::NetworkBuilder;
    use gpupoly_nn::Network;

    fn net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
            .build()
            .unwrap()
    }

    fn verifier(n: &Network<f32>) -> Engine<'_, f32, gpupoly_device::CpuSimBackend> {
        Engine::new(Device::default(), n, VerifyConfig::default()).unwrap()
    }

    #[test]
    fn robustness_verified_for_small_eps() {
        let n = net();
        let v = verifier(&n);
        assert_eq!(n.classify(&[0.4, 0.6]), 0);
        let verdict = v.verify_robustness(&[0.4, 0.6], 0, 0.05).unwrap();
        assert!(verdict.verified);
        assert_eq!(verdict.margins.len(), 1);
        assert!(verdict.margins[0].lower > 0.0);
    }

    #[test]
    fn robustness_fails_for_wrong_label() {
        // This network always prefers class 0 (y0 - y1 = 2*relu(x0+x1) + 0.5),
        // so claiming robustness of class 1 must fail at any radius.
        let n = net();
        let v = verifier(&n);
        let verdict = v.verify_robustness(&[0.4, 0.6], 1, 0.05).unwrap();
        assert!(!verdict.verified);
        assert!(verdict.margins[0].lower < 0.0);
    }

    #[test]
    fn monotone_in_eps() {
        let n = net();
        let v = verifier(&n);
        let mut last_margin = f32::INFINITY;
        for eps in [0.0_f32, 0.02, 0.05, 0.1, 0.3] {
            let m = v.verify_robustness(&[0.4, 0.6], 0, eps).unwrap().margins[0].lower;
            assert!(m <= last_margin + 1e-5, "margin grew with eps");
            last_margin = m;
        }
    }

    #[test]
    fn spec_api_matches_robustness_api() {
        let n = net();
        let v = verifier(&n);
        let input: Vec<Itv<f32>> = [0.4_f32, 0.6]
            .iter()
            .map(|&x| Itv::new(x - 0.05, x + 0.05).clamp_to(0.0, 1.0))
            .collect();
        let s = v
            .verify_spec(&input, &LinearSpec::robustness(0, 2))
            .unwrap();
        let r = v.verify_robustness(&[0.4, 0.6], 0, 0.05).unwrap();
        assert_eq!(s.all_proven(), r.verified);
        assert!((s.lower_bounds[0] - r.margins[0].lower).abs() < 1e-6);
    }

    #[test]
    fn bad_queries_are_rejected() {
        let n = net();
        let v = verifier(&n);
        assert!(matches!(
            v.verify_robustness(&[0.1], 0, 0.1),
            Err(VerifyError::BadQuery(_))
        ));
        assert!(matches!(
            v.verify_robustness(&[0.1, 0.2], 7, 0.1),
            Err(VerifyError::BadQuery(_))
        ));
        assert!(matches!(
            v.verify_robustness(&[0.1, 0.2], 0, -1.0),
            Err(VerifyError::BadQuery(_))
        ));
        let bad_spec = LinearSpec::new(vec![SpecRow {
            coeffs: vec![(9, 1.0_f32)],
            cst: 0.0,
        }]);
        let input = vec![Itv::point(0.0_f32); 2];
        assert!(matches!(
            v.verify_spec(&input, &bad_spec),
            Err(VerifyError::BadQuery(_))
        ));
    }

    #[test]
    fn custom_safety_spec() {
        // Prove y0 > y1 + 0.3 on a box via an explicit spec row.
        let n = net();
        let v = verifier(&n);
        let input = vec![Itv::new(0.35_f32, 0.45), Itv::new(0.55, 0.65)];
        let spec = LinearSpec::new(vec![SpecRow {
            coeffs: vec![(0, 1.0_f32), (1, -1.0)],
            cst: -0.3,
        }]);
        let verdict = v.verify_spec(&input, &spec).unwrap();
        assert_eq!(verdict.proven.len(), 1);
        // Sample check: at the center, y0 - y1 - 0.3 = ?
        let y = n.infer(&[0.4, 0.6]);
        assert!(y[0] - y[1] - 0.3 > 0.0);
        assert!(verdict.lower_bounds[0] <= y[0] - y[1] - 0.3 + 1e-5);
    }

    #[test]
    fn verdict_margins_are_sound_vs_attack_samples() {
        let n = net();
        let v = verifier(&n);
        let image = [0.4_f32, 0.6];
        let eps = 0.2;
        let verdict = v.verify_robustness(&image, 0, eps).unwrap();
        // The certified margin must lower-bound the margin of every attack.
        let mut worst = f32::INFINITY;
        for i in 0..=20 {
            for j in 0..=20 {
                let x = [
                    (image[0] - eps + 2.0 * eps * i as f32 / 20.0).clamp(0.0, 1.0),
                    (image[1] - eps + 2.0 * eps * j as f32 / 20.0).clamp(0.0, 1.0),
                ];
                let y = n.infer(&x);
                worst = worst.min(y[0] - y[1]);
            }
        }
        assert!(
            verdict.margins[0].lower <= worst + 1e-5,
            "certified {} but attack achieves {}",
            verdict.margins[0].lower,
            worst
        );
    }
}
