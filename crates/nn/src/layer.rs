//! Layer definitions: dense (fully-connected), 2-D convolution and ReLU.

use gpupoly_interval::wide::{max_mag, WideMag, WideRun, WideTerm};
use gpupoly_interval::{round, Fp, Itv};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{NetworkError, Shape};

/// Outputs that share one pass over a term list in [`affine_itv`].
const LANES: usize = 4;

/// The sound interval forward pass of both affine layers:
/// `y[l] = bias[l] + Σ x[i] · weight[off + l·stride]` over `terms`, the
/// `(i, off)` pairs all of `y` share, in order — which is the order in which
/// inference (`forward`) sums them, one fused multiply-add per term. Every
/// enclosure holds the exact image of the box *and* what inference computes
/// in `F` for each of its points; `err[l]` bounds the distance between the
/// two, over one point (the layer's *round-off*: `+inf` where it has no
/// finite bound).
///
/// For [`Fp::EXACT_IN_F64`] the non-zero inputs are widened once into `wide`
/// and every block of [`LANES`] outputs streams that list through a
/// [`WideRun`] of [`gpupoly_interval::wide`], seeded with the bias and under
/// one magnitude sum for the block. Other scalar types, and a block that
/// meets an operand that is not finite or whose sums could overflow `F` on
/// the way, take the per-step [`Itv::mul_add_f`] chain over every term: its
/// accumulator holds inference's own prefix `ŝ_k` after each step, so the
/// same running bound `u·Σ|ŝ_k| + t·2η` reads off it directly.
#[allow(clippy::too_many_arguments)]
fn affine_itv<F: Fp>(
    x: &[Itv<F>],
    terms: impl Iterator<Item = (usize, usize)> + Clone,
    weight: &[F],
    stride: usize,
    bias: &[F],
    y: &mut [Itv<F>],
    err: &mut [F],
    wide: &mut Vec<(WideTerm, usize)>,
) {
    let chain = |l: usize| {
        let (mut acc, mut run, mut steps) = (Itv::point(bias[l]), F::ZERO, 0);
        for (i, off) in terms.clone() {
            acc = x[i].mul_add_f(weight[off + l * stride], acc);
            run = round::add_up(run, acc.mag());
            steps += 1;
        }
        let (u, smallest) = (F::EPSILON * F::HALF, F::MIN_POSITIVE * F::EPSILON);
        let drift = round::fma_up(F::from_usize(steps), smallest, round::mul_up(u, run));
        (acc, if drift.is_nan() { F::INFINITY } else { drift })
    };
    if !F::EXACT_IN_F64 {
        for (l, (yl, el)) in y.iter_mut().zip(err).enumerate() {
            (*yl, *el) = chain(l);
        }
        return;
    }
    wide.clear();
    wide.extend(
        terms
            .clone()
            .map(|(i, off)| (WideTerm::new(x[i]), off))
            .filter(|(t, _)| !t.is_zero()),
    );
    let last = y.len().saturating_sub(1);
    for (block, (out, err)) in y.chunks_mut(LANES).zip(err.chunks_mut(LANES)).enumerate() {
        // The output of every lane; a remainder block's unused lanes repeat
        // its last one, so that no lane needs a test inside the loop.
        let lanes: [usize; LANES] = std::array::from_fn(|l| (block * LANES + l).min(last));
        let init = lanes.map(|l| Itv::point(bias[l]));
        let mut mag = WideMag::new(&init);
        let mut acc = WideRun::<LANES>::new(&init);
        for &(t, off) in wide.iter() {
            let w = lanes.map(|l| weight[off + l * stride]);
            mag.add(t, max_mag(&w));
            acc.mul_add(t, &w);
        }
        // One lane without a result sends the whole block to the chain.
        let done = mag.finish().and_then(|e| {
            let mut done = [(Itv::zero(), F::ZERO); LANES];
            for (l, d) in done.iter_mut().enumerate() {
                *d = acc.finish(l, e)?;
            }
            Some(done)
        });
        for (l, (yl, el)) in out.iter_mut().zip(err.iter_mut()).enumerate() {
            (*yl, *el) = done.map_or_else(|| chain(lanes[l]), |done| done[l]);
        }
    }
}

/// A fully-connected affine layer `y = W·x + b`.
///
/// `weight` is row-major `[out_len × in_len]`; fields are public passive
/// data (the trainer mutates them in place) but [`Dense::new`] validates
/// sizes.
///
/// # Example
///
/// ```
/// use gpupoly_nn::Dense;
///
/// let d = Dense::new(2, 3, vec![1.0_f32, 0.0, -1.0, 0.5, 0.5, 0.5], vec![0.0, 1.0])?;
/// let mut y = [0.0; 2];
/// d.forward(&[1.0, 2.0, 3.0], &mut y);
/// assert_eq!(y, [-2.0, 4.0]);
/// # Ok::<(), gpupoly_nn::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Dense<F> {
    /// Number of outputs (rows of `W`).
    pub out_len: usize,
    /// Number of inputs (columns of `W`).
    pub in_len: usize,
    /// Row-major `[out_len × in_len]` weights.
    pub weight: Vec<F>,
    /// Per-output bias.
    pub bias: Vec<F>,
}

impl<F: Fp> Dense<F> {
    /// Creates a validated dense layer.
    ///
    /// # Errors
    ///
    /// [`NetworkError::SizeMismatch`] when the weight or bias length does not
    /// match `out_len`/`in_len`.
    pub fn new(
        out_len: usize,
        in_len: usize,
        weight: Vec<F>,
        bias: Vec<F>,
    ) -> Result<Self, NetworkError> {
        if weight.len() != out_len * in_len {
            return Err(NetworkError::SizeMismatch {
                what: "dense weight",
                expected: out_len * in_len,
                got: weight.len(),
            });
        }
        if bias.len() != out_len {
            return Err(NetworkError::SizeMismatch {
                what: "dense bias",
                expected: out_len,
                got: bias.len(),
            });
        }
        Ok(Self {
            out_len,
            in_len,
            weight,
            bias,
        })
    }

    /// One row of the weight matrix.
    #[inline]
    pub fn row(&self, i: usize) -> &[F] {
        &self.weight[i * self.in_len..(i + 1) * self.in_len]
    }

    /// Round-to-nearest forward pass (inference).
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` have the wrong length.
    pub fn forward(&self, x: &[F], y: &mut [F]) {
        assert_eq!(x.len(), self.in_len, "dense input length");
        assert_eq!(y.len(), self.out_len, "dense output length");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = self.bias[i];
            for (&w, &xi) in self.row(i).iter().zip(x) {
                acc = w.mul_add(xi, acc);
            }
            *yi = acc;
        }
    }

    /// Sound interval forward pass — interval bound propagation through
    /// the layer: an enclosure of `W·x + b` over the box `x` that also
    /// holds what [`Dense::forward`] computes, round-off included, for every
    /// point of the box. For `f32` it is rounded outward once per output,
    /// for `f64` at every step.
    ///
    /// The round-off covered is that of `forward` as written — the bias,
    /// then one fused multiply-add per input in index order, rounded to
    /// nearest — not of another summation order or of an unfused product.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` have the wrong length.
    pub fn forward_itv(&self, x: &[Itv<F>], y: &mut [Itv<F>]) {
        self.forward_itv_round_off(x, y, &mut vec![F::ZERO; self.out_len]);
    }

    /// [`Dense::forward_itv`], and in `err[l]` the layer's *round-off* over
    /// the box: a bound on `|forward(x̂)[l] − (W·x̂ + b)[l]|` for every point
    /// `x̂` of `x` (`+inf` where there is no finite one). An expression that
    /// is substituted backwards through the layer as if it were exact owes
    /// `|coefficient| · err[l]` to inference for it.
    ///
    /// # Panics
    ///
    /// Panics when `x`, `y` or `err` have the wrong length.
    pub fn forward_itv_round_off(&self, x: &[Itv<F>], y: &mut [Itv<F>], err: &mut [F]) {
        assert_eq!(x.len(), self.in_len, "dense input length");
        assert_eq!(y.len(), self.out_len, "dense output length");
        assert_eq!(err.len(), self.out_len, "dense round-off length");
        // Output `l` meets input `k` through `weight[k + l·in_len]`.
        let terms = (0..self.in_len).map(|k| (k, k));
        let mut wide = Vec::with_capacity(self.in_len);
        affine_itv(
            x,
            terms,
            &self.weight,
            self.in_len,
            &self.bias,
            y,
            err,
            &mut wide,
        );
    }

    /// The same layer with every parameter widened to `f64` (lossless for
    /// `f32` parameters — every `f32` is exactly representable in `f64`).
    pub fn widen(&self) -> Dense<f64> {
        Dense {
            out_len: self.out_len,
            in_len: self.in_len,
            weight: self.weight.iter().map(|w| w.to_f64()).collect(),
            bias: self.bias.iter().map(|b| b.to_f64()).collect(),
        }
    }
}

/// A 2-D convolution layer.
///
/// Weight layout is `[kh][kw][c_out][c_in]` with `c_in` innermost — the
/// `F_k[f][g][d][c]` tensor of the paper's Algorithm 1, whose inner loop
/// over `c` (the layer-`k-1` channels) is the memory-contiguous, parallel
/// dimension of the GBC kernel. Padding is symmetric zero-padding.
///
/// # Example
///
/// ```
/// use gpupoly_nn::{Conv2d, Shape};
///
/// // 3x3 input, one channel, 2x2 filter of ones, stride 1, no padding.
/// let c = Conv2d::new(Shape::new(3, 3, 1), 1, (2, 2), (1, 1), (0, 0),
///                     vec![1.0_f32; 4], vec![0.0])?;
/// assert_eq!(c.out_shape, Shape::new(2, 2, 1));
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
/// let mut y = [0.0; 4];
/// c.forward(&x, &mut y);
/// assert_eq!(y, [12.0, 16.0, 24.0, 28.0]);
/// # Ok::<(), gpupoly_nn::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Conv2d<F> {
    /// Input activation shape.
    pub in_shape: Shape,
    /// Output activation shape (derived).
    pub out_shape: Shape,
    /// Filter height.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Vertical zero padding (same on both sides).
    pub ph: usize,
    /// Horizontal zero padding (same on both sides).
    pub pw: usize,
    /// Filter weights, `[kh][kw][c_out][c_in]`, `c_in` innermost.
    pub weight: Vec<F>,
    /// Per-output-channel bias.
    pub bias: Vec<F>,
}

impl<F: Fp> Conv2d<F> {
    /// Creates a validated convolution layer; the output shape is derived
    /// from the geometry.
    ///
    /// # Errors
    ///
    /// [`NetworkError::BadGeometry`] for zero strides/filters or an empty
    /// output; [`NetworkError::SizeMismatch`] for wrong weight/bias lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_shape: Shape,
        c_out: usize,
        (kh, kw): (usize, usize),
        (sh, sw): (usize, usize),
        (ph, pw): (usize, usize),
        weight: Vec<F>,
        bias: Vec<F>,
    ) -> Result<Self, NetworkError> {
        if kh == 0 || kw == 0 || sh == 0 || sw == 0 || c_out == 0 {
            return Err(NetworkError::BadGeometry(format!(
                "conv with zero dimension: k=({kh},{kw}) s=({sh},{sw}) c_out={c_out}"
            )));
        }
        if in_shape.h + 2 * ph < kh || in_shape.w + 2 * pw < kw {
            return Err(NetworkError::BadGeometry(format!(
                "filter ({kh},{kw}) larger than padded input {in_shape}"
            )));
        }
        let oh = (in_shape.h + 2 * ph - kh) / sh + 1;
        let ow = (in_shape.w + 2 * pw - kw) / sw + 1;
        let out_shape = Shape::new(oh, ow, c_out);
        let want_w = kh * kw * c_out * in_shape.c;
        if weight.len() != want_w {
            return Err(NetworkError::SizeMismatch {
                what: "conv weight",
                expected: want_w,
                got: weight.len(),
            });
        }
        if bias.len() != c_out {
            return Err(NetworkError::SizeMismatch {
                what: "conv bias",
                expected: c_out,
                got: bias.len(),
            });
        }
        Ok(Self {
            in_shape,
            out_shape,
            kh,
            kw,
            sh,
            sw,
            ph,
            pw,
            weight,
            bias,
        })
    }

    /// Linear index into the weight tensor for `(f, g, co, ci)`.
    #[inline(always)]
    pub fn widx(&self, f: usize, g: usize, co: usize, ci: usize) -> usize {
        ((f * self.kw + g) * self.out_shape.c + co) * self.in_shape.c + ci
    }

    /// Round-to-nearest forward pass.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` have the wrong length.
    pub fn forward(&self, x: &[F], y: &mut [F]) {
        assert_eq!(x.len(), self.in_shape.len(), "conv input length");
        assert_eq!(y.len(), self.out_shape.len(), "conv output length");
        let (ci_n, co_n) = (self.in_shape.c, self.out_shape.c);
        for oh in 0..self.out_shape.h {
            for ow in 0..self.out_shape.w {
                let base = self.out_shape.idx(oh, ow, 0);
                y[base..base + co_n].copy_from_slice(&self.bias);
                for f in 0..self.kh {
                    let ih = (oh * self.sh + f) as isize - self.ph as isize;
                    if ih < 0 || ih as usize >= self.in_shape.h {
                        continue;
                    }
                    for g in 0..self.kw {
                        let iw = (ow * self.sw + g) as isize - self.pw as isize;
                        if iw < 0 || iw as usize >= self.in_shape.w {
                            continue;
                        }
                        let xin = self.in_shape.idx(ih as usize, iw as usize, 0);
                        for co in 0..co_n {
                            let mut acc = y[base + co];
                            let wbase = self.widx(f, g, co, 0);
                            for ci in 0..ci_n {
                                acc = self.weight[wbase + ci].mul_add(x[xin + ci], acc);
                            }
                            y[base + co] = acc;
                        }
                    }
                }
            }
        }
    }

    /// Sound interval forward pass: an enclosure of the convolution over
    /// the box `x`, with the guarantees of [`Dense::forward_itv`].
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` have the wrong length.
    pub fn forward_itv(&self, x: &[Itv<F>], y: &mut [Itv<F>]) {
        self.forward_itv_round_off(x, y, &mut vec![F::ZERO; self.out_shape.len()]);
    }

    /// [`Conv2d::forward_itv`], and in `err` the layer's round-off over the
    /// box, as [`Dense::forward_itv_round_off`] defines it.
    ///
    /// # Panics
    ///
    /// Panics when `x`, `y` or `err` have the wrong length.
    pub fn forward_itv_round_off(&self, x: &[Itv<F>], y: &mut [Itv<F>], err: &mut [F]) {
        assert_eq!(x.len(), self.in_shape.len(), "conv input length");
        assert_eq!(y.len(), self.out_shape.len(), "conv output length");
        assert_eq!(err.len(), self.out_shape.len(), "conv round-off length");
        let (ci_n, co_n) = (self.in_shape.c, self.out_shape.c);
        // The output channels of one position share its receptive field:
        // channel `co` meets input `(ih, iw, ci)` through
        // `weight[widx(f, g, 0, ci) + co·c_in]`.
        let mut terms = Vec::with_capacity(self.kh * self.kw * ci_n);
        let mut wide = Vec::with_capacity(terms.capacity());
        for oh in 0..self.out_shape.h {
            for ow in 0..self.out_shape.w {
                terms.clear();
                for f in 0..self.kh {
                    let ih = (oh * self.sh + f) as isize - self.ph as isize;
                    if ih < 0 || ih as usize >= self.in_shape.h {
                        continue;
                    }
                    for g in 0..self.kw {
                        let iw = (ow * self.sw + g) as isize - self.pw as isize;
                        if iw < 0 || iw as usize >= self.in_shape.w {
                            continue;
                        }
                        let xin = self.in_shape.idx(ih as usize, iw as usize, 0);
                        let wbase = self.widx(f, g, 0, 0);
                        terms.extend((0..ci_n).map(|ci| (xin + ci, wbase + ci)));
                    }
                }
                let base = self.out_shape.idx(oh, ow, 0);
                affine_itv(
                    x,
                    terms.iter().copied(),
                    &self.weight,
                    ci_n,
                    &self.bias,
                    &mut y[base..base + co_n],
                    &mut err[base..base + co_n],
                    &mut wide,
                );
            }
        }
    }

    /// The same layer with every parameter widened to `f64` (lossless for
    /// `f32` parameters); the geometry is unchanged.
    pub fn widen(&self) -> Conv2d<f64> {
        Conv2d {
            in_shape: self.in_shape,
            out_shape: self.out_shape,
            kh: self.kh,
            kw: self.kw,
            sh: self.sh,
            sw: self.sw,
            ph: self.ph,
            pw: self.pw,
            weight: self.weight.iter().map(|w| w.to_f64()).collect(),
            bias: self.bias.iter().map(|b| b.to_f64()).collect(),
        }
    }
}

impl<F: Serialize> Serialize for Dense<F> {
    fn to_value(&self) -> Value {
        Value::obj([
            ("out_len", self.out_len.to_value()),
            ("in_len", self.in_len.to_value()),
            ("weight", self.weight.to_value()),
            ("bias", self.bias.to_value()),
        ])
    }
}

impl<'de, F: Deserialize<'de>> Deserialize<'de> for Dense<F> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Dense {
            out_len: usize::from_value(v.field("out_len")?)?,
            in_len: usize::from_value(v.field("in_len")?)?,
            weight: Vec::from_value(v.field("weight")?)?,
            bias: Vec::from_value(v.field("bias")?)?,
        })
    }
}

impl<F: Serialize> Serialize for Conv2d<F> {
    fn to_value(&self) -> Value {
        Value::obj([
            ("in_shape", self.in_shape.to_value()),
            ("out_shape", self.out_shape.to_value()),
            ("kh", self.kh.to_value()),
            ("kw", self.kw.to_value()),
            ("sh", self.sh.to_value()),
            ("sw", self.sw.to_value()),
            ("ph", self.ph.to_value()),
            ("pw", self.pw.to_value()),
            ("weight", self.weight.to_value()),
            ("bias", self.bias.to_value()),
        ])
    }
}

impl<'de, F: Deserialize<'de>> Deserialize<'de> for Conv2d<F> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Conv2d {
            in_shape: Shape::from_value(v.field("in_shape")?)?,
            out_shape: Shape::from_value(v.field("out_shape")?)?,
            kh: usize::from_value(v.field("kh")?)?,
            kw: usize::from_value(v.field("kw")?)?,
            sh: usize::from_value(v.field("sh")?)?,
            sw: usize::from_value(v.field("sw")?)?,
            ph: usize::from_value(v.field("ph")?)?,
            pw: usize::from_value(v.field("pw")?)?,
            weight: Vec::from_value(v.field("weight")?)?,
            bias: Vec::from_value(v.field("bias")?)?,
        })
    }
}

/// Element-wise ReLU, `y_i = max(x_i, 0)`.
pub fn relu_forward<F: Fp>(x: &[F], y: &mut [F]) {
    assert_eq!(x.len(), y.len(), "relu length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi.max(F::ZERO);
    }
}

/// Element-wise interval ReLU: `[max(l,0), max(u,0)]` (exact, no rounding).
pub fn relu_forward_itv<F: Fp>(x: &[Itv<F>], y: &mut [Itv<F>]) {
    assert_eq!(x.len(), y.len(), "relu length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = Itv::new(xi.lo.max(F::ZERO), xi.hi.max(F::ZERO));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn dense_rejects_bad_sizes() {
        assert!(matches!(
            Dense::<f32>::new(2, 2, vec![0.0; 3], vec![0.0; 2]),
            Err(NetworkError::SizeMismatch {
                what: "dense weight",
                ..
            })
        ));
        assert!(matches!(
            Dense::<f32>::new(2, 2, vec![0.0; 4], vec![0.0; 3]),
            Err(NetworkError::SizeMismatch {
                what: "dense bias",
                ..
            })
        ));
    }

    #[test]
    fn dense_forward_itv_contains_point_forward() {
        let d = Dense::new(
            2,
            3,
            vec![0.1_f32, -0.2, 0.3, 0.5, 0.5, -0.5],
            vec![1.0, -1.0],
        )
        .unwrap();
        let x = [0.3_f32, 0.7, -0.2];
        let mut y = [0.0_f32; 2];
        d.forward(&x, &mut y);
        let xi: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let mut yi = [Itv::zero(); 2];
        d.forward_itv(&xi, &mut yi);
        for (a, b) in yi.iter().zip(&y) {
            assert!(a.contains(*b), "{a} misses {b}");
        }
    }

    #[test]
    fn conv_shape_derivation() {
        let mk = |h, w, c, cout, k, s, p| {
            Conv2d::<f32>::new(
                Shape::new(h, w, c),
                cout,
                (k, k),
                (s, s),
                (p, p),
                vec![0.0; k * k * cout * c],
                vec![0.0; cout],
            )
            .unwrap()
            .out_shape
        };
        assert_eq!(mk(28, 28, 1, 32, 3, 1, 1), Shape::new(28, 28, 32));
        assert_eq!(mk(28, 28, 32, 32, 4, 2, 1), Shape::new(14, 14, 32));
        assert_eq!(mk(5, 5, 2, 2, 2, 1, 0), Shape::new(4, 4, 2));
    }

    #[test]
    fn conv_rejects_bad_geometry() {
        assert!(matches!(
            Conv2d::<f32>::new(
                Shape::new(2, 2, 1),
                1,
                (3, 3),
                (1, 1),
                (0, 0),
                vec![0.0; 9],
                vec![0.0]
            ),
            Err(NetworkError::BadGeometry(_))
        ));
        assert!(matches!(
            Conv2d::<f32>::new(
                Shape::new(4, 4, 1),
                1,
                (2, 2),
                (0, 1),
                (0, 0),
                vec![0.0; 4],
                vec![0.0]
            ),
            Err(NetworkError::BadGeometry(_))
        ));
    }

    #[test]
    fn conv_padding_zero_pads() {
        // 1x1 input, 3x3 filter, padding 1: output 1x1 sees only the center.
        let mut w = vec![0.0_f32; 9];
        w[4] = 2.0; // center tap (f=1, g=1)
        let c = Conv2d::new(Shape::new(1, 1, 1), 1, (3, 3), (1, 1), (1, 1), w, vec![0.5]).unwrap();
        let mut y = [0.0_f32];
        c.forward(&[3.0], &mut y);
        assert_eq!(y[0], 6.5);
    }

    #[test]
    fn conv_multichannel_accumulates_over_cin() {
        // 1x1 spatial, 2 in channels, 1 out channel, 1x1 filter.
        let c = Conv2d::new(
            Shape::new(1, 1, 2),
            1,
            (1, 1),
            (1, 1),
            (0, 0),
            vec![2.0_f32, 3.0],
            vec![1.0],
        )
        .unwrap();
        let mut y = [0.0_f32];
        c.forward(&[10.0, 100.0], &mut y);
        assert_eq!(y[0], 1.0 + 20.0 + 300.0);
    }

    #[test]
    fn conv_stride_skips_positions() {
        // 4x1 input, 2x1 filter of ones, stride 2.
        let c = Conv2d::new(
            Shape::new(4, 1, 1),
            1,
            (2, 1),
            (2, 1),
            (0, 0),
            vec![1.0_f32, 1.0],
            vec![0.0],
        )
        .unwrap();
        assert_eq!(c.out_shape, Shape::new(2, 1, 1));
        let mut y = [0.0_f32; 2];
        c.forward(&[1.0, 2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, [3.0, 7.0]);
    }

    #[test]
    fn conv_forward_itv_contains_point_forward() {
        let shape = Shape::new(4, 4, 2);
        let cout = 3;
        let n_w = 2 * 2 * cout * 2;
        let w: Vec<f32> = (0..n_w).map(|i| ((i % 7) as f32 - 3.0) * 0.25).collect();
        let c = Conv2d::new(shape, cout, (2, 2), (1, 1), (1, 1), w, vec![0.1, -0.1, 0.0]).unwrap();
        let x: Vec<f32> = (0..shape.len())
            .map(|i| ((i % 5) as f32 - 2.0) * 0.3)
            .collect();
        let mut y = vec![0.0_f32; c.out_shape.len()];
        c.forward(&x, &mut y);
        let xi: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let mut yi = vec![Itv::zero(); c.out_shape.len()];
        c.forward_itv(&xi, &mut yi);
        for (a, b) in yi.iter().zip(&y) {
            assert!(a.contains(*b), "{a} misses {b}");
        }
    }

    /// The interval pass as it was before the accumulator, and as `f64`
    /// keeps it: output after output, the `mul_add_f` chain from the bias
    /// over every input in order.
    fn dense_chain<F: Fp>(d: &Dense<F>, x: &[Itv<F>]) -> Vec<Itv<F>> {
        (0..d.out_len)
            .map(|i| {
                let row = d.row(i).iter().zip(x);
                row.fold(Itv::point(d.bias[i]), |acc, (&w, xi)| xi.mul_add_f(w, acc))
            })
            .collect()
    }

    /// [`dense_chain`] for the convolution: taps in `f`, `g`, `c_in` order.
    fn conv_chain(c: &Conv2d<f32>, x: &[Itv<f32>]) -> Vec<Itv<f32>> {
        let inside = |v: isize, n: usize| v >= 0 && (v as usize) < n;
        let mut y = Vec::with_capacity(c.out_shape.len());
        for oh in 0..c.out_shape.h {
            for ow in 0..c.out_shape.w {
                for co in 0..c.out_shape.c {
                    let mut acc = Itv::point(c.bias[co]);
                    for f in 0..c.kh {
                        for g in 0..c.kw {
                            let ih = (oh * c.sh + f) as isize - c.ph as isize;
                            let iw = (ow * c.sw + g) as isize - c.pw as isize;
                            if !inside(ih, c.in_shape.h) || !inside(iw, c.in_shape.w) {
                                continue;
                            }
                            for ci in 0..c.in_shape.c {
                                let xi = x[c.in_shape.idx(ih as usize, iw as usize, ci)];
                                acc = xi.mul_add_f(c.weight[c.widx(f, g, co, ci)], acc);
                            }
                        }
                    }
                    y.push(acc);
                }
            }
        }
        y
    }

    fn draw(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    /// 13 outputs: three lane blocks and a remainder.
    fn random_dense(rng: &mut StdRng) -> Dense<f32> {
        Dense::new(13, 29, draw(rng, 13 * 29), draw(rng, 13)).unwrap()
    }

    /// Stride 2, padding 1, a non-square filter and `c_out = 5` (a block and
    /// a remainder): border positions lose taps to the padding.
    fn random_conv(rng: &mut StdRng) -> Conv2d<f32> {
        let (w, b) = (draw(rng, 3 * 2 * 5 * 3), draw(rng, 5));
        Conv2d::new(Shape::new(7, 6, 3), 5, (3, 2), (2, 2), (1, 1), w, b).unwrap()
    }

    /// A box of mixed widths around random centres; a quarter of it exact
    /// zeros of either sign (dead ReLUs, which the pass skips), a quarter
    /// other points.
    fn random_box(rng: &mut StdRng, n: usize) -> Vec<Itv<f32>> {
        (0..n)
            .map(|i| match i % 4 {
                0 => Itv::point(if i % 8 == 0 { 0.0 } else { -0.0 }),
                1 => Itv::point(rng.random_range(-2.0..2.0)),
                _ => {
                    let c: f32 = rng.random_range(-2.0..2.0);
                    let r: f32 = rng.random_range(0.0..0.1);
                    Itv::new(c - r, c + r)
                }
            })
            .collect()
    }

    /// `samples` concrete points of the box `x` (its lower and upper corner
    /// first), each with its image as `f32` inference computes it
    /// (`forward`) and its exact image (`forward64`, the layer's `f64` twin,
    /// whose round-off on `f32` inputs is a fraction of the enclosure's own
    /// error bound): `y` must hold both, and `err` the distance between them.
    #[allow(clippy::too_many_arguments)]
    fn assert_contains_sampled_forwards(
        rng: &mut StdRng,
        x: &[Itv<f32>],
        y: &[Itv<f32>],
        err: &[f32],
        samples: usize,
        forward: impl Fn(&[f32], &mut [f32]),
        forward64: impl Fn(&[f64], &mut [f64]),
    ) {
        let (mut image, mut image64) = (vec![0.0_f32; y.len()], vec![0.0_f64; y.len()]);
        for sample in 0..samples {
            let point: Vec<f32> = x
                .iter()
                .map(|b| match sample {
                    0 => b.lo,
                    1 => b.hi,
                    _ => {
                        let t: f32 = rng.random_range(0.0..1.0);
                        (b.lo + (b.hi - b.lo) * t).clamp(b.lo, b.hi)
                    }
                })
                .collect();
            forward(&point, &mut image);
            let point64: Vec<f64> = point.iter().map(|&v| v as f64).collect();
            forward64(&point64, &mut image64);
            for (((yi, v), v64), e) in y.iter().zip(&image).zip(&image64).zip(err) {
                assert!(yi.contains(*v), "{yi} misses f32 inference's {v}");
                assert!(yi.to_f64().contains(*v64), "{yi} misses the exact {v64}");
                let off = (*v as f64 - v64).abs();
                assert!(off <= *e as f64, "round-off {off} above its bound {e}");
                // A bound, not a guess: a few steps of the result at most.
                assert!(
                    *e <= 64.0 * f32::EPSILON * yi.mag().max(1.0),
                    "{e} for {yi}"
                );
            }
        }
    }

    fn assert_inside(y: &[Itv<f32>], chain: &[Itv<f32>]) {
        assert_eq!(y.len(), chain.len());
        for (yi, ci) in y.iter().zip(chain) {
            assert!(ci.contains_itv(*yi), "{yi} not inside the chain's {ci}");
        }
    }

    fn bits(y: Itv<f32>) -> (u32, u32) {
        (y.lo.to_bits(), y.hi.to_bits())
    }

    #[test]
    fn forward_itv_contains_sampled_forwards_and_lies_inside_the_chain() {
        let mut rng = StdRng::seed_from_u64(0xf0a4);
        let (dense, conv) = (random_dense(&mut rng), random_conv(&mut rng));
        let (dense64, conv64) = (dense.widen(), conv.widen());
        // 2 layers × 5 boxes × 100 points.
        for _ in 0..5 {
            let x = random_box(&mut rng, dense.in_len);
            let mut y = vec![Itv::zero(); dense.out_len];
            let mut err = vec![0.0; y.len()];
            dense.forward_itv_round_off(&x, &mut y, &mut err);
            assert_inside(&y, &dense_chain(&dense, &x));
            assert_contains_sampled_forwards(
                &mut rng,
                &x,
                &y,
                &err,
                100,
                |p, v| dense.forward(p, v),
                |p, v| dense64.forward(p, v),
            );

            let x = random_box(&mut rng, conv.in_shape.len());
            let mut y = vec![Itv::zero(); conv.out_shape.len()];
            let mut err = vec![0.0; y.len()];
            conv.forward_itv_round_off(&x, &mut y, &mut err);
            assert_inside(&y, &conv_chain(&conv, &x));
            assert_contains_sampled_forwards(
                &mut rng,
                &x,
                &y,
                &err,
                100,
                |p, v| conv.forward(p, v),
                |p, v| conv64.forward(p, v),
            );
        }
    }

    #[test]
    fn forward_itv_is_the_chain_where_an_operand_is_not_finite_and_for_f64() {
        let mut rng = StdRng::seed_from_u64(0x1f);
        let (mut dense, mut conv) = (random_dense(&mut rng), random_conv(&mut rng));

        // A half-infinite input: every output of the dense layer sums it.
        let mut x = random_box(&mut rng, dense.in_len);
        x[5] = Itv::new(0.5, f32::INFINITY);
        let mut y = vec![Itv::zero(); dense.out_len];
        dense.forward_itv(&x, &mut y);
        let chain = dense_chain(&dense, &x);
        assert!(y.iter().zip(&chain).all(|(yi, ci)| bits(*yi) == bits(*ci)));
        // An infinite weight takes its own lane block along and no other —
        // and not even that while its input is an exact zero.
        x[5] = Itv::point(0.25);
        dense.forward_itv(&x, &mut y);
        let finite = y.clone();
        dense.weight[0] = f32::NEG_INFINITY; // output 0 × input 0
        assert!(x[0].lo == 0.0 && x[0].hi == 0.0);
        dense.forward_itv(&x, &mut y);
        assert_eq!(y, finite, "a zero input never meets its weights");
        x[0] = Itv::point(0.5);
        dense.forward_itv(&x, &mut y);
        let chain = dense_chain(&dense, &x);
        assert!(!y[0].is_finite());
        assert!(y[..LANES]
            .iter()
            .zip(&chain)
            .all(|(yi, ci)| bits(*yi) == bits(*ci)));
        assert_inside(&y[LANES..], &chain[LANES..]);
        assert!(y[LANES..]
            .iter()
            .zip(&chain[LANES..])
            .any(|(yi, ci)| yi != ci));

        // The convolution: only the positions whose receptive field holds
        // the bad input fall back, all channels of each.
        let mut x = random_box(&mut rng, conv.in_shape.len());
        let at = conv.in_shape.idx(3, 2, 1);
        x[at] = Itv::new(f32::NEG_INFINITY, -0.5);
        let mut y = vec![Itv::zero(); conv.out_shape.len()];
        conv.forward_itv(&x, &mut y);
        let chain = conv_chain(&conv, &x);
        assert_inside(&y, &chain);
        let fell_back = y.iter().filter(|yi| !yi.is_finite()).count();
        assert!(fell_back > 0 && fell_back % conv.out_shape.c == 0 && fell_back < y.len() / 2);
        for (yi, ci) in y.iter().zip(&chain).filter(|(yi, _)| !yi.is_finite()) {
            assert_eq!(bits(*yi), bits(*ci));
        }
        // A NaN filter weight: every position that multiplies by it.
        x[at] = Itv::point(0.5);
        let nan_at = conv.widx(1, 1, 2, 0);
        conv.weight[nan_at] = f32::NAN;
        conv.forward_itv(&x, &mut y);
        assert!(y.iter().any(|yi| yi.lo.is_nan()) && y.iter().any(|yi| yi.is_finite()));

        // f64 has no wide route: the chain, bit for bit, and the round-off
        // read off its accumulator — a few steps of the result.
        let dense = random_dense(&mut rng).widen();
        let x: Vec<Itv<f64>> = random_box(&mut rng, dense.in_len)
            .iter()
            .map(|b| b.to_f64())
            .collect();
        let mut y = vec![Itv::zero(); dense.out_len];
        let mut err = vec![0.0; y.len()];
        dense.forward_itv_round_off(&x, &mut y, &mut err);
        assert_eq!(y, dense_chain(&dense, &x));
        for (e, yi) in err.iter().zip(&y) {
            assert!(*e > 0.0 && *e <= 64.0 * f64::EPSILON * yi.mag().max(1.0));
        }
    }

    #[test]
    fn forward_itv_follows_inference_through_an_overflow_on_the_way() {
        // 2·3e38 overflows f32 and inference never comes back from the
        // infinity, though the exact sum of the row is small: no relative
        // error describes that, the block takes the chain, and its round-off
        // has no finite bound. The other blocks keep theirs.
        let mut rng = StdRng::seed_from_u64(0x0f10);
        let mut dense = random_dense(&mut rng);
        let row1 = dense.in_len;
        dense.weight[row1..row1 + 2].copy_from_slice(&[3e38, -3e38]);
        let mut x = random_box(&mut rng, dense.in_len);
        (x[0], x[1]) = (Itv::point(2.0), Itv::point(2.0));
        let point: Vec<f32> = x.iter().map(|b| b.lo).collect();
        let mut image = vec![0.0_f32; dense.out_len];
        dense.forward(&point, &mut image);
        assert_eq!(image[1], f32::INFINITY);
        let mut y = vec![Itv::zero(); dense.out_len];
        let mut err = vec![0.0_f32; y.len()];
        dense.forward_itv_round_off(&x, &mut y, &mut err);
        let chain = dense_chain(&dense, &x);
        assert!(y[..LANES]
            .iter()
            .zip(&chain)
            .all(|(yi, ci)| bits(*yi) == bits(*ci)));
        assert!(y.iter().zip(&image).all(|(yi, v)| yi.contains(*v)));
        assert_eq!(y[1].hi, f32::INFINITY);
        assert_eq!(err[1], f32::INFINITY);
        assert!(err[LANES..].iter().all(|e| e.is_finite()));
        assert!(y[LANES..]
            .iter()
            .zip(&chain[LANES..])
            .any(|(yi, ci)| yi != ci));
    }

    #[test]
    fn relu_clamps() {
        let x = [-1.0_f32, 0.0, 2.5];
        let mut y = [0.0_f32; 3];
        relu_forward(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.5]);
        let xi = [
            Itv::new(-2.0_f32, -1.0),
            Itv::new(-1.0, 1.0),
            Itv::new(0.5, 2.0),
        ];
        let mut yi = [Itv::zero(); 3];
        relu_forward_itv(&xi, &mut yi);
        assert_eq!(yi[0], Itv::zero());
        assert_eq!(yi[1], Itv::new(0.0, 1.0));
        assert_eq!(yi[2], Itv::new(0.5, 2.0));
    }
}
