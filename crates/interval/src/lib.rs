//! Floating-point-sound interval arithmetic for polyhedral verification.
//!
//! GPUPoly (MLSys 2021, §4.1) keeps its certificates valid under floating
//! point by replacing every scalar coefficient of its polyhedral bounds with
//! an *interval* and evaluating every operation with outward-directed
//! rounding: lower results are rounded towards `-inf`, upper results towards
//! `+inf`. The original system uses CUDA's directed-rounding intrinsics
//! (`__fmul_rd`, `__fadd_ru`, ...); portable Rust has no rounding-mode
//! control, so this crate obtains the same guarantee by *nudging*: an
//! operation is computed in the default round-to-nearest mode and the result
//! is stepped one representable value down (for lower bounds) or up (for
//! upper bounds). Because round-to-nearest is within half an ulp of the exact
//! result, the nudged value is a correct directed bound — at most one ulp
//! wider than what hardware directed rounding would produce.
//!
//! The crate provides:
//!
//! * [`Fp`] — the float abstraction (implemented for `f32` and `f64`) with
//!   the `next_up`/`next_down` primitives,
//! * [`round`] — outward-rounded scalar operations (`add_down`, `mul_up`, ...),
//! * [`Itv`] — the interval type used for polyhedral coefficients and
//!   concrete neuron bounds,
//! * [`dot`] — sound dot products, sums and the forward-error bounds used to
//!   account for the round-off of the network's own inference (Miné 2004),
//! * [`wide`] — the interval GEMM's accumulator for `f32`: exact products
//!   summed in round-to-nearest `f64`, widened once by an a-priori error
//!   bound and rounded once, directed, back to `f32`.
//!
//! # Example
//!
//! ```
//! use gpupoly_interval::{Itv, round};
//!
//! // An input pixel known to lie in [0.1, 0.2].
//! let x = Itv::new(0.1_f32, 0.2);
//! // A weight stored exactly.
//! let w = Itv::point(-3.0_f32);
//! let y = x * w;
//! assert!(y.lo <= -0.6 && y.hi >= -0.3);
//! // Directed rounding never loses the true result:
//! assert!(y.contains(-0.45));
//! assert!(round::add_down(0.1_f32, 0.2) <= 0.1 + 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
mod fp;
mod itv;
pub mod round;
pub mod wide;

pub use fp::Fp;
pub use itv::Itv;
