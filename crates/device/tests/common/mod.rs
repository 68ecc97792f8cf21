//! What the seeded differentials of the interval kernels share: one
//! generator of shapes, values and coefficients.

use gpupoly_interval::Itv;

/// splitmix64.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Mostly uniform in `[-1, 1)`; one draw in ten a special value.
    pub fn value(&mut self) -> f32 {
        const SPECIAL: [f32; 9] = [
            0.0,
            -0.0,
            1e-45, // the least subnormal
            -1.1e-38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e30,
            -1e-30,
        ];
        match self.below(10) {
            0 => SPECIAL[self.below(SPECIAL.len())],
            _ => ((self.next() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0,
        }
    }

    /// A coefficient: an exact zero of either sign, a point, or an interval
    /// whose bounds are drawn apart (NaN bounds and inverted ones included:
    /// the kernels take whatever a caller stores).
    pub fn coeff(&mut self) -> Itv<f32> {
        match self.below(6) {
            0 => Itv::zero(),
            1 => Itv::point(-0.0),
            2 | 3 => {
                let x = self.value();
                Itv { lo: x, hi: x }
            }
            _ => {
                let (x, y) = (self.value(), self.value());
                match self.below(8) {
                    0 => Itv { lo: y, hi: x },
                    _ => Itv {
                        lo: x.min(y),
                        hi: x.max(y),
                    },
                }
            }
        }
    }
}

fn bits(c: &[Itv<f32>]) -> Vec<(u32, u32)> {
    c.iter().map(|v| (v.lo.to_bits(), v.hi.to_bits())).collect()
}

/// Panics, naming `what` and the first element that differs, unless `got`
/// and `want` are equal bit for bit.
#[track_caller]
pub fn assert_same(got: &[Itv<f32>], want: &[Itv<f32>], what: &str) {
    let (got, want) = (bits(got), bits(want));
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: element {i} has bits {:x?}, not {:x?}",
            got[i], want[i]
        );
    }
    assert_eq!(got.len(), want.len(), "{what}");
}
