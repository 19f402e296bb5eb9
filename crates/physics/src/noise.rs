//! Per-pulse noise composition.
//!
//! An erase (or program) pulse of nominal duration `t` does not act on every
//! cell identically:
//!
//! * a **common-mode** factor (charge-pump voltage, temperature, timing of
//!   the abort command) scales the effective duration for *all* cells in the
//!   pulse — this is what correlates extraction errors between watermark
//!   replicas that share a pulse (visible in the paper's Fig. 11), and
//! * a **per-cell** jitter factor models local field fluctuation.
//!
//! Both are log-normal with sigmas from
//! [`PhysicsParams`].

use crate::params::PhysicsParams;
use crate::rng::{mix2, uniform_from_bits, CounterStream, SplitMix64};
use crate::variation::inverse_normal_cdf;

/// A standard-normal deviate below every per-cell jitter deviate
/// [`PulseNoise::effective_us`] can draw: the most extreme is
/// `inverse_normal_cdf(uniform_from_bits(0))` ≈ −8.22 (the upper tail is its
/// mirror image), so this floor leaves a margin of ~0.8 σ.
pub const Z_FLOOR: f64 = -9.0;

/// The noise context of one pulse (drawn once per pulse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseNoise {
    /// Common-mode multiplier on the pulse's effective duration.
    pub common_factor: f64,
    seed: u64,
}

impl PulseNoise {
    /// Draws the pulse-level noise for the next pulse from `rng`.
    pub fn draw(params: &PhysicsParams, rng: &mut SplitMix64) -> Self {
        let z = rng.normal();
        Self {
            common_factor: (params.common_jitter_sigma * z).exp(),
            seed: rng.next_u64(),
        }
    }

    /// Draws the pulse-level noise from a counter-based stream: draw 0 is the
    /// common-mode deviate, draw 1 seeds the per-cell jitter hash.
    #[must_use]
    pub fn from_stream(params: &PhysicsParams, stream: &CounterStream) -> Self {
        Self {
            common_factor: (params.common_jitter_sigma * stream.normal(0)).exp(),
            seed: stream.draw_u64(1),
        }
    }

    /// A noise-free pulse (useful for deterministic analysis and tests).
    #[must_use]
    pub fn none() -> Self {
        Self {
            common_factor: 1.0,
            seed: 0,
        }
    }

    /// Effective duration experienced by cell `cell_index` for a pulse of
    /// nominal duration `nominal_us`.
    ///
    /// Deterministic given the pulse and the cell, so the same pulse can be
    /// replayed cell-by-cell in any order.
    #[must_use]
    pub fn effective_us(&self, params: &PhysicsParams, cell_index: u64, nominal_us: f64) -> f64 {
        if self.seed == 0 {
            return nominal_us * self.common_factor;
        }
        // One avalanche hash and an inverse-CDF normal per cell — stateless,
        // so lane kernels can replay any subset of cells bit-identically.
        let cell_factor = cell_factor(params, mix2(self.seed, cell_index));
        nominal_us * self.common_factor * cell_factor
    }

    /// A lower bound on [`Self::effective_us`] over every cell of the pulse:
    /// the per-cell factor at [`Z_FLOOR`], multiplied in the same order.
    /// `fl` rounding of `*` is monotone and the floor's 0.8 σ margin dwarfs
    /// any `exp` rounding, so no cell's effective duration falls below it.
    /// Exactly `nominal_us * common_factor` for a noise-free pulse.
    #[must_use]
    pub fn effective_floor_us(&self, params: &PhysicsParams, nominal_us: f64) -> f64 {
        if self.seed == 0 {
            return nominal_us * self.common_factor;
        }
        let cell_factor = (params.op_jitter_sigma * Z_FLOOR).exp();
        nominal_us * self.common_factor * cell_factor
    }
}

/// The per-cell jitter factor for hash bits `bits`.
fn cell_factor(params: &PhysicsParams, bits: u64) -> f64 {
    (params.op_jitter_sigma * inverse_normal_cdf(uniform_from_bits(bits))).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhysicsParams;

    #[test]
    fn none_is_identity() {
        let params = PhysicsParams::msp430_like();
        let pn = PulseNoise::none();
        assert_eq!(pn.effective_us(&params, 5, 20.0), 20.0);
    }

    #[test]
    fn common_factor_applies_to_all_cells() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(77);
        let pn = PulseNoise::draw(&params, &mut rng);
        let base = 100.0;
        let e0 = pn.effective_us(&params, 0, base);
        let e1 = pn.effective_us(&params, 1, base);
        // Both share the common factor; they differ only by the small
        // per-cell jitter.
        let ratio = e0 / e1;
        assert!((0.8..1.25).contains(&ratio));
        assert!((e0 / base / pn.common_factor - 1.0).abs() < 0.2);
    }

    #[test]
    fn per_cell_jitter_is_deterministic_for_a_pulse() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(78);
        let pn = PulseNoise::draw(&params, &mut rng);
        assert_eq!(
            pn.effective_us(&params, 9, 50.0),
            pn.effective_us(&params, 9, 50.0)
        );
    }

    #[test]
    fn pulses_differ_between_draws() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(79);
        let a = PulseNoise::draw(&params, &mut rng);
        let b = PulseNoise::draw(&params, &mut rng);
        assert_ne!(
            a.effective_us(&params, 3, 10.0),
            b.effective_us(&params, 3, 10.0)
        );
    }

    #[test]
    fn floor_is_below_the_extreme_cell_factors() {
        let params = PhysicsParams::msp430_like();
        let floor = (params.op_jitter_sigma * Z_FLOOR).exp();
        // Both tails' extremes, and the hash bits on either side of the
        // inverse CDF's tail/central seams at `P_LOW` and `1 - P_LOW`.
        let seam = |p: f64| ((p * (1u64 << 52) as f64) as u64) << 12;
        let mut bits = vec![0, 1 << 12, u64::MAX, u64::MAX - (1 << 12)];
        for p in [0.02425, 1.0 - 0.02425] {
            let b = seam(p);
            bits.extend([b - (1 << 12), b, b + (1 << 12)]);
        }
        for b in bits {
            assert!(floor <= cell_factor(&params, b), "bits {b:#x}");
        }
        let pn = PulseNoise::draw(&params, &mut SplitMix64::new(81));
        assert_eq!(
            pn.effective_floor_us(&params, 25.0).to_bits(),
            (25.0 * pn.common_factor * floor).to_bits()
        );
        let none = PulseNoise::none();
        assert_eq!(none.effective_floor_us(&params, 25.0), 25.0);
    }

    #[test]
    fn common_factor_near_one() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(80);
        for _ in 0..100 {
            let pn = PulseNoise::draw(&params, &mut rng);
            assert!(
                (0.8..1.25).contains(&pn.common_factor),
                "{}",
                pn.common_factor
            );
        }
    }
}
