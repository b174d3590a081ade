//! Seeded inputs: each workload's fixed reference demand, perturbed by
//! the workload seed.
//!
//! How much work a slot takes depends on its demand: with demand drawn
//! afresh per seed, the solver's iteration counts (and so every timing)
//! swing by a tenth or more between seeds, which would drown the effect
//! of any change to the program. The seed therefore scales every rate
//! of the reference demand by its own factor in `[1 − 5%, 1 + 5%]`: a
//! different input per seed, of the same shape.

use jocal_serve::{DemandSource, ServeError};
use jocal_sim::demand::DemandTrace;

/// Largest relative change the seed makes to a rate.
const SPREAD: f64 = 0.05;

/// A deterministic draw in `[-1, 1)` keyed by `(seed, t, n, m, k)`.
fn unit_noise(seed: u64, t: usize, n: usize, m: usize, k: usize) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((n as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add((m as u64) << 32)
        .wrapping_add(k as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Perturbs `demand`, whose local slot 0 is absolute slot `first`, by
/// `seed`.
pub fn perturb(demand: &mut DemandTrace, seed: u64, first: usize) {
    demand.map_indexed_in_place(|t, n, m, k, v| {
        if v == 0.0 {
            v
        } else {
            v * (1.0 + SPREAD * unit_noise(seed, first + t, n.0, m.0, k.0))
        }
    });
}

/// A [`DemandSource`] delivering another source's slots perturbed by a
/// seed.
#[derive(Debug)]
pub struct PerturbedSource<S> {
    inner: S,
    seed: u64,
    next: usize,
}

impl<S: DemandSource> PerturbedSource<S> {
    /// Perturbs `inner`'s slots by `seed`.
    pub fn new(inner: S, seed: u64) -> Self {
        PerturbedSource {
            inner,
            seed,
            next: 0,
        }
    }
}

impl<S: DemandSource> DemandSource for PerturbedSource<S> {
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_slot(&mut self, out: &mut DemandTrace) -> Result<bool, ServeError> {
        if !self.inner.next_slot(out)? {
            return Ok(false);
        }
        perturb(out, self.seed, self.next);
        self.next += 1;
        Ok(true)
    }
}
