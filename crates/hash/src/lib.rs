//! Hashing substrate for the GraphZeppelin reproduction.
//!
//! The paper computes all sketch hashes with xxHash (\[19\] in the paper); this
//! crate provides a from-scratch, spec-conformant xxHash64 implementation plus
//! the theoretically clean alternative the analysis assumes: a 2-universal
//! (pairwise independent) multiply-mod-Mersenne family. Sketches are generic
//! over [`Hasher64`] so both can be used and compared (an ablation in the
//! benchmark suite).
//!
//! Everything here is deterministic given a seed, which is what makes
//! sketch linearity usable: two sketches can only be added if they were built
//! from the same hash functions, i.e. the same seeds.

pub mod pairwise;
pub mod splitmix;
pub mod xxh64;

pub use pairwise::PairwiseHash;
pub use splitmix::SplitMix64;
pub use xxh64::{xxh64, Xxh64Hasher};

/// A seeded 64-bit hash function over 64-bit keys.
///
/// Implementations must be pure functions of `(self, key)` so that sketches
/// built from equal seeds are mergeable.
pub trait Hasher64: Clone + Send + Sync {
    /// Construct the hash function identified by `seed`.
    fn with_seed(seed: u64) -> Self;

    /// Hash a 64-bit key to a 64-bit value.
    fn hash64(&self, key: u64) -> u64;

    /// Hash a 64-bit key to a 32-bit value (used for sketch checksums).
    #[inline]
    fn hash32(&self, key: u64) -> u32 {
        // Fold the halves so that both carry entropy.
        let h = self.hash64(key);
        (h ^ (h >> 32)) as u32
    }
}

/// Map a 64-bit hash to the range `[0, n)` without division bias, using the
/// widening-multiply trick (Lemire). Uniform when `h` is uniform on `u64`.
#[inline]
pub fn hash_to_range(h: u64, n: u64) -> u64 {
    debug_assert!(n > 0, "range must be non-empty");
    (((h as u128) * (n as u128)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_to_range_bounds() {
        for n in [1u64, 2, 3, 7, 1 << 20, u64::MAX] {
            for h in [0u64, 1, u64::MAX, u64::MAX / 2, 0xdeadbeef] {
                assert!(hash_to_range(h, n) < n, "n={n} h={h}");
            }
        }
    }

    #[test]
    fn hash_to_range_is_monotone_in_h() {
        // The multiply-shift mapping preserves order of h; sanity-check, since
        // the sketch geometry relies on it spreading values across the range.
        let n = 1000;
        assert_eq!(hash_to_range(0, n), 0);
        assert_eq!(hash_to_range(u64::MAX, n), n - 1);
    }

    #[test]
    fn hash32_differs_from_low_bits() {
        let h = Xxh64Hasher::with_seed(7);
        // hash32 folds the word; it should not equal the plain truncation for
        // typical inputs (they agree only when the high word is zero).
        let k = 123456789u64;
        let full = h.hash64(k);
        if full >> 32 != 0 {
            assert_ne!(h.hash32(k), full as u32);
        }
    }
}

#[cfg(test)]
mod determinism {
    //! Sketch mergeability rests on hash determinism: two sketches built from
    //! equal seeds must see identical per-column hash streams, however and
    //! whenever the hash functions were constructed.

    use super::*;

    /// Reconstructs the per-column seed derivation the sketch layer uses:
    /// column `c` draws the seed `derive(seed, c)` from the master seed, and
    /// a single 64-bit hash per column serves both the membership depth
    /// (trailing zeros) and the checksum (high 32 bits).
    fn column_stream<H: Hasher64>(seed: u64, col: u64, keys: &[u64]) -> Vec<u64> {
        let h = H::with_seed(SplitMix64::derive(seed, col));
        keys.iter().map(|&k| h.hash64(k)).collect()
    }

    fn assert_streams_deterministic<H: Hasher64>() {
        let keys: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for seed in [0u64, 1, 42, u64::MAX] {
            for col in [0u64, 1, 7] {
                let a = column_stream::<H>(seed, col, &keys);
                let b = column_stream::<H>(seed, col, &keys);
                assert_eq!(a, b, "column stream must be a pure function of (seed, col)");
            }
            // Adjacent columns draw distinct derived seeds.
            assert_ne!(
                column_stream::<H>(seed, 0, &keys),
                column_stream::<H>(seed, 1, &keys),
                "columns must not alias"
            );
        }
        // Distinct master seeds give distinct streams (no seed aliasing).
        assert_ne!(column_stream::<H>(1, 0, &keys), column_stream::<H>(2, 0, &keys));
    }

    #[test]
    fn xxh64_streams_deterministic() {
        assert_streams_deterministic::<Xxh64Hasher>();
    }

    #[test]
    fn pairwise_streams_deterministic() {
        assert_streams_deterministic::<PairwiseHash>();
    }

    #[test]
    fn splitmix_derive_stable_and_spread() {
        // The derivation itself is deterministic and collision-free over the
        // (seed, index) pairs a sketch family draws.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for i in 0..64u64 {
                let a = SplitMix64::derive(seed, i);
                assert_eq!(a, SplitMix64::derive(seed, i));
                seen.insert(a);
            }
        }
        assert_eq!(seen.len(), 8 * 64, "derived seeds must not collide");
    }

    #[test]
    fn xxh64_golden_values_pin_cross_run_stability() {
        // Spec vectors for xxHash64: if these move, every serialized sketch
        // in every checkpoint silently stops merging with fresh ones.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }
}
