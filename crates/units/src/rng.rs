//! Deterministic random-number seeding for reproducible experiments.
//!
//! Every stochastic component in the workspace (trap-ensemble sampling,
//! sensor noise, workload generation, Monte-Carlo lifetime sweeps) derives
//! its RNG from a named seed so that experiment output is bit-reproducible
//! run to run while different components stay statistically independent.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives a 32-byte seed from a root seed and a component label.
///
/// The derivation is a simple FNV-1a-style mix — not cryptographic, but
/// stable across platforms and Rust versions, which is what reproducible
/// science needs.
pub fn derive_seed(root: u64, label: &str) -> [u8; 32] {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    let mut h = FNV_OFFSET ^ root;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }

    let mut seed = [0_u8; 32];
    let mut state = h;
    for chunk in seed.chunks_mut(8) {
        // SplitMix64 finalizer to spread the hash over all 32 bytes.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    seed
}

/// Creates a deterministic [`StdRng`] for a named component.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = dh_units::rng::seeded_rng(42, "bti-ensemble");
/// let mut b = dh_units::rng::seeded_rng(42, "bti-ensemble");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(root: u64, label: &str) -> StdRng {
    StdRng::from_seed(derive_seed(root, label))
}

/// The index-independent half of an indexed stream's seed: the label
/// seed of `(root, label)`, as four little-endian lanes.
///
/// [`derive_stream_seed`] is [`StreamSeed::new`] followed by
/// [`StreamSeed::at`]. A caller that draws many items of one stream
/// derives the base once and mixes each index in with [`StreamSeed::at`],
/// which skips the label hash per item and gives the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeed([u64; 4]);

impl StreamSeed {
    /// Hashes `label` under `root` (see [`derive_seed`]).
    pub fn new(root: u64, label: &str) -> Self {
        let base = derive_seed(root, label);
        Self(std::array::from_fn(|k| {
            u64::from_le_bytes(base[8 * k..8 * k + 8].try_into().expect("8-byte lane"))
        }))
    }

    /// The seed of item `index` of this stream.
    ///
    /// Mixes the item index into the label-derived seed with an extra
    /// SplitMix64 round per lane, so every `(root, label, index)` triple
    /// names an independent stream.
    pub fn at(&self, index: u64) -> [u8; 32] {
        let mut seed = [0_u8; 32];
        // Golden-ratio offset keeps index 0 distinct from the plain label seed.
        let mut state = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909;
        for (chunk, &lane) in seed.chunks_mut(8).zip(&self.0) {
            state = state.wrapping_add(lane);
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        seed
    }

    /// The deterministic [`StdRng`] for item `index` of this stream.
    pub fn rng(&self, index: u64) -> StdRng {
        StdRng::from_seed(self.at(index))
    }
}

/// Derives the seed for one item of an indexed stream: the label half
/// ([`StreamSeed::new`]) and the index mix ([`StreamSeed::at`]).
///
/// Item `i`'s randomness depends only on the triple `(root, label, i)`,
/// never on which thread ran it or in what order. This is what makes
/// parallel Monte-Carlo sweeps bit-identical to serial ones.
pub fn derive_stream_seed(root: u64, label: &str, index: u64) -> [u8; 32] {
    StreamSeed::new(root, label).at(index)
}

/// Creates the deterministic [`StdRng`] for item `index` of a named
/// stream (see [`derive_stream_seed`]).
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = dh_units::rng::seeded_stream_rng(42, "em-population", 3);
/// let mut b = dh_units::rng::seeded_stream_rng(42, "em-population", 3);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_stream_rng(root: u64, label: &str, index: u64) -> StdRng {
    StreamSeed::new(root, label).rng(index)
}

/// Samples a standard normal deviate via Box–Muller.
///
/// Shared by every stochastic component in the workspace (trap-parameter
/// variation, sensor noise, process variation) so none needs a
/// distributions dependency. It is [`normal_uniforms`] followed by
/// `normal_radius(u1) * normal_angle(u2)`; a caller that batches many
/// deviates can run the three steps as separate passes and get the same
/// bits, since Rust never fuses the final multiply.
pub fn standard_normal<R: rand::Rng>(rng: &mut R) -> f64 {
    let (u1, u2) = normal_uniforms(rng);
    normal_radius(u1) * normal_angle(u2)
}

/// The two uniforms one [`standard_normal`] consumes, in draw order:
/// `u1` in `[ε, 1)` for the radius, `u2` in `[0, 1)` for the angle.
pub fn normal_uniforms<R: rand::Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Box–Muller's radius `√(−2 ln u1)`.
#[inline]
pub fn normal_radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// Box–Muller's angle term `cos(2π u2)`.
#[inline]
pub fn normal_angle(u2: f64) -> f64 {
    (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = seeded_rng(7, "x");
        let mut b = seeded_rng(7, "x");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let mut a = seeded_rng(7, "x");
        let mut b = seeded_rng(7, "y");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_roots_different_streams() {
        let mut a = seeded_rng(1, "x");
        let mut b = seeded_rng(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut rng = seeded_rng(3, "normal-check");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn standard_normal_is_its_uniforms_and_halves_bit_for_bit() {
        let mut a = seeded_rng(5, "normal-split");
        let mut b = seeded_rng(5, "normal-split");
        for _ in 0..4_096 {
            // The one-expression form the split replaced.
            let u1: f64 = b.gen_range(f64::EPSILON..1.0);
            let u2: f64 = b.gen_range(0.0..1.0);
            let fused = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            assert_eq!(standard_normal(&mut a).to_bits(), fused.to_bits());
        }
    }

    #[test]
    fn stream_indices_are_independent_and_stable() {
        let mut a0 = seeded_stream_rng(7, "sweep", 0);
        let mut a0b = seeded_stream_rng(7, "sweep", 0);
        let mut a1 = seeded_stream_rng(7, "sweep", 1);
        let v0: Vec<u64> = (0..8).map(|_| a0.gen()).collect();
        let v0b: Vec<u64> = (0..8).map(|_| a0b.gen()).collect();
        let v1: Vec<u64> = (0..8).map(|_| a1.gen()).collect();
        assert_eq!(v0, v0b);
        assert_ne!(v0, v1);
        // Index 0 must not collapse onto the plain label stream.
        let mut plain = seeded_rng(7, "sweep");
        assert_ne!(v0[0], plain.gen::<u64>());
    }

    #[test]
    fn stream_seeds_are_pinned_and_the_split_halves_compose() {
        // Values from the single-function derivation the split replaced;
        // every fleet chip identity hangs off these bits.
        #[rustfmt::skip]
        let pins: [(u64, &str, u64, [u64; 4]); 3] = [
            (7, "fleet/chip", 0, [
                0xc6bb_bfc2_79bb_ea5c, 0xd920_5734_0637_b07e,
                0xf6e1_1ee0_ca9f_90cb, 0x5b37_a058_0a7a_9987,
            ]),
            (1, "fleet/chip", 399_999, [
                0x61fc_1eb9_f385_2c49, 0xb309_7c08_7372_d778,
                0x1ede_5404_49ce_cba5, 0xd31b_dc07_9cc6_3290,
            ]),
            (42, "em-population", u64::MAX, [
                0x6757_b041_713b_44b3, 0xbb93_a7b2_b251_af5a,
                0x951b_eed5_dc01_d363, 0x5072_dccc_4b12_ed6a,
            ]),
        ];
        for (root, label, index, lanes) in pins {
            let seed = derive_stream_seed(root, label, index);
            let got: Vec<u64> = seed
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(got, lanes, "({root}, {label:?}, {index})");
            let stream = StreamSeed::new(root, label);
            assert_eq!(stream.at(index), seed);
            let mut a = stream.rng(index);
            let mut b = seeded_stream_rng(root, label, index);
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn seed_spreads_entropy_across_all_bytes() {
        let s = derive_seed(0, "");
        // No 8-byte lane should be all zeros.
        for chunk in s.chunks(8) {
            assert!(chunk.iter().any(|&b| b != 0));
        }
    }
}
