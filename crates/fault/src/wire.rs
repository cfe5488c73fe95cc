//! Little-endian encode/decode primitives for the hand-rolled checkpoint
//! formats (the build has no serde): fixed-width integers and whole
//! columns of them, `f64` as raw bit patterns (so NaN payloads and signed
//! zeros round-trip bit-exactly), length-prefixed strings, and two
//! hashes. Every format in the workspace (DHFL, DHSP, the degraded-report
//! section) is written with these.
//!
//! * [`fnv1a`] folds one byte at a time. It hashes the config, pack and
//!   report fingerprints, and it is the file and slab checksum of DHFL,
//!   whose files are about a kilobyte.
//! * [`checksum`] folds four independent 64-bit lanes a word at a time,
//!   so it runs at memory speed. It is the file checksum of DHSP v3,
//!   whose files run to tens of megabytes. [`Checksum`] is its streaming
//!   form, for a file written in pieces.

use core::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes that do not parse: a short read, a bad discriminant, or invalid
/// UTF-8. Each format maps it into its own "corrupt checkpoint" error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

/// Folds `bytes` into a running FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds one `u64` (little-endian) into a running FNV-1a hash.
pub fn fnv1a_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// Folds one `f64` bit pattern into a running FNV-1a hash.
pub fn fnv1a_f64(hash: u64, v: f64) -> u64 {
    fnv1a_u64(hash, v.to_bits())
}

/// The lane primes of [`checksum`].
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: `rotl(acc + w·P2, 31)·P1`. It is a bijection in `acc`
/// for a fixed `w` and in `w` for a fixed `acc`, so a changed word always
/// changes its lane.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The little-endian `u64` in an 8-byte chunk.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// A 64-bit checksum of `bytes` that runs at memory speed: the xxHash64
/// algorithm with seed 0. Four independent lanes each fold every fourth
/// little-endian word of the 32-byte stripes, so the multiply chains
/// overlap instead of serialising as [`fnv1a`]'s do. The lanes then merge,
/// the length is mixed in, the tail words and bytes are folded, and a
/// final avalanche spreads every input bit over the result. It is
/// [`Checksum`] fed one slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] in streaming form: feed the bytes in order, in pieces of
/// any size, and [`Checksum::finish`] returns what [`checksum`] returns
/// for them in one slice. A writer can so checksum a file from the
/// columns it was written from, without a copy of the file.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The bytes of the stripe in progress: the first `pending` of them.
    stripe: [u8; 32],
    pending: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// The state before any byte.
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; 32],
            pending: 0,
            len: 0,
        }
    }

    /// Folds the next `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = bytes.len().min(32 - self.pending);
            self.stripe[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 32 {
                return;
            }
            let stripe = self.stripe;
            fold_stripes(&mut self.lanes, &stripe);
            self.pending = 0;
        }
        let whole = bytes.len() - bytes.len() % 32;
        fold_stripes(&mut self.lanes, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// Folds every value of `vs` little-endian: the bytes [`put_f64s`]
    /// appends.
    pub fn update_f64s(&mut self, vs: &[f64]) {
        self.update_words(vs, |v| v.to_bits());
    }

    /// Folds every value of `vs` little-endian: the bytes [`put_u64s`]
    /// appends.
    pub fn update_u64s(&mut self, vs: &[u64]) {
        self.update_words(vs, |&v| v);
    }

    fn update_words<T>(&mut self, vs: &[T], bits: impl Fn(&T) -> u64) {
        // Through a small buffer that stays in L1, a few hundred words at
        // a time.
        let mut buf = [0u8; 4096];
        for chunk in vs.chunks(buf.len() / 8) {
            for (out, v) in buf.chunks_exact_mut(8).zip(chunk) {
                out.copy_from_slice(&bits(v).to_le_bytes());
            }
            self.update(&buf[..8 * chunk.len()]);
        }
    }

    /// The checksum of every byte fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.len >= 32 {
            let [a, b, c, d] = self.lanes;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.len);
        let mut words = self.stripe[..self.pending].chunks_exact(8);
        for w in &mut words {
            h = (h ^ round(0, word(w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        let mut rest = words.remainder();
        if let Some((half, tail)) = rest.split_first_chunk::<4>() {
            h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = tail;
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Folds whole 32-byte stripes into the four lanes, each lane taking
/// every fourth word.
fn fold_stripes(lanes: &mut [u64; 4], stripes: &[u8]) {
    let mut acc = *lanes;
    for stripe in stripes.chunks_exact(32) {
        for (lane, w) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    *lanes = acc;
}

/// Appends `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s bit pattern little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends every value of `vs` little-endian, in order: the bytes
/// [`put_u64`] would write one call per value, in one pass.
pub fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_words(buf, vs, |&v| v);
}

/// Appends every bit pattern of `vs` little-endian, in order: the bytes
/// [`put_f64`] would write one call per value, in one pass.
pub fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_words(buf, vs, |v| v.to_bits());
}

fn put_words<T>(buf: &mut Vec<u8>, vs: &[T], bits: impl Fn(&T) -> u64) {
    // A flat map over fixed-size arrays has an exact length, so `extend`
    // reserves once and copies without per-value capacity checks.
    buf.extend(vs.iter().flat_map(|v| bits(v).to_le_bytes()));
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Splits a `u64` off the front of `bytes`; `what` names the field in the
/// error.
pub fn take_u64(bytes: &mut &[u8], what: &str) -> Result<u64, WireError> {
    if bytes.len() < 8 {
        return Err(WireError(format!(
            "truncated while reading {what}: {} bytes left",
            bytes.len()
        )));
    }
    let (head, rest) = bytes.split_at(8);
    *bytes = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8-byte split")))
}

/// Splits an `f64` bit pattern off the front of `bytes`.
pub fn take_f64(bytes: &mut &[u8], what: &str) -> Result<f64, WireError> {
    take_u64(bytes, what).map(f64::from_bits)
}

/// Fills `out` with the `u64`s at the front of `bytes` and splits them
/// off, after one length check for the whole slice.
pub fn take_u64s(bytes: &mut &[u8], out: &mut [u64], what: &str) -> Result<(), WireError> {
    take_words(bytes, out, what, |w| w)
}

/// Fills `out` with the `f64` bit patterns at the front of `bytes` and
/// splits them off, after one length check for the whole slice.
pub fn take_f64s(bytes: &mut &[u8], out: &mut [f64], what: &str) -> Result<(), WireError> {
    take_words(bytes, out, what, f64::from_bits)
}

fn take_words<T>(
    bytes: &mut &[u8],
    out: &mut [T],
    what: &str,
    from_bits: impl Fn(u64) -> T,
) -> Result<(), WireError> {
    let Some(len) = out.len().checked_mul(8).filter(|&len| len <= bytes.len()) else {
        return Err(WireError(format!(
            "truncated while reading {what}: {} bytes left for {} values",
            bytes.len(),
            out.len()
        )));
    };
    let (head, rest) = bytes.split_at(len);
    for (v, w) in out.iter_mut().zip(head.chunks_exact(8)) {
        *v = from_bits(word(w));
    }
    *bytes = rest;
    Ok(())
}

/// Splits a length-prefixed UTF-8 string off the front of `bytes`.
pub fn take_str(bytes: &mut &[u8], what: &str) -> Result<String, WireError> {
    let len = take_u64(bytes, what)? as usize;
    if bytes.len() < len {
        return Err(WireError(format!(
            "truncated while reading {what}: {} of {len} string bytes",
            bytes.len()
        )));
    }
    let (head, rest) = bytes.split_at(len);
    *bytes = rest;
    String::from_utf8(head.to_vec()).map_err(|_| WireError(format!("{what} is not valid UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_patterns() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "ok");
        let mut view = buf.as_slice();
        assert_eq!(take_u64(&mut view, "a").unwrap(), u64::MAX);
        assert_eq!(
            take_f64(&mut view, "b").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            take_f64(&mut view, "c").unwrap().to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(take_str(&mut view, "d").unwrap(), "ok");
        assert!(view.is_empty());
        assert!(take_u64(&mut view, "e").is_err());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// `n` bytes that are neither constant nor periodic within a word.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn checksum_matches_xxhash64_reference_vectors() {
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn checksum_is_pinned_on_every_tail_shape() {
        // Below, at and past one 32-byte stripe, with and without word,
        // half-word and byte tails: DHSP v3 files on disk depend on
        // these values never moving.
        for (n, pinned) in [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xa96c_7f0c_e858_bbb7),
            (7, 0xafbe_fc3d_6c6f_9a8e),
            (8, 0x3da5_c7aa_2696_83e0),
            (31, 0x4a74_f3a1_a39a_d4a1),
            (32, 0x8d57_d6a4_671c_c43d),
            (33, 0x62c9_fd21_ed85_7664),
            (4096, 0xe211_74be_82dc_78d9),
        ] {
            assert_eq!(checksum(&pattern(n)), pinned, "{n} bytes");
        }
    }

    #[test]
    fn checksum_sees_every_bit_flip_and_every_truncation() {
        let mut bytes = pattern(4096);
        let clean = checksum(&bytes);
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&bytes), clean, "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        for len in 0..bytes.len() {
            assert_ne!(checksum(&bytes[..len]), clean, "prefix of {len} bytes");
        }
    }

    #[test]
    fn checksum_sees_two_swapped_words() {
        let bytes = pattern(4096);
        let clean = checksum(&bytes);
        // Same lane in different stripes, different lanes in one stripe,
        // and a stripe word against a tail word.
        let tail = bytes.len() / 8 - 1;
        for (i, j) in [(0, 4), (0, 1), (3, 500), (7, tail)] {
            let mut swapped = bytes.clone();
            let (a, b) = (&bytes[8 * i..8 * i + 8], &bytes[8 * j..8 * j + 8]);
            assert_ne!(a, b, "words {i} and {j} must differ");
            swapped[8 * i..8 * i + 8].copy_from_slice(b);
            swapped[8 * j..8 * j + 8].copy_from_slice(a);
            assert_ne!(checksum(&swapped), clean, "words {i} and {j}");
        }
    }

    #[test]
    fn streaming_checksum_matches_the_one_shot_at_any_cut() {
        use rand::Rng;
        let mut rng = dh_units::rng::seeded_rng(29, "wire/checksum-cuts");
        for case in 0..400 {
            let len = if case % 4 == 0 {
                rng.gen_range(0..70usize)
            } else {
                rng.gen_range(0..3000usize)
            };
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
            let mut sum = Checksum::new();
            let mut rest = bytes.as_slice();
            while !rest.is_empty() {
                // Mostly pieces shorter than a stripe, some longer.
                let cap: usize = if rng.gen_bool(0.7) { 33 } else { 200 };
                let (piece, tail) = rest.split_at(rng.gen_range(0..=cap.min(rest.len())));
                sum.update(piece);
                rest = tail;
            }
            assert_eq!(sum.finish(), checksum(&bytes), "case {case}: {len} bytes");
        }
        // The word feeders fold the bytes the slice writers append, at any
        // offset into a stripe.
        let floats: Vec<f64> = (0..1500).map(|i| f64::from(i) * -0.37).collect();
        let words: Vec<u64> = (0..700).map(|i| i * 0x9e37_79b9).collect();
        for head in 0..40 {
            let mut bytes = pattern(head);
            let mut sum = Checksum::new();
            sum.update(&bytes);
            put_f64s(&mut bytes, &floats);
            put_u64s(&mut bytes, &words);
            sum.update_f64s(&floats);
            sum.update_u64s(&words);
            assert_eq!(sum.finish(), checksum(&bytes), "{head}-byte head");
        }
    }

    #[test]
    fn slice_codecs_round_trip_every_short_length() {
        let specials = [
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::MIN_POSITIVE,
            -1.5,
            f64::MAX,
        ];
        for len in 0..=specials.len() {
            let floats = &specials[..len];
            let words: Vec<u64> = (0..len as u64).map(|i| u64::MAX - i * 0x0101).collect();
            // The slice writers lay out exactly what the per-value ones do.
            let (mut bulk, mut single) = (Vec::new(), Vec::new());
            put_f64s(&mut bulk, floats);
            put_u64s(&mut bulk, &words);
            floats.iter().for_each(|&v| put_f64(&mut single, v));
            words.iter().for_each(|&v| put_u64(&mut single, v));
            assert_eq!(bulk, single, "length {len}");

            let mut view = bulk.as_slice();
            let (mut f, mut w) = (vec![1.0; len], vec![1; len]);
            take_f64s(&mut view, &mut f, "floats").unwrap();
            take_u64s(&mut view, &mut w, "words").unwrap();
            assert!(view.is_empty());
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f), bits(floats), "length {len}");
            assert_eq!(w, words, "length {len}");

            // One byte short anywhere in the column is a typed error that
            // consumes nothing.
            if len > 0 {
                let mut short = &single[..8 * len - 1];
                let err = take_f64s(&mut short, &mut f, "floats").unwrap_err();
                assert!(err.0.contains("floats"), "{err}");
                assert_eq!(short.len(), 8 * len - 1);
            }
        }
    }
}
