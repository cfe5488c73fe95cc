//! Little-endian encode/decode primitives for the hand-rolled checkpoint
//! formats (the build has no serde): fixed-width integers, `f64` as raw bit
//! patterns (so NaN payloads and signed zeros round-trip bit-exactly),
//! length-prefixed strings, and the FNV-1a hash used for config and pack
//! fingerprints and for file checksums. Every format in the workspace
//! (DHFL, DHSP, the degraded-report section) is written with these.

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

/// Appends `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s bit pattern little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
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
}
