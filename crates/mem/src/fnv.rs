//! FNV-1a 64, the workspace's one byte digest.
//!
//! Trace-log blocks, campaign-journal lines, configuration digests and the
//! committed-state fingerprint all use it. It lives here, in the lowest
//! crate that the simulator core, the trace codec and the lab all depend
//! on, so every digest in the tree is the same function.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher: feeding bytes in any number of
/// [`write`](Fnv1a::write) calls gives the digest of their concatenation.
///
/// ```
/// use specrun_mem::{fnv1a, Fnv1a};
/// let mut h = Fnv1a::new();
/// h.write(b"spec");
/// h.write(b"run");
/// assert_eq!(h.finish(), fnv1a(b"specrun"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis (the digest of no bytes).
    #[inline]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds `bytes` into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The digest of every byte written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of `bytes`, in one call.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        // Reference vectors of the FNV-1a 64 specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let bytes = b"specrun-trace v2\n";
        for split in 0..=bytes.len() {
            let mut h = Fnv1a::default();
            h.write(&bytes[..split]);
            h.write(&bytes[split..]);
            assert_eq!(h.finish(), fnv1a(bytes), "split at {split}");
        }
    }
}
