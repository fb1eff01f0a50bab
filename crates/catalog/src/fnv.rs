//! The workspace's one deterministic hasher.

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME^k` for `k` in `0..=8`: folding `k` zero bytes into the state
/// multiplies it by `PRIME^k`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a, the keyed-nowhere hasher behind `Query::fingerprint` and
/// [`value_bucket`](crate::partition::value_bucket). Unlike `DefaultHasher`,
/// its output has no per-process random seed and does not change between
/// releases, so fingerprints and hash-partition layouts are reproducible
/// across threads, runs and builds.
///
/// Its *values* must never move: fingerprints key offer caches, value books
/// and the result cache, break ties in the semantic cache's candidate order
/// and sit under the committed experiment results, and buckets decide where
/// loaded rows live. `crates/query/tests/fingerprint_golden.rs` pins both.
///
/// **A word at a time, the same values.** The derived `Hash` feed is mostly
/// integers — lengths, enum tags, relation ids, partition-set words — whose
/// high bytes are zero. `write` keeps the byte loop; the integer writes fold
/// the *same bytes in the same order* that `write(&v.to_ne_bytes())` would,
/// but stop at the first all-zero remainder: each remaining byte is zero, and
/// FNV-1a's step on a zero byte is `h = (h ^ 0) * PRIME = h * PRIME`, so `k`
/// of them are one multiplication by `PRIME^k`. That reasoning needs the
/// low byte first, which is the native order on little-endian targets only;
/// elsewhere the integer writes fall back to `std`'s byte feed. Signed
/// integers reach these through `Hasher`'s defaults (`write_i64` is
/// `write_u64(i as u64)`, and so on).
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fold the `width` little-endian bytes of `v` (`v < 2^(8 * width)`).
    #[cfg(target_endian = "little")]
    #[inline]
    fn write_le(&mut self, mut v: u64, width: usize) {
        let mut h = self.0;
        if v >> (8 * (width - 1)) != 0 {
            // No zero tail to skip (a negative integer, a float's bits):
            // fold every byte, unrolled, without the loop's exit test.
            for _ in 0..width {
                h = (h ^ (v & 0xff)).wrapping_mul(PRIME);
                v >>= 8;
            }
            self.0 = h;
            return;
        }
        let mut folded = 0;
        while v != 0 {
            h = (h ^ (v & 0xff)).wrapping_mul(PRIME);
            v >>= 8;
            folded += 1;
        }
        self.0 = h.wrapping_mul(PRIME_POW[width - folded]);
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(BASIS)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0 = (self.0 ^ u64::from(i)).wrapping_mul(PRIME);
    }

    #[cfg(target_endian = "little")]
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_le(u64::from(i), 2);
    }

    #[cfg(target_endian = "little")]
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_le(u64::from(i), 4);
    }

    #[cfg(target_endian = "little")]
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write_le(i, 8);
    }

    #[cfg(target_endian = "little")]
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_le(i as u64, std::mem::size_of::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    /// The state after `write`, from a non-basis starting state.
    fn after(write: impl FnOnce(&mut Fnv1a)) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u8(0x5a);
        write(&mut h);
        h.finish()
    }

    /// Every integer write equals the byte feed of its native bytes, at
    /// zero, on both sides of each bit boundary and at both extremes.
    #[test]
    fn integer_writes_equal_the_byte_feed() {
        let edges = (0..64)
            .flat_map(|s| [1u64 << s, (1u64 << s) - 1, !0u64 << s])
            .chain([0x00ff_00ff_00ff_00ff, 0x0100_0000_0000_0001]);
        for v in edges {
            let bytes = |b: &[u8]| after(|h| h.write(b));
            assert_eq!(after(|h| h.write_u64(v)), bytes(&v.to_ne_bytes()), "{v:#x}");
            let i = v as i64;
            assert_eq!(after(|h| h.write_i64(i)), bytes(&i.to_ne_bytes()));
            let u = v as usize;
            assert_eq!(after(|h| h.write_usize(u)), bytes(&u.to_ne_bytes()));
            let i = u as isize;
            assert_eq!(after(|h| h.write_isize(i)), bytes(&i.to_ne_bytes()));
            let w = v as u32;
            assert_eq!(after(|h| h.write_u32(w)), bytes(&w.to_ne_bytes()));
            let i = w as i32;
            assert_eq!(after(|h| h.write_i32(i)), bytes(&i.to_ne_bytes()));
            let s = v as u16;
            assert_eq!(after(|h| h.write_u16(s)), bytes(&s.to_ne_bytes()));
            let b = v as u8;
            assert_eq!(after(|h| h.write_u8(b)), bytes(&[b]));
        }
    }
}
