//! Small shared helpers for trace producers (hashing, checksums).

/// FNV-1a 64-bit hash, used to derive stable record ids from file paths —
/// the same role Darshan's record-id hashing plays.
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Stable record id for a file path.
#[inline]
pub fn record_id(path: &str) -> u64 {
    fnv1a64(path.as_bytes())
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-16.
///
/// [`Crc32::update`] folds 16 input bytes per step through 16 lookup tables
/// (16 KiB of static data built at compile time) and finishes the last
/// `len % 16` bytes with the classic one-table bytewise step. The state is
/// the plain CRC register, so a tail left by one `update` call carries into
/// the next and any split of the input gives the one-shot digest.
///
/// Used by the MDF footer to detect truncation/bit-rot — the property the
/// MOSAIC pre-processing validity check ① leans on for "corrupted entries".
pub struct Crc32 {
    state: u32,
}

/// The classic bytewise table: the CRC of each single byte.
const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        // lint: allow(cast, "const fn (try_from is non-const); i < 256 always fits u32")
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing tables: `tables[k][b]` is the register contribution of byte `b`
/// followed by `k` zero bytes, so `tables[0]` is the bytewise table.
const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = build_crc_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            // lint: allow(cast, "const fn (usize::from is non-const); prev & 0xff < 256 always fits usize")
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

/// One table lookup.
#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    // lint: allow(panic, "a u8 index is always < 256 == table.len()")
    table[usize::from(byte)]
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
        let mut c = self.state;
        let (blocks, tail) = data.as_chunks::<16>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
            let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            c = lookup(t15, x0)
                ^ lookup(t14, x1)
                ^ lookup(t13, x2)
                ^ lookup(t12, x3)
                ^ lookup(t11, b4)
                ^ lookup(t10, b5)
                ^ lookup(t9, b6)
                ^ lookup(t8, b7)
                ^ lookup(t7, b8)
                ^ lookup(t6, b9)
                ^ lookup(t5, b10)
                ^ lookup(t4, b11)
                ^ lookup(t3, b12)
                ^ lookup(t2, b13)
                ^ lookup(t1, b14)
                ^ lookup(t0, b15);
        }
        for &b in tail {
            let [low, ..] = c.to_le_bytes();
            c = lookup(t0, low ^ b) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final digest.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xffff_ffff
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finalize()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The bytewise CRC-32 loop — one byte per step through one 256-entry
/// table — kept as the reference spec the sliced kernel must match bit for
/// bit. Its table is rebuilt here, independent of the slicing tables.
#[cfg(test)]
pub(crate) fn reference_crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = build_crc_table();
    let mut c = 0xffff_ffff_u32;
    for &b in data {
        let idx = crate::convert::u32_to_usize((c ^ u32::from(b)) & 0xff);
        c = TABLE[idx] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // "123456789" is the canonical CRC-32 check value. The 32-byte
        // patterns are those of RFC 3720 §B.4 under the IEEE polynomial:
        // two full 16-byte blocks each.
        let ascending: Vec<u8> = (0u8..=0x1f).collect();
        for (data, want) in [
            (&b"123456789"[..], 0xcbf4_3926),
            (&b""[..], 0),
            (&[0x00; 32][..], 0x190a_55ad),
            (&[0xff; 32][..], 0xff6c_ab0b),
            (&ascending[..], 0x9126_7e8a),
            (&b"The quick brown fox jumps over the lazy dog"[..], 0x414f_a339),
        ] {
            assert_eq!(Crc32::checksum(data), want, "{data:02x?}");
            assert_eq!(reference_crc32(data), want, "reference on {data:02x?}");
        }
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.finalize(), Crc32::checksum(b"hello world"));
    }

    proptest! {
        #[test]
        fn crc32_matches_reference_at_every_short_length(
            data in prop::collection::vec(any::<u8>(), 64)
        ) {
            for len in 0..=data.len() {
                let prefix = &data[..len];
                prop_assert_eq!(Crc32::checksum(prefix), reference_crc32(prefix), "length {}", len);
            }
        }

        #[test]
        fn crc32_matches_reference_on_random_inputs(
            data in prop::collection::vec(any::<u8>(), 0..=8192)
        ) {
            prop_assert_eq!(Crc32::checksum(&data), reference_crc32(&data));
        }

        #[test]
        fn crc32_split_updates_equal_oneshot(
            // Each piece is 16·q + r bytes with r in 1..16, so every split
            // leaves a partial block that the next call must carry on from.
            pieces in prop::collection::vec((0usize..8, 1usize..16), 1..=4),
            data in prop::collection::vec(any::<u8>(), 512..=700),
        ) {
            let mut c = Crc32::new();
            let mut rest = &data[..];
            for (q, r) in pieces {
                let (piece, after) = rest.split_at((16 * q + r).min(rest.len()));
                c.update(piece);
                rest = after;
            }
            c.update(rest);
            prop_assert_eq!(c.finalize(), Crc32::checksum(&data));
        }
    }

    #[test]
    fn record_ids_differ_for_different_paths() {
        assert_ne!(record_id("/a"), record_id("/b"));
        assert_eq!(record_id("/a"), record_id("/a"));
    }
}
