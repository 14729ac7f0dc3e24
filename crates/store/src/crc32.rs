//! CRC-32 (IEEE 802.3 polynomial, the one Parquet/gzip/zlib use). The
//! environment has no registry access, so this is implemented here rather
//! than pulled from the `crc32fast` crate.
//!
//! The loop is slicing-by-8: eight 256-entry tables, built at compile
//! time, let one step fold eight input bytes with eight independent
//! lookups instead of eight dependent ones. Table `k` holds the CRC of a
//! byte followed by `k` zero bytes, so the lookups of one 8-byte block
//! XOR together into the same remainder the one-byte-at-a-time loop
//! reaches; the last `len % 8` bytes take that bytewise loop. Every
//! input gets the value the classic table-driven CRC gives it, so the
//! checksums stored in archives do not depend on which loop wrote them.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The eight slicing tables, built at compile time: `TABLES[0]` is the
/// classic bytewise table, and `TABLES[k][b]` advances `TABLES[k - 1][b]`
/// by one zero byte.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Entry `byte & 0xFF` of slicing table `k`.
#[inline(always)]
fn lookup(k: usize, byte: u32) -> u32 {
    // dps: allow(taint-panic, reason = "k is a constant below 8 at every call site and the & 0xFF mask keeps the entry below 256, the tables' fixed dimensions")
    TABLES[k][(byte & 0xFF) as usize]
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let mut word = [0u8; 8];
        word.copy_from_slice(block);
        let word = u64::from_le_bytes(word);
        let lo = word as u32 ^ crc;
        let hi = (word >> 32) as u32;
        crc = lookup(7, lo)
            ^ lookup(6, lo >> 8)
            ^ lookup(5, lo >> 16)
            ^ lookup(4, lo >> 24)
            ^ lookup(3, hi)
            ^ lookup(2, hi >> 8)
            ^ lookup(1, hi >> 16)
            ^ lookup(0, hi >> 24);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ lookup(0, crc ^ u32::from(b));
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic one-byte-at-a-time loop over the first table: the
    /// oracle the sliced loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sliced_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(any::<u8>(), 0..=1 << 20)
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }
}
