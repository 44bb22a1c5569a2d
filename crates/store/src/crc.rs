//! CRC-32 (IEEE 802.3 / zlib polynomial), hand-rolled: the record log
//! checksums every payload, and — consistent with the in-tree HTTP stack —
//! no external checksum crate is pulled in.
//!
//! The checksum runs slice-by-8: eight 256-entry tables let one step
//! consume eight bytes with eight independent lookups, instead of the
//! bytewise loop's one dependent lookup per byte. The values are the
//! bytewise algorithm's, bit for bit.

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

/// The classic bytewise table: the CRC contribution of each byte value.
const fn base_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes; `TABLES[0]` is [`base_table`].
const fn make_tables() -> [[u32; 256]; 8] {
    let base = base_table();
    let mut tables = [base; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes`: reflected IEEE polynomial, `0xFFFF_FFFF` initial
/// value and final XOR — the same parameterization as zlib, Ethernet, and
/// PNG, so byte streams can be cross-checked with external tools.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        if let [b0, b1, b2, b3, b4, b5, b6, b7] = *word {
            let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            let hi = u32::from_le_bytes([b4, b5, b6, b7]);
            crc = t7[byte(lo, 0)]
                ^ t6[byte(lo, 8)]
                ^ t5[byte(lo, 16)]
                ^ t4[byte(lo, 24)]
                ^ t3[byte(hi, 0)]
                ^ t2[byte(hi, 8)]
                ^ t1[byte(hi, 16)]
                ^ t0[byte(hi, 24)];
        }
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_types::kit::{prop_seed, Rng};

    /// The bytewise reference the slice-by-8 loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for this parameterization.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"length-prefixed record payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    /// Every length 0..=64 covers each remainder after whole 8-byte
    /// words; random buffers at every start alignment cover the word loop
    /// on unaligned slices. `YTAUDIT_PROP_SEED` rotates the buffers.
    #[test]
    fn slice_by_8_matches_the_bytewise_oracle() {
        let mut rng = Rng::new(prop_seed(0xC3C3_2024));
        let ramp: Vec<u8> = (0..=64u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&ramp[..len]),
                crc32_bytewise(&ramp[..len]),
                "len {len}"
            );
        }
        for _ in 0..200 {
            let len = rng.below(4096) as usize + 8;
            let buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            for align in 0..8 {
                let slice = &buf[align..];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} align {align}"
                );
            }
        }
    }
}
