//! CRC-32C (Castagnoli): through `qindb`, the storage checksum of every
//! AOF record and engine checkpoint.
//!
//! On x86_64 with SSE4.2 (detected at run time) the `crc32` instruction
//! folds eight bytes per step: 0.09 ns a byte over back-to-back 1.1 KiB
//! records (0.16 on one 20 KiB buffer, where the chain of dependent
//! steps sets the pace), against 1.57 for the byte-serial FNV-1a it
//! replaced and 0.61 for the wire's slice-by-16 CRC-32 (2-vCPU Intel
//! Xeon VM). Everywhere else a byte-at-a-time table loop computes the
//! same function; the tests hold the fast path to it. CRC-32C detects
//! every 1-bit error and every burst of up to 32 bits in a record.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn table() -> [u32; 256] {
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

static TABLE: [u32; 256] = table();

/// CRC-32C of `data` (initial value and final XOR all ones, as in
/// iSCSI and ext4): `crc32c(b"123456789") == 0xE306_9283`.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just found to support SSE4.2, the one
        // target feature `crc32c_sse42` is compiled for.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// One dependent table lookup per byte: the portable path and the
/// reference the hardware path is tested against.
fn crc32c_table(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32C with the SSE4.2 `crc32` instruction, eight bytes per step.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = u64::from(!0u32);
    for w in words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(*w));
    }
    // The instruction leaves the upper 32 bits of its result zero.
    let mut crc = crc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_the_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_table(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_equals_the_table_reference() {
        // Every length through 2 KiB at every start offset within a word.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let buf: Vec<u8> = (0..2048 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=2048 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), crc32c_table(data), "start {start} len {len}");
            }
        }
    }
}
