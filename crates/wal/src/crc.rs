//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8, no external crates.
//!
//! `TABLES[0]` is the classic byte-at-a-time table; `TABLES[t][b]` is the
//! CRC of byte `b` followed by `t` zero bytes, so eight table lookups fold
//! eight input bytes at once. The few bytes past the last whole 8-byte
//! block go through the byte loop.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [build_table(); 8];
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// Feeds `bytes` into a running CRC state one byte at a time.
fn update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Feeds `bytes` into a running CRC state (start from `!0`, finish by
/// inverting — or use [`crc32`] / [`crc32_concat`]).
fn update(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = state ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(state, blocks.remainder())
}

/// CRC-32 of one buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// CRC-32 of the concatenation of `parts`, without materializing it.
pub fn crc32_concat(parts: &[&[u8]]) -> u32 {
    let mut state = !0u32;
    for part in parts {
        state = update(state, part);
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Slicing-by-8 against the byte loop: every block/tail split of
    /// short inputs, at every alignment, over seeded bytes.
    #[test]
    fn slicing_matches_the_byte_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let part = &buf[offset..offset + len];
                assert_eq!(
                    update(!0, part),
                    update_bytewise(!0, part),
                    "offset {offset} len {len}"
                );
            }
            let rest = &buf[offset..];
            assert_eq!(update(!0, rest), update_bytewise(!0, rest), "offset {offset}, to the end");
        }
    }

    #[test]
    fn concat_matches_whole() {
        let whole = b"hello, durable world";
        assert_eq!(crc32_concat(&[&whole[..5], &whole[5..]]), crc32(whole));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut buf = b"payload".to_vec();
        let before = crc32(&buf);
        buf[3] ^= 0x10;
        assert_ne!(crc32(&buf), before);
    }
}
