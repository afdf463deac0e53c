//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the corruption
//! check of the `DSK1` format.
//!
//! Hand-rolled so the store stays dependency-free; the tables are built at
//! compile time.  This is the same CRC as zlib/PNG, so snapshots can be
//! cross-checked with standard tools (`python3 -c 'import zlib, sys;
//! print(hex(zlib.crc32(open(sys.argv[1], "rb").read()[:-4])))' g.dsk` prints
//! the checksum a snapshot stores in its last four bytes, little-endian).
//!
//! Whole snapshots go through here on every write, load, verify and swap,
//! so the loop is slicing-by-8: eight bytes per step through eight tables,
//! where table `t` maps a byte to its CRC contribution after `t` further
//! zero bytes.  The tail (and the reference the tests compare against) is
//! the classic one-byte-per-step loop over table 0.

#![deny(clippy::as_conversions)]

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::as_conversions,
            reason = "const context — `From` impls are not const-callable on this toolchain"
        )]
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[t - 1][i];
            #[expect(
                clippy::as_conversions,
                reason = "const context — masked to one byte, `From` impls are not const-callable on this toolchain"
            )]
            let low = (previous & 0xFF) as usize;
            tables[t][i] = (previous >> 8) ^ tables[0][low];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Advance the (inverted) CRC state one byte at a time.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        crc = TABLES[0][usize::from(dsketch::cast::low_byte(crc ^ u32::from(byte)))] ^ (crc >> 8);
    }
    crc
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of a stream whose first part has CRC-32 `crc` and whose
/// rest is `bytes` (zlib's `crc32(crc, buf, len)`): one checksum over
/// parts held in separate buffers.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let state = crc.to_le_bytes();
        crc = TABLES[7][usize::from(chunk[0] ^ state[0])]
            ^ TABLES[6][usize::from(chunk[1] ^ state[1])]
            ^ TABLES[5][usize::from(chunk[2] ^ state[2])]
            ^ TABLES[4][usize::from(chunk[3] ^ state[3])]
            ^ TABLES[3][usize::from(chunk[4])]
            ^ TABLES[2][usize::from(chunk[5])]
            ^ TABLES[1][usize::from(chunk[6])]
            ^ TABLES[0][usize::from(chunk[7])];
    }
    !update_bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_loop_equals_the_bytewise_reference() {
        let reference = |bytes: &[u8]| !update_bytewise(!0, bytes);
        // Every length around the 8-byte step, at every alignment of the
        // tail, over a seeded byte stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_byte = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state.to_le_bytes()[7]
        };
        let stream: Vec<u8> = (0..64).map(|_| next_byte()).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&stream[..len]),
                reference(&stream[..len]),
                "len {len}"
            );
        }
        for round in 0..32 {
            let len = 1000 + 37 * round;
            let buffer: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            assert_eq!(crc32(&buffer), reference(&buffer), "round {round}");
            assert_eq!(
                crc32(&buffer[3..]),
                reference(&buffer[3..]),
                "round {round}"
            );
        }
    }

    #[test]
    fn a_crc_extends_across_parts() {
        let whole = b"distance sketches, stored once";
        for split in 0..=whole.len() {
            let (head, tail) = whole.split_at(split);
            assert_eq!(crc32_extend(crc32(head), tail), crc32(whole), "{split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"distance sketches".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
