//! SECDED ECC for the cache arrays.
//!
//! §IV of the paper: "We assume that faults in local caches are handled
//! by ECC." This module supplies that assumption's substance: a
//! Hamming(38,32) single-error-correct / double-error-detect code — 32
//! data bits, 6 Hamming check bits plus an overall parity bit — the
//! standard organization for 32-bit cache words.
//!
//! # Example
//!
//! ```
//! use r2d3_pipeline_sim::ecc::{decode, encode, Decoded};
//!
//! let word = encode(0xDEAD_BEEF);
//! // A single upset anywhere in the codeword is corrected.
//! let upset = word ^ (1 << 17);
//! assert_eq!(decode(upset), Decoded::Corrected(0xDEAD_BEEF));
//! ```

/// Number of Hamming check bits for 32 data bits.
const CHECK_BITS: u32 = 6;
/// Total codeword width: 32 data + 6 check + 1 overall parity.
pub const CODEWORD_BITS: u32 = 32 + CHECK_BITS + 1;

/// Decode outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error; the stored word.
    Clean(u32),
    /// Single-bit error corrected; the recovered word.
    Corrected(u32),
    /// Uncorrectable (double) error detected.
    Uncorrectable,
}

impl Decoded {
    /// The data word, unless the error was uncorrectable.
    #[must_use]
    pub fn data(self) -> Option<u32> {
        match self {
            Decoded::Clean(w) | Decoded::Corrected(w) => Some(w),
            Decoded::Uncorrectable => None,
        }
    }
}

/// Position (1-based, Hamming convention) of the `i`-th data bit inside
/// the 38-bit Hamming frame: positions that are powers of two hold check
/// bits, everything else holds data.
fn data_positions() -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut pos = 1u32;
    let mut i = 0usize;
    while i < 32 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

/// Encodes a 32-bit word into a 39-bit SECDED codeword (in a `u64`).
///
/// Layout: bits 1..=38 are the Hamming frame (1-based positions, bit 0 of
/// the `u64` unused by the frame), bit 39 is the overall parity. Bit 0
/// is always zero.
#[must_use]
pub fn encode(data: u32) -> u64 {
    let positions = data_positions();
    let mut frame: u64 = 0;
    for (i, &pos) in positions.iter().enumerate() {
        if (data >> i) & 1 == 1 {
            frame |= 1 << pos;
        }
    }
    // Check bits: parity over frame positions containing that power of two.
    for c in 0..CHECK_BITS {
        let mask = 1u32 << c;
        let mut parity = 0u64;
        for pos in 1..=38u32 {
            if pos & mask != 0 && pos != u32::from(mask == pos) {
                parity ^= (frame >> pos) & 1;
            }
        }
        if parity == 1 {
            frame |= 1 << mask;
        }
    }
    // Overall parity over the whole frame.
    let overall = (frame.count_ones() & 1) as u64;
    frame | (overall << 39)
}

/// Decodes a codeword, correcting single upsets and flagging doubles.
#[must_use]
pub fn decode(codeword: u64) -> Decoded {
    let frame = codeword & ((1u64 << 39) - 1) & !1; // positions 1..=38
    let stored_overall = (codeword >> 39) & 1;
    let computed_overall = (frame.count_ones() & 1) as u64;

    // Syndrome: recompute each check bit over its coverage (including the
    // stored check bit itself — a clean word yields syndrome 0).
    let mut syndrome = 0u32;
    for c in 0..CHECK_BITS {
        let mask = 1u32 << c;
        let mut parity = 0u64;
        for pos in 1..=38u32 {
            if pos & mask != 0 {
                parity ^= (frame >> pos) & 1;
            }
        }
        if parity == 1 {
            syndrome |= mask;
        }
    }

    let overall_ok = stored_overall == computed_overall;
    match (syndrome, overall_ok) {
        (0, true) => Decoded::Clean(extract(frame)),
        (0, false) => {
            // The overall parity bit itself flipped; data is intact.
            Decoded::Corrected(extract(frame))
        }
        (s, false) if (1..=38).contains(&s) => {
            // Single-bit error at frame position `s`: flip and extract.
            Decoded::Corrected(extract(frame ^ (1u64 << s)))
        }
        // Non-zero syndrome with matching overall parity ⇒ even number of
        // flips: uncorrectable. Also out-of-range syndromes.
        _ => Decoded::Uncorrectable,
    }
}

fn extract(frame: u64) -> u32 {
    let positions = data_positions();
    let mut data = 0u32;
    for (i, &pos) in positions.iter().enumerate() {
        if (frame >> pos) & 1 == 1 {
            data |= 1 << i;
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_clean(word in any::<u32>()) {
            prop_assert_eq!(decode(encode(word)), Decoded::Clean(word));
        }

        #[test]
        fn corrects_any_single_flip(word in any::<u32>(), bit in 1u32..40) {
            let upset = encode(word) ^ (1u64 << bit);
            prop_assert_eq!(decode(upset), Decoded::Corrected(word));
        }

        #[test]
        fn detects_any_double_flip(word in any::<u32>(), a in 1u32..40, b in 1u32..40) {
            prop_assume!(a != b);
            let upset = encode(word) ^ (1u64 << a) ^ (1u64 << b);
            // A double flip must never silently decode to the wrong word.
            match decode(upset) {
                Decoded::Uncorrectable => {}
                Decoded::Clean(w) | Decoded::Corrected(w) => prop_assert_eq!(w, word),
            }
        }
    }

    #[test]
    fn double_flips_are_flagged_not_miscorrected() {
        // Exhaustive over a fixed word: every 2-bit flip combination.
        let word = 0xA5A5_5A5Au32;
        let code = encode(word);
        let mut flagged = 0;
        let mut total = 0;
        for a in 1..40u32 {
            for b in (a + 1)..40u32 {
                total += 1;
                match decode(code ^ (1 << a) ^ (1 << b)) {
                    Decoded::Uncorrectable => flagged += 1,
                    Decoded::Clean(w) | Decoded::Corrected(w) => {
                        assert_eq!(w, word, "miscorrection at flips {a},{b}");
                    }
                }
            }
        }
        assert_eq!(flagged, total, "SECDED must flag every double flip");
    }

    #[test]
    fn codeword_is_39_bits() {
        assert_eq!(CODEWORD_BITS, 39);
        assert_eq!(encode(u32::MAX) >> 40, 0, "no bits beyond the codeword");
    }
}
