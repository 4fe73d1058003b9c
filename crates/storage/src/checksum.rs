//! CRC-64 (ECMA-182 polynomial) for page-record integrity.
//!
//! Checkpoint data that restarts depend on must be verifiable: a silently
//! corrupted page defeats the whole purpose of checkpoint/restart. Every
//! page record in a segment carries a CRC-64 of its payload, checked on
//! restore.
//!
//! The CRC runs on every byte the checkpoint pipeline moves — the
//! committer streams checksum every dirty page before it reaches the
//! vectored writer, and scrub, compaction, the content filter's digests
//! and every restore checksum it again — so it has two implementations
//! that produce the same bits:
//!
//! * **Carry-less-multiply folding (x86_64 with PCLMULQDQ).** The message
//!   is a polynomial over GF(2); its CRC is `M(x)·x^64 mod P`. Four
//!   128-bit accumulators each absorb one 16-byte block of every 64-byte
//!   stride: an accumulator `A = A_hi·x^64 + A_lo` moved 512 bits further
//!   along the message becomes `A_hi·(x^576 mod P) ⊕ A_lo·(x^512 mod P)`,
//!   two independent `PCLMULQDQ`s, so the four lanes keep the multiplier
//!   busy. The lanes then merge, and any remaining 16-byte blocks fold in,
//!   with the 128-bit distance constants `x^192 mod P` and `x^128 mod P`.
//!   The final accumulator `A` is congruent to the message, so the CRC is
//!   `A·x^64 mod P`: `T = A_hi·(x^128 mod P) ⊕ (A_lo << 64)` is congruent
//!   to that, and its reduction is the table CRC of `T_hi`'s eight bytes
//!   XOR `T_lo`. An initial register is XORed into the first eight message
//!   bytes, which is the same polynomial. The four constants are derived
//!   from `POLY` at first use by shifting `x^0` through the LFSR, and
//!   the CPU feature is detected once and cached.
//! * **Slicing-by-8 tables.** Eight derived tables let one iteration fold
//!   a full 64-bit word with eight independent lookups the CPU can
//!   overlap. This path serves inputs under 64 bytes, the sub-16-byte tail
//!   behind the folded body, the kernel's final reduction, CPUs without
//!   the instruction and non-x86_64 targets (where the kernel is not
//!   compiled at all), and it is the reference the kernel is tested
//!   against. Tables are built at first use.

use std::sync::OnceLock;

const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// `tables()[0]` is the classic bytewise table; `tables()[k]` is that
/// table advanced `k` further zero-byte steps, so processing a word is
/// the XOR of one lookup per byte.
fn tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<Box<[[u64; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u64; 256]; 8]);
        for i in 0..256usize {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                };
            }
            t[0][i] = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    })
}

/// CRC-64/ECMA of `data`.
pub fn crc64(data: &[u8]) -> u64 {
    crc64_update(0, data)
}

/// Continue a CRC-64 computation (for chunked hashing).
pub fn crc64_update(crc: u64, data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = clmul::Kernel::detect() {
        return kernel.update(crc, data);
    }
    crc64_table(crc, data)
}

/// The portable slicing-by-8 path.
fn crc64_table(mut crc: u64, data: &[u8]) -> u64 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // The register is exactly one word wide: fold it into the next
        // eight message bytes, then advance each byte the remaining
        // distance through its own table.
        let x = crc ^ u64::from_be_bytes(chunk.try_into().unwrap());
        crc = t[7][(x >> 56) as usize]
            ^ t[6][(x >> 48) as usize & 0xFF]
            ^ t[5][(x >> 40) as usize & 0xFF]
            ^ t[4][(x >> 32) as usize & 0xFF]
            ^ t[3][(x >> 24) as usize & 0xFF]
            ^ t[2][(x >> 16) as usize & 0xFF]
            ^ t[1][(x >> 8) as usize & 0xFF]
            ^ t[0][x as usize & 0xFF];
    }
    for &b in chunks.remainder() {
        let idx = ((crc >> 56) as u8 ^ b) as usize;
        crc = (crc << 8) ^ t[0][idx];
    }
    crc
}

/// `x^k mod P`, by shifting `x^0` through the CRC's LFSR `k` times.
#[cfg(any(target_arch = "x86_64", test))]
fn x_pow_mod_p(k: u32) -> u64 {
    let mut r = 1u64;
    for _ in 0..k {
        r = if r & (1 << 63) != 0 {
            (r << 1) ^ POLY
        } else {
            r << 1
        };
    }
    r
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x,
        _mm_set_epi8, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    use super::{crc64_table, x_pow_mod_p};

    /// Folding constants, each packed `(high qword, low qword)` to match
    /// the accumulator halves they multiply. Only [`Kernel::detect`]
    /// builds one, after checking the CPU runs the instructions.
    pub(super) struct Kernel {
        /// `(x^576 mod P, x^512 mod P)`: move a lane one 64-byte stride.
        stride64: __m128i,
        /// `(x^192 mod P, x^128 mod P)`: move the accumulator 16 bytes.
        stride16: __m128i,
    }

    impl Kernel {
        /// The kernel when this CPU has PCLMULQDQ (and SSSE3 for the byte
        /// swap), detected once per process.
        pub(super) fn detect() -> Option<&'static Kernel> {
            static KERNEL: OnceLock<Option<Kernel>> = OnceLock::new();
            KERNEL
                .get_or_init(|| {
                    let supported = std::arch::is_x86_feature_detected!("pclmulqdq")
                        && std::arch::is_x86_feature_detected!("ssse3");
                    supported.then(|| {
                        let pair = |hi: u32, lo: u32| {
                            let (hi, lo) = (x_pow_mod_p(hi) as i64, x_pow_mod_p(lo) as i64);
                            // SAFETY: SSE2 is part of the x86_64 baseline.
                            unsafe { _mm_set_epi64x(hi, lo) }
                        };
                        Kernel {
                            stride64: pair(576, 512),
                            stride16: pair(192, 128),
                        }
                    })
                })
                .as_ref()
        }

        /// `crc64_update` on this kernel: the largest 16-byte-multiple
        /// prefix of 64 bytes or more is folded, the rest goes through the
        /// tables.
        pub(super) fn update(&self, crc: u64, data: &[u8]) -> u64 {
            if data.len() < 64 {
                return crc64_table(crc, data);
            }
            let (body, tail) = data.split_at(data.len() & !15);
            // SAFETY: a `Kernel` exists only after `detect` confirmed the
            // CPU supports PCLMULQDQ and SSSE3.
            let crc = unsafe { self.fold(crc, body) };
            crc64_table(crc, tail)
        }

        /// CRC register after `body`, a multiple of 16 bytes, at least 64.
        #[target_feature(enable = "pclmulqdq,ssse3")]
        fn fold(&self, crc: u64, body: &[u8]) -> u64 {
            debug_assert!(body.len() >= 64 && body.len().is_multiple_of(16));
            let (head, rest) = body.split_at(64);
            let mut lanes = [0, 16, 32, 48].map(|at| load_be(&head[at..]));
            lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(crc as i64, 0));
            let mut strides = rest.chunks_exact(64);
            for stride in &mut strides {
                for (lane, at) in lanes.iter_mut().zip([0, 16, 32, 48]) {
                    *lane = _mm_xor_si128(fold_by(*lane, self.stride64), load_be(&stride[at..]));
                }
            }
            let [mut acc, rest @ ..] = lanes;
            for lane in rest {
                acc = _mm_xor_si128(fold_by(acc, self.stride16), lane);
            }
            for block in strides.remainder().chunks_exact(16) {
                acc = _mm_xor_si128(fold_by(acc, self.stride16), load_be(block));
            }
            // T = A_hi·(x^128 mod P) ⊕ (A_lo << 64) ≡ A·x^64 (mod P).
            let t = _mm_xor_si128(
                _mm_clmulepi64_si128::<0x01>(acc, self.stride16),
                _mm_slli_si128::<8>(acc),
            );
            let t_lo = _mm_cvtsi128_si64(t) as u64;
            let t_hi = _mm_cvtsi128_si64(_mm_srli_si128::<8>(t)) as u64;
            crc64_table(0, &t_hi.to_be_bytes()) ^ t_lo
        }
    }

    /// `A_hi·K_hi ⊕ A_lo·K_lo`: the accumulator moved the distance the
    /// constant pair encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_by(acc: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x11>(acc, k),
            _mm_clmulepi64_si128::<0x00>(acc, k),
        )
    }

    /// The first 16 bytes of `bytes` as one big-endian 128-bit polynomial
    /// (the first message byte holds the highest coefficients).
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn load_be(bytes: &[u8]) -> __m128i {
        assert!(bytes.len() >= 16);
        // SAFETY: the assert above keeps the unaligned 16-byte load in
        // bounds.
        let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        _mm_shuffle_epi8(
            v,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-slicing implementation, kept as the reference the sliced
    /// one must agree with bit-for-bit.
    fn crc64_bytewise(mut crc: u64, data: &[u8]) -> u64 {
        let t = tables();
        for &b in data {
            let idx = ((crc >> 56) as u8 ^ b) as usize;
            crc = (crc << 8) ^ t[0][idx];
        }
        crc
    }

    /// xorshift bytes: no structure a folding bug could hide behind.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn known_vector() {
        // CRC-64/ECMA-182 of "123456789".
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_phase() {
        // Lengths crossing every chunk boundary, updates starting from a
        // non-zero register.
        let data = noise(4096 + 7);
        for len in (0..64).chain([255, 256, 257, 4095, 4096, 4097, 4103]) {
            let d = &data[..len];
            assert_eq!(crc64_table(0, d), crc64_bytewise(0, d), "len {len}");
            assert_eq!(
                crc64_table(0xDEAD_BEEF, d),
                crc64_bytewise(0xDEAD_BEEF, d),
                "len {len} from a mid-stream register"
            );
        }
    }

    #[test]
    fn derived_constants_are_the_lfsr_powers() {
        // x^64 mod P is the polynomial without its implicit top term, and
        // the byte 0x01 advanced one further byte is x^72 mod P.
        assert_eq!(x_pow_mod_p(0), 1);
        assert_eq!(x_pow_mod_p(63), 1 << 63);
        assert_eq!(x_pow_mod_p(64), POLY);
        assert_eq!(x_pow_mod_p(72), tables()[1][1]);
    }

    /// The dispatching path (the kernel wherever the CPU has it) against
    /// the table path: every length to 1 KiB plus page-sized and large
    /// inputs, every load misalignment, zero and non-zero registers.
    #[test]
    fn dispatch_matches_table_at_every_length_offset_and_register() {
        let data = noise(65_536 + 13 + 16);
        let lengths = (0..=1024).chain([4095, 4096, 4097, 65_536 + 13]);
        for len in lengths {
            let offsets = if len <= 1024 { 0..16 } else { 0..4 };
            for off in offsets {
                let d = &data[off..off + len];
                for reg in [0, 0xA5A5_5A5A_0F0F_F0F0] {
                    assert_eq!(
                        crc64_update(reg, d),
                        crc64_table(reg, d),
                        "len {len} offset {off} register {reg:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_split_point_equals_whole() {
        let data = noise(300);
        let whole = crc64_table(0, &data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc64_update(crc64_update(0, a), b), whole, "split {split}");
        }
    }

    /// The kernel itself, called directly, against the table path — says
    /// so on stdout when the CPU cannot run it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_matches_table() {
        let Some(kernel) = clmul::Kernel::detect() else {
            println!("CPU lacks PCLMULQDQ: only the table path was checked");
            return;
        };
        let data = noise(4096 + 16);
        for len in (64..=1024).step_by(16).chain([4096]) {
            for off in 0..16 {
                let d = &data[off..off + len];
                for reg in [0, u64::MAX] {
                    assert_eq!(
                        kernel.update(reg, d),
                        crc64_table(reg, d),
                        "len {len} offset {off} register {reg:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_equals_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc64(data);
        let mut crc = 0;
        for chunk in data.chunks(7) {
            crc = crc64_update(crc, chunk);
        }
        assert_eq!(crc, whole);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xAAu8; 4096];
        let clean = crc64(&data);
        data[2048] ^= 1;
        assert_ne!(crc64(&data), clean);
    }
}
