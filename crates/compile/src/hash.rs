//! Content hashing for compile requests and artifacts.
//!
//! The workspace is offline (no serde, no external hashers), so identity
//! is derived from the hashed values themselves, streamed through one
//! FNV-style state and finished with a splitmix64-style avalanche.  Two
//! kinds of step feed that state:
//!
//! - **Structure** goes through its deterministic `Debug` rendering,
//!   byte-wise FNV-1a ([`DebugHasher::field`]).  Every such type renders
//!   from plain scalars, `Vec`s and `BTreeSet`s — no
//!   iteration-order-unstable container — so it hashes identically
//!   across runs, hosts, threads and `--jobs` counts.
//! - **Memory images**, nearly all the bytes of a large program, go in
//!   as raw words ([`DebugHasher::mem`]): no text is rendered for them.
//!   Each word step is an FNV multiply followed by a 32-bit xorshift,
//!   so a difference in a word's high bits reaches the low bits and two
//!   differences cannot cancel.
//!
//! [`DebugHasher::scalar_program`] and [`DebugHasher::vliw_program`]
//! combine the two.  They destructure the program exhaustively, so a
//! field added to either program type does not compile until it is
//! hashed.

use psb_isa::{MemImage, ScalarProgram, VliwProgram};
use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64 finalizer: avalanches the FNV state so that requests
/// differing only in a late field still spread across cache shards.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming FNV hasher usable as a [`fmt::Write`] sink, so arbitrary
/// `Debug` output is hashed without materializing the rendered string;
/// memory images are hashed as words, without rendering at all.
#[derive(Clone, Debug)]
pub struct DebugHasher {
    state: u64,
}

impl DebugHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> DebugHasher {
        DebugHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes into the running FNV-1a state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes one 64-bit word: an FNV step over the whole word, then a
    /// xorshift that folds the high half into the low half.  Without the
    /// fold a flip of bit 63 only ever moves bit 63, so two such flips
    /// cancel.
    fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
        self.state ^= self.state >> 32;
    }

    /// Hashes one `Debug`-rendered value followed by a separator byte, so
    /// adjacent fields cannot alias across their boundary.
    pub fn field(&mut self, value: &dyn fmt::Debug) {
        write!(self, "{value:?}").expect("DebugHasher::write_str is infallible");
        self.write_bytes(&[0x1f]);
    }

    /// Hashes a memory image as raw words: its size, its cell count and
    /// every `(address, value)` pair in order.  The count prefix keeps
    /// the image from aliasing whatever is hashed after it.
    pub fn mem(&mut self, image: &MemImage) {
        let MemImage { size, cells } = image;
        self.word(*size as u64);
        self.word(cells.len() as u64);
        for &(addr, value) in cells {
            self.word(addr as u64);
            self.word(value as u64);
        }
    }

    /// Hashes every field of a scalar program: `Debug` for the code and
    /// the small fields, [`DebugHasher::mem`] for the memory image.
    pub fn scalar_program(&mut self, program: &ScalarProgram) {
        let ScalarProgram {
            name,
            blocks,
            entry,
            init_regs,
            memory,
            live_out,
        } = program;
        self.field(name);
        self.field(blocks);
        self.field(entry);
        self.field(init_regs);
        self.mem(memory);
        self.field(live_out);
    }

    /// Hashes every field of a VLIW program, as
    /// [`DebugHasher::scalar_program`] does.
    pub fn vliw_program(&mut self, program: &VliwProgram) {
        let VliwProgram {
            name,
            words,
            region_starts,
            num_conds,
            init_regs,
            memory,
            live_out,
        } = program;
        self.field(name);
        self.field(words);
        self.field(region_starts);
        self.field(num_conds);
        self.field(init_regs);
        self.mem(memory);
        self.field(live_out);
    }

    /// The finalized 64-bit digest.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

impl Default for DebugHasher {
    fn default() -> DebugHasher {
        DebugHasher::new()
    }
}

impl Write for DebugHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Hashes a sequence of `Debug` fields into one digest.
pub fn hash_fields(fields: &[&dyn fmt::Debug]) -> u64 {
    let mut h = DebugHasher::new();
    for f in fields {
        h.field(*f);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_input_same_digest() {
        let a = hash_fields(&[&1u64, &"x", &vec![1, 2, 3]]);
        let b = hash_fields(&[&1u64, &"x", &vec![1, 2, 3]]);
        assert_eq!(a, b);
    }

    #[test]
    fn field_boundaries_matter() {
        // Without separators, ["ab", "c"] and ["a", "bc"] would collide.
        assert_ne!(hash_fields(&[&"ab", &"c"]), hash_fields(&[&"a", &"bc"]));
        assert_ne!(hash_fields(&[&1u8]), hash_fields(&[&1u8, &1u8]));
    }

    #[test]
    fn digest_is_sensitive_to_every_byte() {
        let base = hash_fields(&[&vec![0u8; 64]]);
        for i in 0..64 {
            let mut v = vec![0u8; 64];
            v[i] = 1;
            assert_ne!(base, hash_fields(&[&v]), "byte {i} ignored");
        }
    }

    fn mem_digest(image: &MemImage) -> u64 {
        let mut h = DebugHasher::new();
        h.mem(image);
        h.finish()
    }

    fn image() -> MemImage {
        MemImage {
            size: 64,
            cells: (1..9).map(|a| (a, a * 1000 - 3)).collect(),
        }
    }

    #[test]
    fn mem_is_sensitive_to_every_address_and_value_bit_63_included() {
        let base = mem_digest(&image());
        for i in 0..image().cells.len() {
            for bit in [0, 1, 31, 32, 62, 63] {
                let mut m = image();
                m.cells[i].0 ^= 1 << bit;
                assert_ne!(base, mem_digest(&m), "cell {i} address bit {bit} ignored");
                let mut m = image();
                m.cells[i].1 ^= 1 << bit;
                assert_ne!(base, mem_digest(&m), "cell {i} value bit {bit} ignored");
            }
        }
    }

    #[test]
    fn mem_is_sensitive_to_size_and_cell_order() {
        let base = mem_digest(&image());
        let mut m = image();
        m.size += 1;
        assert_ne!(base, mem_digest(&m), "size ignored");
        let mut m = image();
        m.cells.swap(2, 5);
        assert_ne!(base, mem_digest(&m), "cell order ignored");
        let mut m = image();
        m.cells.pop();
        assert_ne!(base, mem_digest(&m), "cell count ignored");
    }

    #[test]
    fn two_bit_63_flips_do_not_cancel() {
        // Plain word-FNV, (state ^ w) * prime, moves a bit-63 difference
        // only into bit 63, so a second bit-63 flip undoes the first.
        let plain = |m: &MemImage| {
            let mut s = FNV_OFFSET;
            for &(a, v) in &m.cells {
                for w in [a as u64, v as u64] {
                    s = (s ^ w).wrapping_mul(FNV_PRIME);
                }
            }
            s
        };
        let mut flipped = image();
        flipped.cells[1].1 ^= i64::MIN;
        flipped.cells[6].1 ^= i64::MIN;
        assert_eq!(plain(&image()), plain(&flipped), "the cancellation case");
        assert_ne!(mem_digest(&image()), mem_digest(&flipped));
    }

    #[test]
    fn request_key_sees_one_cell_of_a_large_image() {
        use crate::{CompileRequest, ProfileSource};
        use psb_sched::{Model, SchedConfig};
        let train = psb_workloads::by_name("eqntott", 7, 16384).expect("eqntott exists");
        let eval = psb_workloads::by_name("eqntott", 11, 16384).expect("eqntott exists");
        let key = |program: &ScalarProgram| {
            CompileRequest {
                program,
                profile: ProfileSource::Train {
                    program: &train.program,
                    config: Default::default(),
                },
                sched: SchedConfig::new(Model::RegionPred),
            }
            .key()
        };
        let mut changed = eval.program.clone();
        let cells = &mut changed.memory.cells;
        assert!(cells.len() > 1000, "a large image: {} cells", cells.len());
        let mid = cells.len() / 2;
        cells[mid].1 += 1;
        assert_eq!(key(&eval.program), key(&eval.program.clone()));
        assert_ne!(key(&eval.program), key(&changed));
    }
}
