//! `hvm` — the H32 virtual CPU used by the Hemlock reproduction.
//!
//! The paper ("Linking Shared Segments", USENIX Winter 1993) ran on MIPS
//! R3000 hardware, and two of its linker mechanisms exist *because of*
//! R3000 addressing limits:
//!
//! * the `j`/`jal` instructions can only reach targets within the current
//!   256 MB (28-bit) region, so `lds`/`ldl` replace over-long branches with
//!   trampolines that load the target into a register and jump indirectly;
//! * the global-pointer (`$gp`) addressing mode has 16-bit offsets and is
//!   incompatible with a large sparse address space, so `ldl` insists that
//!   modules be compiled without it.
//!
//! H32 is a small 32-bit RISC that reproduces exactly those constraints:
//! fixed 32-bit instructions, 32 general registers, a 26-bit jump field,
//! and a `$gp`-relative load/store form that the linkers must reject.
//! The CPU delivers *precise* faults: a faulting instruction makes no
//! architectural change and can be restarted after a handler maps the
//! page — the mechanism Hemlock's lazy linker is built on.

pub mod bbcache;
pub mod cpu;
pub mod decode;
pub mod encode;
pub mod isa;
pub mod regs;

pub use bbcache::{BbInvalidation, BlockLookup, BlockTable, Journaled, Source};
pub use cpu::{Bus, Cpu, StepOutcome};
pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use isa::{Access, Fault, Instr};
pub use regs::Reg;

/// Number of bytes in one H32 instruction.
pub const INSTR_BYTES: u32 = 4;

/// Size of the region reachable by a `j`/`jal` instruction (28 bits worth
/// of byte addresses: a 26-bit word target shifted left by two).
pub const JUMP_REGION: u32 = 1 << 28;

/// Returns `true` if a `j`/`jal` at `pc` can encode a branch to `target`.
///
/// Both addresses must lie in the same 256 MB region; the region is
/// selected by the upper four bits of the address of the instruction's
/// successor (`pc + 4`), exactly as on the R3000.
pub fn jump_in_range(pc: u32, target: u32) -> bool {
    ((pc.wrapping_add(INSTR_BYTES)) & !(JUMP_REGION - 1)) == (target & !(JUMP_REGION - 1))
        && target.is_multiple_of(INSTR_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_range_same_region() {
        assert!(jump_in_range(0x0000_1000, 0x0FFF_FFFC));
        assert!(jump_in_range(0x0000_1000, 0x0000_0000));
    }

    #[test]
    fn jump_range_cross_region() {
        // Text at the bottom of the address space cannot jump into the
        // shared file-system window at 0x3000_0000 — the reason Hemlock
        // needs trampolines.
        assert!(!jump_in_range(0x0000_1000, 0x3000_0000));
        assert!(!jump_in_range(0x2FFF_FFF8, 0x3000_0000));
    }

    #[test]
    fn jump_range_rejects_unaligned() {
        assert!(!jump_in_range(0x1000, 0x1002));
    }
}
