//! Relocations: the fixups the linkers apply when assigning a module its
//! virtual address and resolving cross-module references.
//!
//! Two kinds exist *because* of the H32 (R3000) addressing limits the
//! paper describes in §3:
//!
//! * [`RelocKind::Jump26`] targets can only reach the current 256 MB
//!   region — when the target lies outside it, `lds`/`ldl` must substitute
//!   a trampoline ("over-long branches ... replaced with jumps to new,
//!   nearby code fragments that load the appropriate target address into a
//!   register and jump indirectly");
//! * [`RelocKind::GpRel16`] is the performance-enhancing global-pointer
//!   mode that is "limited to 24 bit offsets, and ... incompatible with a
//!   large sparse address space" — `ldl` refuses modules that use it.

use std::fmt;

use crate::object::SectionId;

/// The kind of fixup to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// High 16 bits of an absolute address, for `lui`; biased by `+0x8000`
    /// so that pairing with a sign-extending `Lo16` consumer is exact.
    Hi16,
    /// Low 16 bits of an absolute address, for `addi`/`lw`/`sw` immediates.
    Lo16,
    /// 26-bit word-address field of `j`/`jal`; range-limited to the
    /// enclosing 256 MB region.
    Jump26,
    /// 16-bit PC-relative word displacement of conditional branches.
    Branch16,
    /// A full 32-bit absolute address stored in a data word — the
    /// representation of a pointer in initialized data.
    Word32,
    /// 16-bit `$gp`-relative offset. Hemlock modules must not use this;
    /// the linkers reject it rather than apply it.
    GpRel16,
}

/// One relocation record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reloc {
    /// Section whose bytes are patched.
    pub section: SectionId,
    /// Byte offset of the patched word within the section.
    pub offset: u32,
    /// Index of the referenced symbol in the module's symbol table.
    pub symbol: u32,
    /// Constant added to the symbol's address.
    pub addend: i32,
    /// How to patch.
    pub kind: RelocKind,
}

/// Why a relocation could not be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelocError {
    /// A `Jump26` target lies outside the 256 MB region of the jump —
    /// the linker must synthesize a trampoline instead.
    JumpOutOfRange { pc: u32, target: u32 },
    /// A `Branch16` target is beyond the signed 18-bit displacement.
    BranchOutOfRange { pc: u32, target: u32 },
    /// The target of a word-granular fixup is not 4-byte aligned.
    Misaligned { offset: u32 },
    /// The module uses `$gp`-relative addressing, which Hemlock forbids.
    GpRelForbidden { offset: u32 },
}

impl fmt::Display for RelocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RelocError::JumpOutOfRange { pc, target } => {
                write!(
                    f,
                    "jump at {pc:#010x} cannot reach {target:#010x} (256 MB region)"
                )
            }
            RelocError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at {pc:#010x} cannot reach {target:#010x}")
            }
            RelocError::Misaligned { offset } => {
                write!(f, "relocation target at offset {offset:#x} is misaligned")
            }
            RelocError::GpRelForbidden { offset } => {
                write!(
                    f,
                    "gp-relative relocation at offset {offset:#x}: Hemlock requires modules \
                     compiled without the global-pointer addressing mode"
                )
            }
        }
    }
}

impl RelocKind {
    /// Applies this fixup to the 32-bit word `word`.
    ///
    /// * `value` — the resolved symbol address plus addend (`S + A`);
    /// * `pc` — the virtual address of the patched word itself (needed by
    ///   the PC-relative and region-relative kinds).
    ///
    /// Returns the patched word, or the reason the fixup is impossible —
    /// in the `Jump26` case the caller is expected to route the reference
    /// through a trampoline and retry with the trampoline's address.
    pub fn apply(self, word: u32, value: u32, pc: u32) -> Result<u32, RelocError> {
        match self {
            RelocKind::Hi16 => {
                let hi = value.wrapping_add(0x8000) >> 16;
                Ok((word & 0xFFFF_0000) | (hi & 0xFFFF))
            }
            RelocKind::Lo16 => Ok((word & 0xFFFF_0000) | (value & 0xFFFF)),
            RelocKind::Jump26 => {
                if !hvm::jump_in_range(pc, value) {
                    return Err(RelocError::JumpOutOfRange { pc, target: value });
                }
                Ok((word & 0xFC00_0000) | ((value >> 2) & 0x03FF_FFFF))
            }
            RelocKind::Branch16 => match hvm::isa::branch_disp(pc, value) {
                Some(disp) => Ok((word & 0xFFFF_0000) | disp as u32),
                None => Err(RelocError::BranchOutOfRange { pc, target: value }),
            },
            RelocKind::Word32 => Ok(value),
            RelocKind::GpRel16 => Err(RelocError::GpRelForbidden { offset: pc }),
        }
    }
}

/// Patches `section[offset..offset+4]` (little-endian) with relocation
/// `kind`, given the resolved value and the word's own virtual address.
#[expect(clippy::disallowed_methods, reason = "tramp::patch's word patcher")]
pub fn patch_word(
    section: &mut [u8],
    offset: u32,
    kind: RelocKind,
    value: u32,
    pc: u32,
) -> Result<(), RelocError> {
    let off = offset as usize;
    if !offset.is_multiple_of(4) || off + 4 > section.len() {
        return Err(RelocError::Misaligned { offset });
    }
    let word = u32::from_le_bytes([
        section[off],
        section[off + 1],
        section[off + 2],
        section[off + 3],
    ]);
    let patched = kind.apply(word, value, pc)?;
    section[off..off + 4].copy_from_slice(&patched.to_le_bytes());
    Ok(())
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the fixups themselves")]
mod tests {
    use super::*;
    use hvm::{decode, Instr, Reg};
    use proptest::prelude::*;

    #[test]
    fn hi_lo_pair_materializes_any_address() {
        // The canonical `la` sequence: lui rt, %hi(v); addi rt, rt, %lo(v).
        // With the +0x8000 bias, (hi << 16) + sext(lo) == v for all v.
        for v in [
            0u32,
            1,
            0x7FFF,
            0x8000,
            0xFFFF,
            0x1_0000,
            0x3000_8000,
            0xFFFF_FFFF,
        ] {
            let hi = RelocKind::Hi16.apply(0, v, 0).unwrap() & 0xFFFF;
            let lo = RelocKind::Lo16.apply(0, v, 0).unwrap() & 0xFFFF;
            let got = (hi << 16).wrapping_add(lo as i16 as i32 as u32);
            assert_eq!(got, v, "v = {v:#x}");
        }
    }

    proptest! {
        #[test]
        fn hi_lo_pair_property(v in any::<u32>()) {
            let hi = RelocKind::Hi16.apply(0, v, 0).unwrap() & 0xFFFF;
            let lo = RelocKind::Lo16.apply(0, v, 0).unwrap() & 0xFFFF;
            prop_assert_eq!((hi << 16).wrapping_add(lo as i16 as i32 as u32), v);
        }
    }

    #[test]
    fn jump26_in_region_patches_target_field() {
        let word = hvm::encode(Instr::Jal { target: 0 });
        let patched = RelocKind::Jump26.apply(word, 0x0004_0000, 0x1000).unwrap();
        match decode(patched).unwrap() {
            Instr::Jal { target } => assert_eq!(target << 2, 0x0004_0000),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn jump26_out_of_region_reports_trampoline_needed() {
        let word = hvm::encode(Instr::Jal { target: 0 });
        let err = RelocKind::Jump26
            .apply(word, 0x3000_0000, 0x1000)
            .unwrap_err();
        assert_eq!(
            err,
            RelocError::JumpOutOfRange {
                pc: 0x1000,
                target: 0x3000_0000
            }
        );
    }

    #[test]
    fn branch16_patches_displacement() {
        let word = hvm::encode(Instr::Bne {
            rs: Reg(8),
            rt: Reg::ZERO,
            imm: 0,
        });
        let patched = RelocKind::Branch16.apply(word, 0x1010, 0x1000).unwrap();
        match decode(patched).unwrap() {
            Instr::Bne { imm, .. } => {
                assert_eq!(hvm::isa::branch_target(0x1000, imm), 0x1010);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn branch16_out_of_range() {
        let word = 0;
        assert!(matches!(
            RelocKind::Branch16.apply(word, 0x0030_0000, 0x1000),
            Err(RelocError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn word32_stores_pointer() {
        assert_eq!(
            RelocKind::Word32
                .apply(0xAAAA_AAAA, 0x3000_0040, 0)
                .unwrap(),
            0x3000_0040
        );
    }

    #[test]
    fn gprel_always_rejected() {
        assert!(matches!(
            RelocKind::GpRel16.apply(0, 0x1234, 0x1000),
            Err(RelocError::GpRelForbidden { .. })
        ));
    }

    #[test]
    fn patch_word_bounds_and_alignment() {
        let mut sec = vec![0u8; 8];
        assert!(patch_word(&mut sec, 0, RelocKind::Word32, 0x1234_5678, 0).is_ok());
        assert_eq!(&sec[0..4], &0x1234_5678u32.to_le_bytes());
        assert!(matches!(
            patch_word(&mut sec, 2, RelocKind::Word32, 0, 0),
            Err(RelocError::Misaligned { offset: 2 })
        ));
        assert!(matches!(
            patch_word(&mut sec, 8, RelocKind::Word32, 0, 0),
            Err(RelocError::Misaligned { offset: 8 })
        ));
    }
}
