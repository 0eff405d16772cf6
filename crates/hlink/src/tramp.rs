//! Long-branch trampolines.
//!
//! §3: "To cope with a similar 28-bit addressing limit on the processor's
//! jump instructions, lds and ldl arrange for over-long branches to be
//! replaced with jumps to new, nearby code fragments that load the
//! appropriate target address into a register and jump indirectly."
//!
//! A trampoline is three instructions (12 bytes) in a reserved area at the
//! end of the module's text, reachable by the original `j`/`jal`:
//!
//! ```text
//! lui  $at, target[31:16]
//! ori  $at, $at, target[15:0]
//! jr   $at
//! ```
//!
//! `$at` is the linker-reserved register, so no live value is clobbered;
//! `jal` still writes `$ra` at the original call site, so calls through a
//! trampoline return correctly.
//!
//! [`patch`] is the one place `hlink` applies a relocation: `lds` (image
//! and static public instances), instantiation, and `ldl` (run-time
//! patches of a word copied out of guest memory) all call it.

use hobj::reloc::{patch_word, RelocError};
use hobj::RelocKind;
use hvm::{encode, Instr, Reg};
use std::collections::HashMap;

/// Size of one trampoline in bytes.
pub const TRAMP_BYTES: u32 = 12;

/// Encodes the three-instruction trampoline body for `target`.
pub fn trampoline_code(target: u32) -> [u32; 3] {
    [
        encode(Instr::Lui {
            rt: Reg::AT,
            imm: (target >> 16) as u16,
        }),
        encode(Instr::Ori {
            rt: Reg::AT,
            rs: Reg::AT,
            imm: target as u16,
        }),
        encode(Instr::Jr { rs: Reg::AT }),
    ]
}

/// Allocates trampolines within a module's reserved area, deduplicating
/// by target.
#[derive(Debug)]
pub struct TrampolineArea {
    /// Virtual address of the first trampoline slot.
    pub base: u32,
    /// Total reserved bytes.
    pub capacity: u32,
    /// Bytes handed out so far.
    pub used: u32,
    by_target: HashMap<u32, u32>,
    /// Emitted code, appended per allocation (3 words each).
    pub code: Vec<u32>,
}

impl TrampolineArea {
    /// Creates an allocator over `[base, base + capacity)`.
    pub fn new(base: u32, capacity: u32) -> TrampolineArea {
        TrampolineArea {
            base,
            capacity,
            used: 0,
            by_target: HashMap::new(),
            code: Vec::new(),
        }
    }

    /// Returns the address of a trampoline to `target`, creating one if
    /// this target has none yet. `None` if the area is full or `admit`
    /// refuses; `admit` is asked only when a new trampoline fits.
    pub fn get(&mut self, target: u32, admit: impl FnOnce() -> bool) -> Option<u32> {
        if let Some(&addr) = self.by_target.get(&target) {
            return Some(addr);
        }
        if self.used + TRAMP_BYTES > self.capacity || !admit() {
            return None;
        }
        let addr = self.base + self.used;
        self.used += TRAMP_BYTES;
        self.by_target.insert(target, addr);
        self.code.extend_from_slice(&trampoline_code(target));
        Some(addr)
    }

    /// The emitted trampoline bytes (little-endian), ready to copy into
    /// the reserved area.
    pub fn bytes(&self) -> Vec<u8> {
        self.code.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Number of distinct trampolines emitted.
    pub fn count(&self) -> usize {
        self.by_target.len()
    }
}

/// Why [`patch`] could not patch a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// A jump needed a trampoline and the area gave none.
    AreaFull,
    /// Any other relocation failure.
    Reloc(RelocError),
}

/// Patches the relocation word at `bytes[off..off + 4]`, whose virtual
/// address is `pc`, with `value`. A jump that cannot reach `value` is
/// patched to a trampoline from `area` instead (see
/// [`TrampolineArea::get`] for `admit`); the caller copies
/// [`TrampolineArea::bytes`] into the area.
pub fn patch(
    bytes: &mut [u8],
    off: u32,
    pc: u32,
    kind: RelocKind,
    value: u32,
    area: &mut TrampolineArea,
    admit: impl FnOnce() -> bool,
) -> Result<(), PatchError> {
    match patch_word(bytes, off, kind, value, pc) {
        Err(RelocError::JumpOutOfRange { .. }) => {
            let tramp = area.get(value, admit).ok_or(PatchError::AreaFull)?;
            patch_word(bytes, off, kind, tramp, pc).map_err(PatchError::Reloc)
        }
        done => done.map_err(PatchError::Reloc),
    }
}

/// Conservative reservation for a module with `jump26_relocs` region-
/// limited jump relocations: every one might need its own trampoline.
pub fn reserve_for(jump26_relocs: usize) -> u32 {
    (jump26_relocs as u32) * TRAMP_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::decode;

    #[test]
    fn trampoline_loads_target_and_jumps_indirect() {
        let code = trampoline_code(0x3456_789C);
        assert_eq!(
            decode(code[0]).unwrap(),
            Instr::Lui {
                rt: Reg::AT,
                imm: 0x3456
            }
        );
        assert_eq!(
            decode(code[1]).unwrap(),
            Instr::Ori {
                rt: Reg::AT,
                rs: Reg::AT,
                imm: 0x789C
            }
        );
        assert_eq!(decode(code[2]).unwrap(), Instr::Jr { rs: Reg::AT });
    }

    #[test]
    fn allocation_and_dedup() {
        let mut area = TrampolineArea::new(0x5000, 24);
        let a = area.get(0x3000_0000, || true).unwrap();
        let b = area
            .get(0x3000_0000, || panic!("a reuse admits nothing"))
            .unwrap();
        assert_eq!(a, b, "same target shares a trampoline");
        assert_eq!(a, 0x5000);
        assert_eq!(area.get(0x4000_0000, || false), None, "refused");
        let c = area.get(0x4000_0000, || true).unwrap();
        assert_eq!(c, 0x500C);
        assert_eq!(area.count(), 2);
        // Area exhausted: nothing left to admit.
        assert_eq!(area.get(0x5000_0000, || panic!("full")), None);
    }

    #[test]
    fn bytes_layout_matches_allocations() {
        let mut area = TrampolineArea::new(0x5000, 24);
        area.get(0x1111_2222, || true).unwrap();
        area.get(0x3333_4444, || true).unwrap();
        let bytes = area.bytes();
        assert_eq!(bytes.len(), 24);
        let w0 = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert_eq!(
            decode(w0).unwrap(),
            Instr::Lui {
                rt: Reg::AT,
                imm: 0x1111
            }
        );
    }

    #[test]
    fn patch_reaches_directly_or_through_a_trampoline() {
        let jal = hvm::encode(Instr::Jal { target: 0 }).to_le_bytes();
        let word = |b: &[u8]| decode(u32::from_le_bytes(b[4..8].try_into().unwrap())).unwrap();
        let mut bytes = [[0u8; 4], jal].concat();
        let mut area = TrampolineArea::new(0x5000, 12);
        let jump = RelocKind::Jump26;
        // In region: patched in place, no trampoline.
        patch(&mut bytes, 4, 0x1004, jump, 0x2000, &mut area, || true).unwrap();
        assert_eq!(
            word(&bytes),
            Instr::Jal {
                target: 0x2000 >> 2
            }
        );
        assert_eq!(area.used, 0);
        // Out of region: routed through the area's first slot.
        patch(&mut bytes, 4, 0x1004, jump, 0x3000_0000, &mut area, || true).unwrap();
        assert_eq!(
            word(&bytes),
            Instr::Jal {
                target: 0x5000 >> 2
            }
        );
        let code: Vec<u8> = trampoline_code(0x3000_0000)
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert_eq!(area.bytes(), code);
        // A second target finds the area full; other failures stay
        // relocation errors.
        let full = patch(&mut bytes, 4, 0x1004, jump, 0x4000_0000, &mut area, || true);
        assert_eq!(full, Err(PatchError::AreaFull));
        let short = patch(
            &mut bytes,
            8,
            0x1008,
            RelocKind::Word32,
            0,
            &mut area,
            || true,
        );
        assert_eq!(
            short,
            Err(PatchError::Reloc(RelocError::Misaligned { offset: 8 }))
        );
    }

    #[test]
    fn reservation_bound() {
        assert_eq!(reserve_for(0), 0);
        assert_eq!(reserve_for(7), 84);
    }
}
