//! The H32 instruction set and fault model.
//!
//! H32 deliberately mirrors the parts of the MIPS R3000 the paper's
//! linkers had to work around: a 26-bit `j`/`jal` target field and a
//! 16-bit-offset `$gp` addressing mode. There are no branch delay slots —
//! they are irrelevant to the linking mechanisms under study and would
//! complicate precise fault restart.

use crate::regs::Reg;
use std::fmt;

/// The kind of memory access that faulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A precise CPU fault.
///
/// A faulting instruction performs *no* architectural state change; after
/// the fault is repaired (e.g. Hemlock's handler maps the segment and runs
/// the lazy linker) the instruction can simply be re-executed. This is the
/// "restarts the faulting instruction" behaviour from §2 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The address is not mapped in the current address space.
    Unmapped { addr: u32, access: Access },
    /// The address is mapped but the protection forbids this access.
    ///
    /// Hemlock maps not-yet-linked modules with *no* access permissions so
    /// that the first touch raises exactly this fault.
    Protection { addr: u32, access: Access },
    /// The address is not aligned for the access width.
    Unaligned { addr: u32, access: Access },
    /// The fetched word does not decode to an instruction.
    IllegalInstruction { addr: u32, word: u32 },
    /// Integer divide by zero.
    DivideByZero { addr: u32 },
    /// A `syscall` instruction trapped with a number the kernel does not
    /// implement. Unlike a segment fault this is not repairable: the
    /// issuing process is killed, but only that process.
    BadSyscall { addr: u32, num: u32 },
    /// The backing disk block for this mapped address is uncorrectably
    /// corrupt (checksum verification failed and no intact replica or
    /// journal copy exists — DESIGN.md §14). Like a real kernel's SIGBUS
    /// on a mapped-I/O error this is not repairable by the handler: the
    /// touching process is killed, but only that process.
    Eio { addr: u32, access: Access },
}

impl Fault {
    /// The faulting address (for memory faults) or the PC (for others).
    pub fn addr(&self) -> u32 {
        match *self {
            Fault::Unmapped { addr, .. }
            | Fault::Protection { addr, .. }
            | Fault::Unaligned { addr, .. }
            | Fault::IllegalInstruction { addr, .. }
            | Fault::DivideByZero { addr }
            | Fault::BadSyscall { addr, .. }
            | Fault::Eio { addr, .. } => addr,
        }
    }

    /// True for the two fault kinds a SIGSEGV handler may repair.
    pub fn is_segv(&self) -> bool {
        matches!(self, Fault::Unmapped { .. } | Fault::Protection { .. })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped { addr, access } => {
                write!(f, "unmapped address {addr:#010x} ({access:?})")
            }
            Fault::Protection { addr, access } => {
                write!(f, "protection violation at {addr:#010x} ({access:?})")
            }
            Fault::Unaligned { addr, access } => {
                write!(f, "unaligned access at {addr:#010x} ({access:?})")
            }
            Fault::IllegalInstruction { addr, word } => {
                write!(f, "illegal instruction {word:#010x} at {addr:#010x}")
            }
            Fault::DivideByZero { addr } => write!(f, "divide by zero at {addr:#010x}"),
            Fault::BadSyscall { addr, num } => {
                write!(f, "bad syscall number {num} at {addr:#010x}")
            }
            Fault::Eio { addr, access } => {
                write!(
                    f,
                    "uncorrectable disk corruption at {addr:#010x} ({access:?})"
                )
            }
        }
    }
}

/// A decoded H32 instruction.
///
/// Immediate fields hold the raw 16-bit (or 26-bit) encodings; sign
/// extension happens at execution time so that `decode(encode(i)) == i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    // --- ALU, register form ---
    /// `rd = rs + rt` (wrapping).
    Add { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs - rt` (wrapping).
    Sub { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs & rt`.
    And { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs | rt`.
    Or { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs ^ rt`.
    Xor { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = !(rs | rt)`.
    Nor { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = (rs as i32) < (rt as i32)`.
    Slt { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs < rt` (unsigned).
    Sltu { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rt << shamt`.
    Sll { rd: Reg, rt: Reg, shamt: u8 },
    /// `rd = rt >> shamt` (logical).
    Srl { rd: Reg, rt: Reg, shamt: u8 },
    /// `rd = (rt as i32) >> shamt`.
    Sra { rd: Reg, rt: Reg, shamt: u8 },
    /// `rd = rt << (rs & 31)`.
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    /// `rd = rt >> (rs & 31)` (logical).
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    /// `rd = (rt as i32) >> (rs & 31)`.
    Srav { rd: Reg, rt: Reg, rs: Reg },
    /// `(hi, lo) = rs * rt` (signed 64-bit product).
    Mult { rs: Reg, rt: Reg },
    /// `(hi, lo) = rs * rt` (unsigned 64-bit product).
    Multu { rs: Reg, rt: Reg },
    /// `lo = rs / rt; hi = rs % rt` (signed; faults on zero divisor).
    Div { rs: Reg, rt: Reg },
    /// `lo = rs / rt; hi = rs % rt` (unsigned; faults on zero divisor).
    Divu { rs: Reg, rt: Reg },
    /// `rd = hi`.
    Mfhi { rd: Reg },
    /// `rd = lo`.
    Mflo { rd: Reg },

    // --- ALU, immediate form ---
    /// `rt = rs + sext(imm)` (wrapping).
    Addi { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = (rs as i32) < sext(imm)`.
    Slti { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs < sext(imm) as u32` (unsigned compare).
    Sltiu { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs & zext(imm)`.
    Andi { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs | zext(imm)`.
    Ori { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs ^ zext(imm)`.
    Xori { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = imm << 16` — the upper half of an absolute address; paired
    /// with `Ori` under `Hi16`/`Lo16` relocations.
    Lui { rt: Reg, imm: u16 },

    // --- loads/stores: `addr = rs + sext(imm)` ---
    /// Load signed byte.
    Lb { rt: Reg, rs: Reg, imm: u16 },
    /// Load unsigned byte.
    Lbu { rt: Reg, rs: Reg, imm: u16 },
    /// Load signed halfword.
    Lh { rt: Reg, rs: Reg, imm: u16 },
    /// Load unsigned halfword.
    Lhu { rt: Reg, rs: Reg, imm: u16 },
    /// Load word.
    Lw { rt: Reg, rs: Reg, imm: u16 },
    /// Store low byte.
    Sb { rt: Reg, rs: Reg, imm: u16 },
    /// Store low halfword.
    Sh { rt: Reg, rs: Reg, imm: u16 },
    /// Store word.
    Sw { rt: Reg, rs: Reg, imm: u16 },

    // --- control flow ---
    /// Branch if `rs == rt`; target = `pc + 4 + sext(imm) * 4`.
    Beq { rs: Reg, rt: Reg, imm: u16 },
    /// Branch if `rs != rt`.
    Bne { rs: Reg, rt: Reg, imm: u16 },
    /// Branch if `(rs as i32) <= 0`.
    Blez { rs: Reg, imm: u16 },
    /// Branch if `(rs as i32) > 0`.
    Bgtz { rs: Reg, imm: u16 },
    /// Branch if `(rs as i32) < 0`.
    Bltz { rs: Reg, imm: u16 },
    /// Branch if `(rs as i32) >= 0`.
    Bgez { rs: Reg, imm: u16 },
    /// Region-limited jump: `pc = (pc + 4) & 0xF000_0000 | target << 2`.
    J { target: u32 },
    /// Region-limited jump-and-link (`ra = pc + 4`).
    Jal { target: u32 },
    /// Indirect jump: `pc = rs` — the escape hatch linker trampolines use.
    Jr { rs: Reg },
    /// Indirect jump-and-link: `rd = pc + 4; pc = rs`.
    Jalr { rd: Reg, rs: Reg },

    // --- system ---
    /// Trap to the kernel; the kernel reads the syscall number from `$v0`.
    Syscall,
    /// Breakpoint trap with a 20-bit code.
    Break { code: u32 },
}

impl Instr {
    /// True for `sb`, `sh` and `sw`: the only instructions that write
    /// memory through the [`crate::Bus`].
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Sb { .. } | Instr::Sh { .. } | Instr::Sw { .. })
    }
}

/// Sign-extends a 16-bit immediate to 32 bits.
pub fn sext16(imm: u16) -> u32 {
    imm as i16 as i32 as u32
}

/// Computes a branch target from the instruction's PC and raw immediate.
pub fn branch_target(pc: u32, imm: u16) -> u32 {
    pc.wrapping_add(4).wrapping_add(sext16(imm) << 2)
}

/// Computes the raw branch immediate that reaches `target` from `pc`, if
/// it fits in the signed 18-bit range.
pub fn branch_disp(pc: u32, target: u32) -> Option<u16> {
    let delta = target.wrapping_sub(pc.wrapping_add(4)) as i32;
    if delta % 4 != 0 {
        return None;
    }
    let words = delta >> 2;
    if (-(1 << 15)..(1 << 15)).contains(&words) {
        Some(words as i16 as u16)
    } else {
        None
    }
}

/// Computes a `j`/`jal` destination from the instruction's PC and the
/// raw 26-bit target field.
pub fn jump_target(pc: u32, target: u32) -> u32 {
    (pc.wrapping_add(4) & 0xF000_0000) | ((target & 0x03FF_FFFF) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sext16_behaviour() {
        assert_eq!(sext16(0x0001), 1);
        assert_eq!(sext16(0xFFFF), 0xFFFF_FFFF);
        assert_eq!(sext16(0x8000), 0xFFFF_8000);
    }

    #[test]
    fn branch_targets_round_trip() {
        for (pc, target) in [
            (0x1000, 0x1010),
            (0x1000, 0x0F00),
            (0x4000_0000, 0x4000_0004),
        ] {
            let disp = branch_disp(pc, target).expect("in range");
            assert_eq!(branch_target(pc, disp), target);
        }
    }

    #[test]
    fn branch_disp_rejects_far_and_unaligned() {
        assert_eq!(branch_disp(0x1000, 0x1000 + 4 + (1 << 17)), None);
        assert_eq!(branch_disp(0x1000, 0x1001), None);
    }

    #[test]
    fn jump_target_keeps_region() {
        assert_eq!(jump_target(0x1000, 0x40), 0x100);
        assert_eq!(jump_target(0x3000_1000, 0x40), 0x3000_0100);
    }

    #[test]
    fn segv_classification() {
        assert!(Fault::Unmapped {
            addr: 0,
            access: Access::Read
        }
        .is_segv());
        assert!(Fault::Protection {
            addr: 0,
            access: Access::Exec
        }
        .is_segv());
        assert!(!Fault::Unaligned {
            addr: 1,
            access: Access::Read
        }
        .is_segv());
        assert!(!Fault::DivideByZero { addr: 0 }.is_segv());
        // An EIO is *not* a segv: the handler must never try to repair a
        // corrupt backing block by remapping — the process dies instead.
        assert!(!Fault::Eio {
            addr: 0x3000_0000,
            access: Access::Read
        }
        .is_segv());
        assert_eq!(
            Fault::Eio {
                addr: 0x42,
                access: Access::Write
            }
            .addr(),
            0x42
        );
    }
}
