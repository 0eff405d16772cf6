//! The H32 interpreter core.
//!
//! The CPU is deliberately decoupled from memory: every access goes through
//! the [`Bus`] trait, which the kernel crate implements with per-process
//! address spaces, page protections and copy-on-write. A memory access that
//! the bus rejects surfaces as [`StepOutcome::Fault`] *before* any
//! architectural state changes, so the kernel can run Hemlock's fault
//! handler (map the segment, run the lazy linker) and re-execute the same
//! instruction — the paper's "restarts the faulting instruction" protocol.

use crate::isa::{branch_target, jump_target, sext16, Access, Fault, Instr};
use crate::regs::Reg;

/// Memory interface the CPU executes against.
///
/// Implementations perform translation and protection checks. A `Fault`
/// return must leave memory unchanged.
///
/// **Fetch contract of [`Cpu::run_block`].** A cached block lies within
/// one page. `run_block` calls [`Bus::fetch_check`] for the block's
/// first instruction, for every load and store, and for the first
/// instruction after a load or store. Every other fetch in the block
/// follows a successful `fetch_check` of the same page with no data
/// access in between; `run_block` makes no call for it, and hands the
/// number of such fetches to [`Bus::fetch_hits`] once, on every exit
/// from the block. A bus must therefore make such a repeated fetch
/// unable to fault, and give it no side effect beyond what `fetch_hits`
/// accounts in bulk.
pub trait Bus {
    /// Fetches the instruction word at `addr` (checked for execute access).
    fn fetch(&mut self, addr: u32) -> Result<u32, Fault>;
    /// Loads one byte.
    fn load8(&mut self, addr: u32) -> Result<u8, Fault>;
    /// Loads a halfword (alignment already verified by the CPU).
    fn load16(&mut self, addr: u32) -> Result<u16, Fault>;
    /// Loads a word (alignment already verified by the CPU).
    fn load32(&mut self, addr: u32) -> Result<u32, Fault>;
    /// Stores one byte.
    fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault>;
    /// Stores a halfword.
    fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault>;
    /// Stores a word.
    fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault>;

    /// Performs the side effects of an instruction fetch at `addr`
    /// (translation, protection, residency, reference bits) *without*
    /// returning the bytes — the block-cache path, where the word was
    /// already decoded. Must be observably identical to [`Bus::fetch`]
    /// minus the data. The default is exactly that. `run_block` calls
    /// it only where the contract above says, not for every fetch.
    fn fetch_check(&mut self, addr: u32) -> Result<(), Fault> {
        self.fetch(addr).map(|_| ())
    }

    /// Accounts `n` fetches that [`Cpu::run_block`] retired without a
    /// call, each a repeat of the block's last successful
    /// [`Bus::fetch_check`] page (see the contract above). The default
    /// does nothing, which is exact for a bus whose fetches of mapped
    /// text have no side effects, such as a flat memory.
    fn fetch_hits(&mut self, n: u64) {
        let _ = n;
    }

    /// A stamp that moves whenever a store through this bus could have
    /// altered executable bytes; only the store methods may move it.
    /// [`Cpu::run_block`] re-checks it after each cached store retires
    /// and aborts the block on movement (self-modifying code falls back
    /// to the fetch+decode path). Buses without a block cache never
    /// move it.
    fn text_epoch(&mut self) -> u64 {
        0
    }
}

/// What happened when the CPU attempted one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Retired,
    /// The instruction trapped to the kernel via `syscall`. The PC has
    /// already advanced past the instruction; the kernel reads arguments
    /// from the register file and writes results back.
    Syscall,
    /// A `break` trap with its code. The PC has advanced.
    Break(u32),
    /// The instruction faulted; no architectural state changed and the PC
    /// still addresses the faulting instruction.
    Fault(Fault),
}

/// Architectural state of one H32 hardware context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; 32],
    /// HI register (multiply/divide).
    pub hi: u32,
    /// LO register (multiply/divide).
    pub lo: u32,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
    /// Count of retired instructions (the simulation's cycle clock).
    pub retired: u64,
    /// The simulated CPU this context last executed on (`None` until the
    /// first dispatch). The scheduler uses it for affinity; running the
    /// context on a different CPU costs a cold translation cache.
    pub last_cpu: Option<u32>,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero and PC at zero.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
            retired: 0,
            last_cpu: None,
        }
    }

    /// Reads a register; `$zero` always reads 0.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to `$zero` are discarded.
    pub fn set_reg(&mut self, r: Reg, val: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = val;
        }
    }

    /// Executes one instruction against `bus`.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> StepOutcome {
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return StepOutcome::Fault(Fault::Unaligned {
                addr: pc,
                access: Access::Exec,
            });
        }
        let word = match bus.fetch(pc) {
            Ok(w) => w,
            Err(f) => return StepOutcome::Fault(f),
        };
        let instr = match crate::decode::decode(word) {
            Ok(i) => i,
            Err(_) => {
                return StepOutcome::Fault(Fault::IllegalInstruction { addr: pc, word });
            }
        };
        self.execute(instr, bus)
    }

    /// Executes a decoded basic block (see [`crate::bbcache`]) of at most
    /// `max` *retiring* instructions, returning `(retired_in_block,
    /// outcome)`. The caller accounts the returned count exactly as it
    /// would `max` individual [`Cpu::step`] calls that returned
    /// [`StepOutcome::Retired`], and handles the final outcome (if any)
    /// as one more `step` — so `None` means "budget exhausted or block
    /// aborted mid-run; re-enter at `self.pc`".
    ///
    /// `code` must lie within one page, as every cached block does. The
    /// fetches follow the contract on [`Bus`]: [`Bus::fetch_check`] at
    /// block entry, for every load and store, and for the first fetch
    /// after a load or store; every other fetch is counted and handed
    /// to [`Bus::fetch_hits`] once, on every exit path. Register-only
    /// instructions retire in a loop that keeps `pc` and the retired
    /// count in locals; they are written back before anything else
    /// runs ([`Cpu::execute`] for loads, stores, `div*`, `syscall` and
    /// `break`). After a store retires the block checks
    /// [`Bus::text_epoch`] and aborts if the store invalidated the text
    /// under us (PC is correct, nothing is lost). Only stores move the
    /// epoch, so checking after them is checking before every
    /// instruction. A fault leaves PC at the faulting instruction;
    /// `Syscall`/`Break` have already advanced it — identical to `step`.
    pub fn run_block<B: Bus>(
        &mut self,
        bus: &mut B,
        code: &[Instr],
        max: u64,
    ) -> (u64, Option<StepOutcome>) {
        let code = &code[..code.len().min(usize::try_from(max).unwrap_or(usize::MAX))];
        if code.is_empty() {
            return (0, None);
        }
        if let Err(f) = bus.fetch_check(self.pc) {
            return (0, Some(StepOutcome::Fault(f)));
        }
        let epoch = bus.text_epoch();
        let base = self.retired;
        let mut pc = self.pc;
        // Successful `fetch_check` calls, and the pc of the last one.
        let mut checks = 1u64;
        let mut checked = pc;
        // Instructions retired so far; also the index of the next one.
        let mut i = 0usize;
        let fault = loop {
            let Some(&instr) = code.get(i) else {
                break None;
            };
            if let Some(next) = self.register_only(instr, pc) {
                pc = next;
                i += 1;
                continue;
            }
            let data = instr.accesses_memory();
            if data && checked != pc {
                if let Err(f) = bus.fetch_check(pc) {
                    break Some(StepOutcome::Fault(f));
                }
                checks += 1;
                checked = pc;
            }
            self.pc = pc;
            self.retired = base + i as u64;
            match self.execute(instr, bus) {
                StepOutcome::Retired => {}
                outcome => {
                    bus.fetch_hits(i as u64 + 1 - checks);
                    return (i as u64, Some(outcome));
                }
            }
            pc = self.pc;
            i += 1;
            if !data {
                continue;
            }
            if instr.is_store() && bus.text_epoch() != epoch {
                break None;
            }
            // The data access may have displaced the text page or
            // evicted it: check the next fetch in full.
            if i < code.len() {
                if let Err(f) = bus.fetch_check(pc) {
                    break Some(StepOutcome::Fault(f));
                }
                checks += 1;
                checked = pc;
            }
        };
        self.pc = pc;
        self.retired = base + i as u64;
        bus.fetch_hits(i as u64 - checks);
        (i as u64, fault)
    }

    /// Executes an already-decoded instruction.
    ///
    /// Exposed separately so tests and the linker's trampoline verifier can
    /// drive the CPU without a fetch path.
    pub fn execute<B: Bus>(&mut self, instr: Instr, bus: &mut B) -> StepOutcome {
        use Instr::*;
        let pc = self.pc;
        if let Some(next) = self.register_only(instr, pc) {
            self.pc = next;
            self.retired += 1;
            return StepOutcome::Retired;
        }
        let next = pc.wrapping_add(4);
        match instr {
            Div { rs, rt } => {
                let (n, d) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if d == 0 {
                    return StepOutcome::Fault(Fault::DivideByZero { addr: pc });
                }
                self.lo = n.wrapping_div(d) as u32;
                self.hi = n.wrapping_rem(d) as u32;
            }
            Divu { rs, rt } => {
                let (n, d) = (self.reg(rs), self.reg(rt));
                if d == 0 {
                    return StepOutcome::Fault(Fault::DivideByZero { addr: pc });
                }
                self.lo = n / d;
                self.hi = n % d;
            }
            Lb { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                match bus.load8(addr) {
                    Ok(v) => self.set_reg(rt, v as i8 as i32 as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lbu { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                match bus.load8(addr) {
                    Ok(v) => self.set_reg(rt, v as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lh { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load16(addr) {
                    Ok(v) => self.set_reg(rt, v as i16 as i32 as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lhu { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load16(addr) {
                    Ok(v) => self.set_reg(rt, v as u32),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Lw { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(4) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Read,
                    });
                }
                match bus.load32(addr) {
                    Ok(v) => self.set_reg(rt, v),
                    Err(f) => return StepOutcome::Fault(f),
                }
            }
            Sb { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if let Err(f) = bus.store8(addr, self.reg(rt) as u8) {
                    return StepOutcome::Fault(f);
                }
            }
            Sh { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(2) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Write,
                    });
                }
                if let Err(f) = bus.store16(addr, self.reg(rt) as u16) {
                    return StepOutcome::Fault(f);
                }
            }
            Sw { rt, rs, imm } => {
                let addr = self.reg(rs).wrapping_add(sext16(imm));
                if !addr.is_multiple_of(4) {
                    return StepOutcome::Fault(Fault::Unaligned {
                        addr,
                        access: Access::Write,
                    });
                }
                if let Err(f) = bus.store32(addr, self.reg(rt)) {
                    return StepOutcome::Fault(f);
                }
            }
            Syscall => {
                self.pc = next;
                self.retired += 1;
                return StepOutcome::Syscall;
            }
            Break { code } => {
                self.pc = next;
                self.retired += 1;
                return StepOutcome::Break(code);
            }
            _ => unreachable!("register-only instructions retired above"),
        }
        self.pc = next;
        self.retired += 1;
        StepOutcome::Retired
    }

    /// The meaning of every instruction that touches only the register
    /// file: ALU, shifts, `lui`, branches, jumps, `mult*` and `mf*`. It
    /// applies `instr`, executing at `pc`, and returns the next pc, or
    /// returns `None` and changes nothing for the instructions that can
    /// touch memory or trap (loads, stores, `div*`, `syscall`,
    /// `break`). This is the one definition of those instructions:
    /// [`Cpu::execute`] and [`Cpu::run_block`] both call it, and neither
    /// advances `pc` or `retired` here.
    #[inline(always)]
    fn register_only(&mut self, instr: Instr, pc: u32) -> Option<u32> {
        use Instr::*;
        let mut next = pc.wrapping_add(4);
        match instr {
            Add { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_add(self.reg(rt));
                self.set_reg(rd, v);
            }
            Sub { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_sub(self.reg(rt));
                self.set_reg(rd, v);
            }
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                let v = ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32;
                self.set_reg(rd, v);
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, (self.reg(rs) < self.reg(rt)) as u32),
            Sll { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) << shamt),
            Srl { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) >> shamt),
            Sra { rd, rt, shamt } => self.set_reg(rd, ((self.reg(rt) as i32) >> shamt) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                let v = ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32;
                self.set_reg(rd, v);
            }
            Mult { rs, rt } => {
                let p = (self.reg(rs) as i32 as i64) * (self.reg(rt) as i32 as i64);
                self.hi = (p >> 32) as u32;
                self.lo = p as u32;
            }
            Multu { rs, rt } => {
                let p = (self.reg(rs) as u64) * (self.reg(rt) as u64);
                self.hi = (p >> 32) as u32;
                self.lo = p as u32;
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Addi { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(sext16(imm))),
            Slti { rt, rs, imm } => {
                let v = ((self.reg(rs) as i32) < (sext16(imm) as i32)) as u32;
                self.set_reg(rt, v);
            }
            Sltiu { rt, rs, imm } => self.set_reg(rt, (self.reg(rs) < sext16(imm)) as u32),
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & imm as u32),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | imm as u32),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ imm as u32),
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Beq { rs, rt, imm } => {
                if self.reg(rs) == self.reg(rt) {
                    next = branch_target(pc, imm);
                }
            }
            Bne { rs, rt, imm } => {
                if self.reg(rs) != self.reg(rt) {
                    next = branch_target(pc, imm);
                }
            }
            Blez { rs, imm } => {
                if (self.reg(rs) as i32) <= 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bgtz { rs, imm } => {
                if (self.reg(rs) as i32) > 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bltz { rs, imm } => {
                if (self.reg(rs) as i32) < 0 {
                    next = branch_target(pc, imm);
                }
            }
            Bgez { rs, imm } => {
                if (self.reg(rs) as i32) >= 0 {
                    next = branch_target(pc, imm);
                }
            }
            J { target } => next = jump_target(pc, target),
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next = jump_target(pc, target);
            }
            Jr { rs } => next = self.reg(rs),
            Jalr { rd, rs } => {
                // Read rs before the link write so `jalr $ra, $ra` works.
                let dest = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next = dest;
            }
            Div { .. }
            | Divu { .. }
            | Lb { .. }
            | Lbu { .. }
            | Lh { .. }
            | Lhu { .. }
            | Lw { .. }
            | Sb { .. }
            | Sh { .. }
            | Sw { .. }
            | Syscall
            | Break { .. } => return None,
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::isa::strategy::any_instr;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A flat test bus: sparse byte map, everything readable/writable,
    /// with an optional set of pages that fault until "mapped".
    #[derive(Default)]
    struct TestBus {
        mem: HashMap<u32, u8>,
        hole: Option<(u32, u32)>,
    }

    impl TestBus {
        fn write_word(&mut self, addr: u32, word: u32) {
            for (i, b) in word.to_le_bytes().iter().enumerate() {
                self.mem.insert(addr + i as u32, *b);
            }
        }
        fn load_program(&mut self, base: u32, prog: &[Instr]) {
            for (i, instr) in prog.iter().enumerate() {
                self.write_word(base + 4 * i as u32, encode(*instr));
            }
        }
        fn in_hole(&self, addr: u32) -> bool {
            self.hole
                .map(|(lo, hi)| addr >= lo && addr < hi)
                .unwrap_or(false)
        }
    }

    impl Bus for TestBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.load32(addr)
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            if self.in_hole(addr) {
                return Err(Fault::Unmapped {
                    addr,
                    access: Access::Read,
                });
            }
            Ok(*self.mem.get(&addr).unwrap_or(&0))
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            Ok(u16::from_le_bytes([
                self.load8(addr)?,
                self.load8(addr + 1)?,
            ]))
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            Ok(u32::from_le_bytes([
                self.load8(addr)?,
                self.load8(addr + 1)?,
                self.load8(addr + 2)?,
                self.load8(addr + 3)?,
            ]))
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            if self.in_hole(addr) {
                return Err(Fault::Unmapped {
                    addr,
                    access: Access::Write,
                });
            }
            self.mem.insert(addr, val);
            Ok(())
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            let b = val.to_le_bytes();
            self.store8(addr, b[0])?;
            self.store8(addr + 1, b[1])
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            let b = val.to_le_bytes();
            for (i, byte) in b.iter().enumerate() {
                self.store8(addr + i as u32, *byte)?;
            }
            Ok(())
        }
    }

    fn run(prog: &[Instr]) -> (Cpu, TestBus) {
        let mut bus = TestBus::default();
        bus.load_program(0x1000, prog);
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        for _ in 0..prog.len() * 4 {
            match cpu.step(&mut bus) {
                StepOutcome::Retired => {}
                StepOutcome::Break(_) => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        (cpu, bus)
    }

    use Instr::*;

    #[test]
    fn arithmetic_and_immediates() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 100,
            },
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 0xFFF6,
            }, // -10
            Add {
                rd: Reg(10),
                rs: Reg(8),
                rt: Reg(9),
            },
            Sub {
                rd: Reg(11),
                rs: Reg(8),
                rt: Reg(9),
            },
            Slt {
                rd: Reg(12),
                rs: Reg(9),
                rt: Reg(8),
            },
            Sltu {
                rd: Reg(13),
                rs: Reg(9),
                rt: Reg(8),
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)), 90);
        assert_eq!(cpu.reg(Reg(11)), 110);
        assert_eq!(cpu.reg(Reg(12)), 1); // -10 < 100 signed
        assert_eq!(cpu.reg(Reg(13)), 0); // 0xFFFFFFF6 > 100 unsigned
    }

    #[test]
    fn lui_ori_materializes_address() {
        let (cpu, _) = run(&[
            Lui {
                rt: Reg(8),
                imm: 0x3000,
            },
            Ori {
                rt: Reg(8),
                rs: Reg(8),
                imm: 0x0042,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(8)), 0x3000_0042);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let (cpu, bus) = run(&[
            Lui {
                rt: Reg(8),
                imm: 0x0002,
            }, // base 0x20000
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 0xFFFF,
            }, // -1 = 0xFFFFFFFF
            Sw {
                rt: Reg(9),
                rs: Reg(8),
                imm: 0,
            },
            Lb {
                rt: Reg(10),
                rs: Reg(8),
                imm: 0,
            },
            Lbu {
                rt: Reg(11),
                rs: Reg(8),
                imm: 0,
            },
            Lh {
                rt: Reg(12),
                rs: Reg(8),
                imm: 0,
            },
            Lhu {
                rt: Reg(13),
                rs: Reg(8),
                imm: 0,
            },
            Sb {
                rt: Reg::ZERO,
                rs: Reg(8),
                imm: 1,
            },
            Lw {
                rt: Reg(14),
                rs: Reg(8),
                imm: 0,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(Reg(11)), 0xFF);
        assert_eq!(cpu.reg(Reg(12)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(Reg(13)), 0xFFFF);
        assert_eq!(cpu.reg(Reg(14)), 0xFFFF_00FF);
        assert_eq!(bus.mem[&0x20001], 0);
    }

    #[test]
    fn branches_taken_and_not() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 3,
            },
            // Loop: decrement until zero.
            Addi {
                rt: Reg(8),
                rs: Reg(8),
                imm: 0xFFFF,
            },
            Addi {
                rt: Reg(9),
                rs: Reg(9),
                imm: 1,
            },
            Bne {
                rs: Reg(8),
                rt: Reg::ZERO,
                imm: 0xFFFD,
            }, // back 3
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(9)), 3);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        // 0x1000: jal 0x1010; 0x1004: break; pad; 0x1010: jr ra.
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[
                Jal {
                    target: 0x1010 >> 2,
                },
                Break { code: 7 },
                Break { code: 99 },
                Break { code: 99 },
                Jr { rs: Reg::RA },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.pc, 0x1010);
        assert_eq!(cpu.reg(Reg::RA), 0x1004);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.pc, 0x1004);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Break(7));
    }

    #[test]
    fn fault_is_precise_and_restartable() {
        let mut bus = TestBus {
            hole: Some((0x3000_0000, 0x3000_1000)),
            ..Default::default()
        };
        bus.load_program(
            0x1000,
            &[
                Lui {
                    rt: Reg(8),
                    imm: 0x3000,
                },
                Lw {
                    rt: Reg(9),
                    rs: Reg(8),
                    imm: 0,
                },
                Break { code: 0 },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        let before = cpu.clone();
        // The load faults: PC unchanged, registers unchanged, not retired.
        let outcome = cpu.step(&mut bus);
        assert_eq!(
            outcome,
            StepOutcome::Fault(Fault::Unmapped {
                addr: 0x3000_0000,
                access: Access::Read
            })
        );
        assert_eq!(cpu, before);
        // "Map" the segment (fill the hole) and restart: now it retires.
        bus.hole = None;
        bus.write_word(0x3000_0000, 0xDEAD_BEEF);
        assert_eq!(cpu.step(&mut bus), StepOutcome::Retired);
        assert_eq!(cpu.reg(Reg(9)), 0xDEAD_BEEF);
    }

    #[test]
    fn divide_by_zero_faults_precisely() {
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[Div {
                rs: Reg(8),
                rt: Reg::ZERO,
            }],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(
            cpu.step(&mut bus),
            StepOutcome::Fault(Fault::DivideByZero { addr: 0x1000 })
        );
        assert_eq!(cpu.pc, 0x1000);
    }

    #[test]
    fn unaligned_word_access_faults() {
        let mut bus = TestBus::default();
        bus.load_program(
            0x1000,
            &[
                Addi {
                    rt: Reg(8),
                    rs: Reg::ZERO,
                    imm: 0x2001,
                },
                Lw {
                    rt: Reg(9),
                    rs: Reg(8),
                    imm: 0,
                },
            ],
        );
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        cpu.step(&mut bus);
        assert_eq!(
            cpu.step(&mut bus),
            StepOutcome::Fault(Fault::Unaligned {
                addr: 0x2001,
                access: Access::Read
            })
        );
    }

    #[test]
    fn syscall_advances_pc() {
        let mut bus = TestBus::default();
        bus.load_program(0x1000, &[Syscall]);
        let mut cpu = Cpu::new();
        cpu.pc = 0x1000;
        assert_eq!(cpu.step(&mut bus), StepOutcome::Syscall);
        assert_eq!(cpu.pc, 0x1004);
    }

    #[test]
    fn mult_div_results() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 0xFFFA,
            }, // -6
            Addi {
                rt: Reg(9),
                rs: Reg::ZERO,
                imm: 7,
            },
            Mult {
                rs: Reg(8),
                rt: Reg(9),
            },
            Mflo { rd: Reg(10) },
            Mfhi { rd: Reg(11) },
            Div {
                rs: Reg(8),
                rt: Reg(9),
            },
            Mflo { rd: Reg(12) },
            Mfhi { rd: Reg(13) },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(10)) as i32, -42);
        assert_eq!(cpu.reg(Reg(11)) as i32, -1); // sign extension of the product
        assert_eq!(cpu.reg(Reg(12)) as i32, 0);
        assert_eq!(cpu.reg(Reg(13)) as i32, -6);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg::ZERO,
                rs: Reg::ZERO,
                imm: 5,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn shifts() {
        let (cpu, _) = run(&[
            Addi {
                rt: Reg(8),
                rs: Reg::ZERO,
                imm: 0xFFF0,
            }, // 0xFFFFFFF0
            Sll {
                rd: Reg(9),
                rt: Reg(8),
                shamt: 4,
            },
            Srl {
                rd: Reg(10),
                rt: Reg(8),
                shamt: 4,
            },
            Sra {
                rd: Reg(11),
                rt: Reg(8),
                shamt: 4,
            },
            Break { code: 0 },
        ]);
        assert_eq!(cpu.reg(Reg(9)), 0xFFFF_FF00);
        assert_eq!(cpu.reg(Reg(10)), 0x0FFF_FFFF);
        assert_eq!(cpu.reg(Reg(11)), 0xFFFF_FFFF);
    }

    const TEXT: u32 = 0x1000;
    const PAGE: u32 = 0x1000;

    /// A [`TestBus`] that records how the CPU drives it, and whose text
    /// epoch moves on every store that lands in the text page.
    #[derive(Default)]
    struct RecordingBus {
        flat: TestBus,
        /// The pc of the last `fetch` or `fetch_check`: the pc a monitor
        /// would attribute a data access to.
        pc: u32,
        fetches: u64,
        /// The pc of every `fetch_check`, in order.
        checked: Vec<u32>,
        hits: u64,
        /// Every data access attempted: `(attributed pc, address, store)`.
        accesses: Vec<(u32, u32, bool)>,
        epoch: u64,
    }

    impl RecordingBus {
        fn saw(&mut self, addr: u32, store: bool) {
            self.accesses.push((self.pc, addr, store));
        }
        fn stored(&mut self, addr: u32, r: Result<(), Fault>) -> Result<(), Fault> {
            if r.is_ok() && (TEXT..TEXT + PAGE).contains(&addr) {
                self.epoch += 1;
            }
            r
        }
    }

    impl Bus for RecordingBus {
        fn fetch(&mut self, addr: u32) -> Result<u32, Fault> {
            self.pc = addr;
            self.fetches += 1;
            self.flat.fetch(addr)
        }
        fn fetch_check(&mut self, addr: u32) -> Result<(), Fault> {
            self.pc = addr;
            self.checked.push(addr);
            self.flat.fetch(addr).map(|_| ())
        }
        fn fetch_hits(&mut self, n: u64) {
            self.hits += n;
        }
        fn text_epoch(&mut self) -> u64 {
            self.epoch
        }
        fn load8(&mut self, addr: u32) -> Result<u8, Fault> {
            self.saw(addr, false);
            self.flat.load8(addr)
        }
        fn load16(&mut self, addr: u32) -> Result<u16, Fault> {
            self.saw(addr, false);
            self.flat.load16(addr)
        }
        fn load32(&mut self, addr: u32) -> Result<u32, Fault> {
            self.saw(addr, false);
            self.flat.load32(addr)
        }
        fn store8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
            self.saw(addr, true);
            let r = self.flat.store8(addr, val);
            self.stored(addr, r)
        }
        fn store16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
            self.saw(addr, true);
            let r = self.flat.store16(addr, val);
            self.stored(addr, r)
        }
        fn store32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
            self.saw(addr, true);
            let r = self.flat.store32(addr, val);
            self.stored(addr, r)
        }
    }

    /// A straight-line block from [`any_instr`]: register-only
    /// instructions, `div*`, loads and stores, then one terminator. Half
    /// the loads and stores get a word-aligned displacement, so blocks
    /// often run past them.
    fn block() -> impl Strategy<Value = Vec<Instr>> {
        use crate::bbcache::is_terminator;
        let body = any_instr().prop_filter("straight-line", |i| !is_terminator(i));
        let end = any_instr().prop_filter("terminator", is_terminator);
        let body = (body, any::<bool>()).prop_map(|(i, align)| if align { aligned(i) } else { i });
        (proptest::collection::vec(body, 0..24), end).prop_map(|(mut code, end)| {
            code.push(end);
            code
        })
    }

    /// `instr` with its memory displacement rounded down to a word.
    fn aligned(instr: Instr) -> Instr {
        let a = |imm: u16| imm & !3;
        match instr {
            Lb { rt, rs, imm } => Lb {
                rt,
                rs,
                imm: a(imm),
            },
            Lbu { rt, rs, imm } => Lbu {
                rt,
                rs,
                imm: a(imm),
            },
            Lh { rt, rs, imm } => Lh {
                rt,
                rs,
                imm: a(imm),
            },
            Lhu { rt, rs, imm } => Lhu {
                rt,
                rs,
                imm: a(imm),
            },
            Lw { rt, rs, imm } => Lw {
                rt,
                rs,
                imm: a(imm),
            },
            Sb { rt, rs, imm } => Sb {
                rt,
                rs,
                imm: a(imm),
            },
            Sh { rt, rs, imm } => Sh {
                rt,
                rs,
                imm: a(imm),
            },
            Sw { rt, rs, imm } => Sw {
                rt,
                rs,
                imm: a(imm),
            },
            other => other,
        }
    }

    /// Register values that send loads and stores into the hole, the
    /// text page (moving the text epoch), plain memory, or anywhere at
    /// all, and make `div*` fault now and then.
    fn reg_value() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..4,
            (TEXT - 16..TEXT + 2 * PAGE).prop_map(|v| v & !3),
            (0x3000u32..0x5000).prop_map(|v| v & !3),
            any::<u32>(),
        ]
    }

    /// What `run_block` must equal: `step` until the budget, the end of
    /// the block, a non-retiring outcome, or a store that moved the
    /// text epoch.
    fn step_reference(
        cpu: &mut Cpu,
        bus: &mut RecordingBus,
        len: usize,
        max: u64,
    ) -> (u64, Option<StepOutcome>) {
        let epoch = bus.epoch;
        let mut ran = 0u64;
        while ran < max && (ran as usize) < len {
            match cpu.step(bus) {
                StepOutcome::Retired => ran += 1,
                outcome => return (ran, Some(outcome)),
            }
            if bus.epoch != epoch {
                break;
            }
        }
        (ran, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `run_block` is `step` repeated: the same `Cpu` (registers,
        /// hi/lo, pc, retired), outcome, retired count, memory and data
        /// accesses, each attributed to its own instruction's pc. It
        /// checks in full exactly the fetches the `Bus` contract names,
        /// and those plus its bulk hits are the instructions `step`
        /// fetched.
        #[test]
        fn run_block_matches_repeated_step(
            code in block(),
            regs in proptest::collection::vec(reg_value(), 32..33),
            max in 0u64..28,
        ) {
            let mut bus = RecordingBus::default();
            bus.flat.hole = Some((0x4000, 0x5000));
            bus.flat.load_program(TEXT, &code);
            let mut cpu = Cpu::new();
            cpu.pc = TEXT;
            for (i, v) in regs.iter().enumerate() {
                cpu.set_reg(Reg(i as u8), *v);
            }
            let (mut cpu_b, mut bus_b) = (cpu.clone(), RecordingBus::default());
            bus_b.flat.mem = bus.flat.mem.clone();
            bus_b.flat.hole = bus.flat.hole;

            let got = cpu.run_block(&mut bus, &code, max);
            let want = step_reference(&mut cpu_b, &mut bus_b, code.len(), max);
            prop_assert_eq!(got, want);
            prop_assert_eq!(&cpu, &cpu_b);
            prop_assert_eq!(&bus.accesses, &bus_b.accesses);
            prop_assert!(bus.flat.mem == bus_b.flat.mem, "memory differs");
            prop_assert_eq!(bus.fetches, 0, "run_block fetches no bytes");
            let fetched = want.0 + u64::from(want.1.is_some());
            prop_assert_eq!(bus_b.fetches, fetched);
            prop_assert_eq!(bus.checked.len() as u64 + bus.hits, fetched);
            let contract: Vec<u32> = (0..fetched as usize)
                .filter(|&i| {
                    i == 0 || code[i].accesses_memory() || code[i - 1].accesses_memory()
                })
                .map(|i| TEXT + 4 * i as u32)
                .collect();
            prop_assert_eq!(&bus.checked, &contract);
            for &(pc, addr, _) in &bus_b.accesses {
                let at = ((pc - TEXT) / 4) as usize;
                prop_assert!(code[at].accesses_memory(), "{:#x} from {:?}", addr, code[at]);
            }
        }
    }
}
