//! Decoding of H32 instruction words.

use crate::encode::*;
use crate::isa::Instr;
use crate::regs::Reg;

/// A word that does not correspond to any H32 instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable instruction word.
    pub word: u32,
}

/// Decodes a 32-bit word into an instruction.
///
/// `decode(encode(i)) == Ok(i)` holds for every well-formed `Instr` (see
/// the property test in this module).
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    use Instr::*;
    let op = word >> 26;
    let rs = Reg::from_field(word >> 21);
    let rt = Reg::from_field(word >> 16);
    let rd = Reg::from_field(word >> 11);
    let shamt = ((word >> 6) & 31) as u8;
    let imm = (word & 0xFFFF) as u16;
    let target = word & 0x03FF_FFFF;
    let err = Err(DecodeError { word });

    Ok(match op {
        OP_SPECIAL => match word & 0x3F {
            FN_SLL => Sll { rd, rt, shamt },
            FN_SRL => Srl { rd, rt, shamt },
            FN_SRA => Sra { rd, rt, shamt },
            FN_SLLV => Sllv { rd, rt, rs },
            FN_SRLV => Srlv { rd, rt, rs },
            FN_SRAV => Srav { rd, rt, rs },
            FN_JR => Jr { rs },
            FN_JALR => Jalr { rd, rs },
            FN_SYSCALL => Syscall,
            FN_BREAK => Break {
                code: (word >> 6) & 0xF_FFFF,
            },
            FN_MFHI => Mfhi { rd },
            FN_MFLO => Mflo { rd },
            FN_MULT => Mult { rs, rt },
            FN_MULTU => Multu { rs, rt },
            FN_DIV => Div { rs, rt },
            FN_DIVU => Divu { rs, rt },
            FN_ADD => Add { rd, rs, rt },
            FN_SUB => Sub { rd, rs, rt },
            FN_AND => And { rd, rs, rt },
            FN_OR => Or { rd, rs, rt },
            FN_XOR => Xor { rd, rs, rt },
            FN_NOR => Nor { rd, rs, rt },
            FN_SLT => Slt { rd, rs, rt },
            FN_SLTU => Sltu { rd, rs, rt },
            _ => return err,
        },
        OP_REGIMM => match rt.index() as u32 {
            RI_BLTZ => Bltz { rs, imm },
            RI_BGEZ => Bgez { rs, imm },
            _ => return err,
        },
        OP_J => J { target },
        OP_JAL => Jal { target },
        OP_BEQ => Beq { rs, rt, imm },
        OP_BNE => Bne { rs, rt, imm },
        OP_BLEZ => Blez { rs, imm },
        OP_BGTZ => Bgtz { rs, imm },
        OP_ADDI => Addi { rt, rs, imm },
        OP_SLTI => Slti { rt, rs, imm },
        OP_SLTIU => Sltiu { rt, rs, imm },
        OP_ANDI => Andi { rt, rs, imm },
        OP_ORI => Ori { rt, rs, imm },
        OP_XORI => Xori { rt, rs, imm },
        OP_LUI => Lui { rt, imm },
        OP_LB => Lb { rt, rs, imm },
        OP_LH => Lh { rt, rs, imm },
        OP_LW => Lw { rt, rs, imm },
        OP_LBU => Lbu { rt, rs, imm },
        OP_LHU => Lhu { rt, rs, imm },
        OP_SB => Sb { rt, rs, imm },
        OP_SH => Sh { rt, rs, imm },
        OP_SW => Sw { rt, rs, imm },
        _ => return err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::isa::strategy::any_instr;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn encode_decode_round_trip(i in any_instr()) {
            prop_assert_eq!(decode(encode(i)), Ok(i));
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        // Opcode 63 is unassigned.
        assert!(decode(63 << 26).is_err());
        // SPECIAL funct 1 is unassigned.
        assert!(decode(1).is_err());
        // REGIMM rt=5 is unassigned.
        assert!(decode((1 << 26) | (5 << 16)).is_err());
    }
}
