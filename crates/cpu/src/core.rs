//! The processor core: architectural state and one-instruction stepping.

use std::fmt;

use crate::isa::{AluOp, BranchCond, DecodeError, Instr, IsaKind, Reg};
use crate::memory::{MemError, Memory};

/// An error raised while executing an instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CpuError {
    /// Instruction fetch or data access failed.
    Mem(MemError),
    /// The fetched word is not a valid instruction.
    Decode(DecodeError),
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Mem(e) => write!(f, "{e}"),
            CpuError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CpuError {}

impl From<MemError> for CpuError {
    fn from(e: MemError) -> Self {
        CpuError::Mem(e)
    }
}

impl From<DecodeError> for CpuError {
    fn from(e: DecodeError) -> Self {
        CpuError::Decode(e)
    }
}

/// What one step did.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// An instruction executed; the core is still running.
    Executed(Instr),
    /// A `halt` executed (or the core was already halted).
    Halted,
}

/// Architectural state of the core.
///
/// # Examples
///
/// ```
/// use sctc_cpu::{Cpu, Instr, Memory, Reg, StepOutcome};
///
/// let mut mem = Memory::new(64);
/// mem.load_image(0, &[
///     Instr::Addi(Reg::new(1), Reg::ZERO, 7).encode(),
///     Instr::Halt.encode(),
/// ]);
/// let mut cpu = Cpu::new(0);
/// cpu.step(&mut mem)?;
/// assert_eq!(cpu.reg(Reg::new(1)), 7);
/// assert_eq!(cpu.step(&mut mem)?, StepOutcome::Halted);
/// # Ok::<(), sctc_cpu::CpuError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cpu {
    regs: [u32; 16],
    pc: u32,
    halted: bool,
    retired: u64,
    isa: IsaKind,
}

impl Cpu {
    /// Creates a core with all registers zero and the given reset PC,
    /// executing the default [`IsaKind::Word32`] encoding.
    pub fn new(reset_pc: u32) -> Self {
        Cpu::with_isa(reset_pc, IsaKind::Word32)
    }

    /// Creates a core executing the given instruction encoding.
    pub fn with_isa(reset_pc: u32, isa: IsaKind) -> Self {
        Cpu {
            regs: [0; 16],
            pc: reset_pc,
            halted: false,
            retired: 0,
            isa,
        }
    }

    /// The instruction encoding this core executes.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Returns a register value (`r0` always reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Sets a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Returns the program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Returns `true` once a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Returns the number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    fn alu(op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    fn branch_taken(cond: BranchCond, a: u32, b: u32) -> bool {
        match cond {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// Fetches, decodes and executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on fetch/decode/data-access faults; the core
    /// state is left at the faulting instruction.
    pub fn step(&mut self, mem: &mut Memory) -> Result<StepOutcome, CpuError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let (instr, size) = match self.isa {
            IsaKind::Word32 => {
                let word = mem.read_u32(self.pc)?;
                (Instr::decode(word)?, 4)
            }
            IsaKind::Comp16 => {
                let lo = mem.read_u16(self.pc)?;
                let ext = Instr::c16_ext(lo)?;
                let hi = if ext {
                    mem.read_u16(self.pc.wrapping_add(2))?
                } else {
                    0
                };
                (Instr::decode_c16(lo, hi)?, if ext { 4 } else { 2 })
            }
        };
        let unit = self.isa.offset_unit() as i32;
        let mut next_pc = self.pc.wrapping_add(size);
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                self.retired += 1;
                return Ok(StepOutcome::Halted);
            }
            Instr::Alu(op, rd, rs1, rs2) => {
                let v = Self::alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::Addi(rd, rs1, imm) => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as i32 as u32));
            }
            Instr::Andi(rd, rs1, imm) => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Instr::Ori(rd, rs1, imm) => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Instr::Xori(rd, rs1, imm) => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Instr::Sltiu(rd, rs1, imm) => {
                self.set_reg(rd, u32::from(self.reg(rs1) < imm as u32));
            }
            Instr::Lui(rd, imm) => self.set_reg(rd, (imm as u32) << 16),
            Instr::Lw(rd, rs1, imm) => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                let v = mem.read_u32(addr)?;
                self.set_reg(rd, v);
            }
            Instr::Sw(rs2, rs1, imm) => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                mem.write_u32(addr, self.reg(rs2))?;
            }
            Instr::Branch(cond, rs1, rs2, offset) => {
                if Self::branch_taken(cond, self.reg(rs1), self.reg(rs2)) {
                    next_pc = self.pc.wrapping_add((offset as i32 * unit) as u32);
                }
            }
            Instr::Jal(rd, offset) => {
                self.set_reg(rd, self.pc.wrapping_add(size));
                next_pc = self.pc.wrapping_add((offset as i32 * unit) as u32);
            }
            Instr::Jalr(rd, rs1, imm) => {
                let target = self.reg(rs1).wrapping_add(imm as i32 as u32);
                self.set_reg(rd, self.pc.wrapping_add(size));
                next_pc = target;
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(StepOutcome::Executed(instr))
    }

    /// Runs until halt or at most `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// See [`Cpu::step`].
    pub fn run(&mut self, mem: &mut Memory, max_steps: u64) -> Result<StepOutcome, CpuError> {
        for _ in 0..max_steps {
            if let StepOutcome::Halted = self.step(mem)? {
                return Ok(StepOutcome::Halted);
            }
        }
        Ok(StepOutcome::Executed(Instr::Nop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_program(words: &[u32]) -> (Cpu, Memory) {
        let mut mem = Memory::new(4096);
        mem.load_image(0, words);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, 10_000).unwrap();
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_immediates() {
        let r = Reg::new;
        let (cpu, _) = run_program(&[
            Instr::Addi(r(1), Reg::ZERO, 6).encode(),
            Instr::Addi(r(2), Reg::ZERO, 7).encode(),
            Instr::Alu(AluOp::Mul, r(3), r(1), r(2)).encode(),
            Instr::Alu(AluOp::Sub, r(4), r(3), r(1)).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(3)), 42);
        assert_eq!(cpu.reg(Reg::new(4)), 36);
        assert!(cpu.is_halted());
        assert_eq!(cpu.retired(), 5);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, _) = run_program(&[
            Instr::Addi(Reg::ZERO, Reg::ZERO, 99).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores() {
        let r = Reg::new;
        let (cpu, mut mem) = run_program(&[
            Instr::Addi(r(1), Reg::ZERO, 0x100).encode(),
            Instr::Addi(r(2), Reg::ZERO, -1).encode(),
            Instr::Sw(r(2), r(1), 4).encode(),
            Instr::Lw(r(3), r(1), 4).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(3)), u32::MAX);
        assert_eq!(mem.read_u32(0x104).unwrap(), u32::MAX);
    }

    #[test]
    fn branch_loop_counts_down() {
        let r = Reg::new;
        // r1 = 5; loop: r2 += 2; r1 -= 1; bne r1, r0, loop; halt
        let (cpu, _) = run_program(&[
            Instr::Addi(r(1), Reg::ZERO, 5).encode(),
            Instr::Addi(r(2), r(2), 2).encode(),
            Instr::Addi(r(1), r(1), -1).encode(),
            Instr::Branch(BranchCond::Ne, r(1), Reg::ZERO, -2).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(2)), 10);
    }

    #[test]
    fn jal_and_jalr_implement_calls() {
        let r = Reg::new;
        // 0: jal ra, +3  (to 12)
        // 4: addi r1, r1, 1   (returned here)
        // 8: halt
        // 12: addi r2, r0, 9  (subroutine)
        // 16: jalr r0, ra, 0
        let (cpu, _) = run_program(&[
            Instr::Jal(Reg::RA, 3).encode(),
            Instr::Addi(r(1), r(1), 1).encode(),
            Instr::Halt.encode(),
            Instr::Addi(r(2), Reg::ZERO, 9).encode(),
            Instr::Jalr(Reg::ZERO, Reg::RA, 0).encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(2)), 9);
        assert_eq!(cpu.reg(Reg::new(1)), 1);
    }

    #[test]
    fn division_by_zero_follows_riscv_convention() {
        let r = Reg::new;
        let (cpu, _) = run_program(&[
            Instr::Addi(r(1), Reg::ZERO, 10).encode(),
            Instr::Alu(AluOp::Div, r(2), r(1), Reg::ZERO).encode(),
            Instr::Alu(AluOp::Rem, r(3), r(1), Reg::ZERO).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(2)), u32::MAX);
        assert_eq!(cpu.reg(Reg::new(3)), 10);
    }

    #[test]
    fn signed_comparisons() {
        let r = Reg::new;
        let (cpu, _) = run_program(&[
            Instr::Addi(r(1), Reg::ZERO, -5).encode(),
            Instr::Addi(r(2), Reg::ZERO, 3).encode(),
            Instr::Alu(AluOp::Slt, r(3), r(1), r(2)).encode(),
            Instr::Alu(AluOp::Sltu, r(4), r(1), r(2)).encode(),
            Instr::Halt.encode(),
        ]);
        assert_eq!(cpu.reg(Reg::new(3)), 1); // -5 < 3 signed
        assert_eq!(cpu.reg(Reg::new(4)), 0); // 0xfff..b >= 3 unsigned
    }

    #[test]
    fn fetch_fault_is_reported() {
        let mut mem = Memory::new(8);
        mem.load_image(0, &[Instr::Nop.encode(), Instr::Nop.encode()]);
        let mut cpu = Cpu::new(0);
        cpu.step(&mut mem).unwrap();
        cpu.step(&mut mem).unwrap();
        let err = cpu.step(&mut mem).unwrap_err();
        assert!(matches!(err, CpuError::Mem(MemError::Unmapped { addr: 8 })));
    }

    #[test]
    fn halted_core_stays_halted() {
        let (mut cpu, mut mem) = run_program(&[Instr::Halt.encode()]);
        assert_eq!(cpu.step(&mut mem).unwrap(), StepOutcome::Halted);
        assert_eq!(cpu.retired(), 1);
    }

    /// Runs the same instruction list under both encodings and checks the
    /// final register files agree.
    fn run_both_isas(code: &[Instr]) -> (Cpu, Cpu) {
        let mut mem32 = Memory::new(4096);
        mem32.load_image(0, &IsaKind::Word32.encode_program(code));
        let mut cpu32 = Cpu::new(0);
        cpu32.run(&mut mem32, 10_000).unwrap();

        let mut mem16 = Memory::new(4096);
        mem16.load_image(0, &IsaKind::Comp16.encode_program(code));
        let mut cpu16 = Cpu::with_isa(0, IsaKind::Comp16);
        cpu16.run(&mut mem16, 10_000).unwrap();
        (cpu32, cpu16)
    }

    #[test]
    fn comp16_executes_the_branch_loop_identically() {
        let r = Reg::new;
        let code = [
            Instr::Addi(r(1), Reg::ZERO, 5),
            Instr::Nop, // compact (1 halfword): exercises offset rewriting
            Instr::Addi(r(2), r(2), 2),
            Instr::Addi(r(1), r(1), -1),
            Instr::Branch(BranchCond::Ne, r(1), Reg::ZERO, -3),
            Instr::Halt,
        ];
        let (cpu32, cpu16) = run_both_isas(&code);
        assert!(cpu16.is_halted());
        assert_eq!(cpu16.reg(Reg::new(2)), 10);
        assert_eq!(cpu32.retired(), cpu16.retired());
        for i in 0..16 {
            assert_eq!(cpu32.reg(Reg::new(i)), cpu16.reg(Reg::new(i)), "r{i}");
        }
    }

    #[test]
    fn comp16_calls_link_to_byte_addresses() {
        let r = Reg::new;
        // jal ra, sub ; addi r1,r1,1 ; halt ; sub: addi r2,r0,9 ; jalr r0,ra,0
        let code = [
            Instr::Jal(Reg::RA, 3),
            Instr::Addi(r(1), r(1), 1),
            Instr::Halt,
            Instr::Addi(r(2), Reg::ZERO, 9),
            Instr::Jalr(Reg::ZERO, Reg::RA, 0),
        ];
        let (cpu32, cpu16) = run_both_isas(&code);
        assert_eq!(cpu16.reg(Reg::new(2)), 9);
        assert_eq!(cpu16.reg(Reg::new(1)), 1);
        assert_eq!(cpu32.reg(Reg::new(1)), cpu16.reg(Reg::new(1)));
    }

    #[test]
    fn comp16_invalid_opcode_is_a_decode_fault_not_a_panic() {
        let mut mem = Memory::new(64);
        // Opcode 0x60 is undescribed; halfword 0x60 << 9.
        mem.load_image(0, &[(0x60u32) << 9]);
        let mut cpu = Cpu::with_isa(0, IsaKind::Comp16);
        let err = cpu.step(&mut mem).unwrap_err();
        assert!(matches!(err, CpuError::Decode(_)));
    }
}
