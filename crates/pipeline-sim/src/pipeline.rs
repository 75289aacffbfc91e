//! One logical pipeline: architectural state plus timing annotations.

use crate::cache::{Cache, MemoryHierarchy};
use crate::predictor::BranchPredictor;
use crate::stage::FaultEffect;
use crate::trace::{input_signature, StageRecord};
use crate::SimError;
use r2d3_isa::{Instruction, IsaError, Program, Reg, Unit};

/// Timing constants for the in-order core (single-issue, Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Redirect penalty of a taken branch/jump (cycles).
    pub branch_penalty: u64,
    /// Extra cycles of an FFU operation beyond the base cycle.
    pub ffu_extra: u64,
    /// Extra cycles of a trap beyond the base cycle.
    pub tlu_extra: u64,
    /// Load-to-use interlock penalty.
    pub load_use_penalty: u64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams { branch_penalty: 2, ffu_extra: 2, tlu_extra: 3, load_use_penalty: 1 }
    }
}

/// Outcome of stepping one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles the instruction occupied the pipeline.
    pub cycles: u64,
    /// The retired instruction (post-IFU-corruption decode).
    pub instruction: Instruction,
}

/// Per-step side-channel the system provides: which fault effect (if any)
/// applies to each unit of this pipeline, including one-shot transients.
pub(crate) struct StageEffects {
    /// Permanent effect per unit (fabric-resolved).
    pub permanent: [Option<FaultEffect>; 5],
    /// One-shot transient per unit; consumed by the step.
    pub transient: [Option<FaultEffect>; 5],
}

impl StageEffects {
    pub(crate) fn none() -> Self {
        StageEffects { permanent: [None; 5], transient: [None; 5] }
    }

    fn apply(&mut self, unit: Unit, golden: u32) -> u32 {
        let mut v = golden;
        if let Some(e) = self.permanent[unit.index()] {
            v = e.apply(v);
        }
        if let Some(e) = self.transient[unit.index()].take() {
            v = e.apply(v);
        }
        v
    }
}

/// A committed architectural snapshot of one pipeline (program counter,
/// register file, data memory, retirement count).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCheckpoint {
    pc: u32,
    regs: [u32; 32],
    mem: Vec<u32>,
    halted: bool,
    retired: u64,
}

impl PipelineCheckpoint {
    /// Instructions retired at commit time.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Digest over the full architectural payload (pc, registers, memory,
    /// halt flag, retirement count), one word per step:
    /// `h = (h ^ w) * P` with FNV-1a-64's basis and odd prime `P`.
    ///
    /// For a fixed `h` a step is injective in `w`, and for fixed words it
    /// is a bijection of `h`, so changing any one payload word — a single
    /// flipped bit included — always changes the digest. That is what
    /// the checkpoint store's integrity check needs. Digests live only in
    /// memory: they are never persisted or reported.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x100_0000_01b3);
        mix(u64::from(self.pc));
        for r in &self.regs {
            mix(u64::from(*r));
        }
        for w in &self.mem {
            mix(u64::from(*w));
        }
        mix(u64::from(self.halted));
        mix(self.retired);
        h
    }

    /// Flips one seed-selected bit of the snapshot's payload — the
    /// fault-injection model for checkpoint storage rot (campaign
    /// harness ground truth; never called by the engine itself).
    pub fn corrupt_bit(&mut self, seed: u64) {
        let words = 1 + 32 + self.mem.len();
        let target = (seed as usize) % words;
        let bit = ((seed >> 32) % 32) as u32;
        match target {
            0 => self.pc ^= 1 << bit,
            t if t <= 32 => self.regs[t - 1] ^= 1 << bit,
            t => self.mem[t - 33] ^= 1 << bit,
        }
    }
}

/// One text-segment slot as fetch sees it, encoded and decoded once when
/// the program loads.
#[derive(Debug, Clone)]
enum TextSlot {
    /// The golden instruction word and its decode, which a fetch reuses
    /// whenever the IFU delivers the word unchanged.
    Word(u32, Result<Instruction, IsaError>),
    /// The instruction has no encoding: fetching it is an ISA error.
    Unencodable(IsaError),
}

impl TextSlot {
    fn new(instr: Instruction) -> Self {
        match r2d3_isa::encode::encode(instr) {
            Ok(word) => TextSlot::Word(word, r2d3_isa::encode::decode(word)),
            Err(e) => TextSlot::Unencodable(e),
        }
    }
}

/// A logical pipeline: ISA state, private L1 caches and timing counters.
///
/// The pipeline is *logical* — which physical stages execute its five
/// unit roles is decided by the [`crate::fabric::Fabric`]; this struct
/// receives the resolved fault effects from the system on every step.
#[derive(Debug, Clone)]
pub struct LogicalPipeline {
    id: usize,
    program: Option<Program>,
    /// The loaded program's text, predecoded.
    text: Vec<TextSlot>,
    pc: u32,
    regs: [u32; 32],
    mem: Vec<u32>,
    halted: bool,
    crashed: bool,
    /// Set once any corrupted value entered the architectural state.
    tainted: bool,
    cycle: u64,
    active_cycles: u64,
    retired: u64,
    l1i: Cache,
    l1d: Cache,
    predictor: BranchPredictor,
    timing: TimingParams,
    last_load_dest: Option<Reg>,
}

impl LogicalPipeline {
    /// Creates an idle pipeline with the given cache hierarchy.
    #[must_use]
    pub fn new(id: usize, hierarchy: &MemoryHierarchy, timing: TimingParams) -> Self {
        LogicalPipeline {
            id,
            program: None,
            text: Vec::new(),
            pc: 0,
            regs: [0; 32],
            mem: Vec::new(),
            halted: true,
            crashed: false,
            tainted: false,
            cycle: 0,
            active_cycles: 0,
            retired: 0,
            l1i: Cache::new(hierarchy.l1i),
            l1d: Cache::new(hierarchy.l1d),
            predictor: BranchPredictor::default(),
            timing,
            last_load_dest: None,
        }
    }

    /// Loads a program and resets all architectural and timing state.
    pub fn load(&mut self, program: Program) {
        self.mem = program.initial_memory();
        self.text = program.text().iter().map(|&i| TextSlot::new(i)).collect();
        self.program = Some(program);
        self.restart();
    }

    /// Restarts the loaded program from the beginning (the paper's
    /// post-repair recovery re-executes "starting either from a
    /// checkpoint or the beginning").
    pub fn restart(&mut self) {
        self.pc = 0;
        self.regs = [0; 32];
        if let Some(p) = &self.program {
            self.mem = p.initial_memory();
            self.halted = false;
        } else {
            self.halted = true;
        }
        self.crashed = false;
        self.tainted = false;
        self.retired = 0;
        self.active_cycles = 0;
        self.last_load_dest = None;
        // Caches and the cycle counter persist: physical state survives a
        // software restart.
    }

    /// Pipeline index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether a `Halt` retired.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether corrupted execution wedged the pipeline (bad fetch, wild
    /// jump, out-of-range access).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Whether any fault effect has reached architectural state.
    #[must_use]
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Marks architectural state as fault-corrupted from outside the
    /// pipeline — the system calls this when the vertical interconnect
    /// corrupts a value this pipeline consumed in flight.
    pub fn mark_tainted(&mut self) {
        self.tainted = true;
    }

    /// Local cycle counter.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Retired instruction count.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles spent actually executing (excludes idle time after a halt
    /// or while the pipeline was incomplete).
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Instructions per *active* cycle since the last load/reset.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.active_cycles as f64
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Register read (R0 is hardwired zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// The data memory image.
    #[must_use]
    pub fn memory(&self) -> &[u32] {
        &self.mem
    }

    /// L1 D-cache statistics handle.
    #[must_use]
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// L1 I-cache statistics handle.
    #[must_use]
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// Branch-predictor statistics handle.
    #[must_use]
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Whether the pipeline can execute (loaded, not halted/crashed).
    #[must_use]
    pub fn runnable(&self) -> bool {
        self.program.is_some() && !self.halted && !self.crashed
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Advances the local clock without executing (idle pipeline).
    pub(crate) fn idle_to(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }

    /// Captures the architectural state (the paper's checkpointing
    /// mechanism commits these at validated epoch boundaries).
    #[must_use]
    pub fn checkpoint(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            pc: self.pc,
            regs: self.regs,
            mem: self.mem.clone(),
            halted: self.halted,
            retired: self.retired,
        }
    }

    /// Restores architectural state from a checkpoint. Physical state
    /// (cycle counter, caches) persists — recovery costs wall-clock time
    /// but does not rewind it.
    pub fn restore(&mut self, cp: &PipelineCheckpoint) {
        self.pc = cp.pc;
        self.regs = cp.regs;
        self.mem = cp.mem.clone();
        self.halted = cp.halted;
        self.retired = cp.retired;
        self.crashed = false;
        self.tainted = false;
        self.last_load_dest = None;
    }

    /// Executes one instruction under the given stage effects.
    ///
    /// `l2` is the shared second-level cache; `record` receives one trace
    /// record per exercised unit; `busy` receives per-unit busy cycles.
    pub(crate) fn step(
        &mut self,
        effects: &mut StageEffects,
        l2: &mut Cache,
        hierarchy: &MemoryHierarchy,
        mut record: impl FnMut(Unit, StageRecord),
        mut busy: impl FnMut(Unit, u64),
    ) -> Result<StepOutcome, SimError> {
        debug_assert!(self.runnable(), "step called on a non-runnable pipeline");

        let had_effect = effects.permanent.iter().any(Option::is_some)
            || effects.transient.iter().any(Option::is_some);
        let wedge = |this: &mut Self, e: IsaError| -> Result<StepOutcome, SimError> {
            if this.tainted || had_effect {
                // Corruption took the pipeline off the rails: that is a
                // behavior (a crash), not a simulator error.
                this.crashed = true;
                this.cycle += 1;
                this.active_cycles += 1;
                Ok(StepOutcome { cycles: 1, instruction: Instruction::Nop })
            } else {
                Err(SimError::Isa(e))
            }
        };

        // ---- IFU: fetch -------------------------------------------------
        let mut cycles = 1u64; // base CPI of the in-order core
        let mut ifu_cycles = 1u64;
        if !self.l1i.access(self.pc) {
            let extra =
                if l2.access(self.pc) { l2.config().hit_cycles } else { hierarchy.memory_cycles };
            cycles += extra;
            ifu_cycles += extra;
        }
        let (golden_word, golden_decode) = match self.text.get(self.pc as usize) {
            None => return wedge(self, IsaError::PcOutOfRange(self.pc)),
            Some(TextSlot::Unencodable(e)) => return Err(SimError::Isa(e.clone())),
            Some(TextSlot::Word(word, decoded)) => (*word, decoded.clone()),
        };
        let actual_word = effects.apply(Unit::Ifu, golden_word);
        record(
            Unit::Ifu,
            StageRecord {
                cycle: self.cycle,
                input_sig: input_signature(&[self.pc]),
                golden_output: golden_word,
                actual_output: actual_word,
            },
        );
        let decoded = if actual_word == golden_word {
            golden_decode
        } else {
            self.tainted = true;
            r2d3_isa::encode::decode(actual_word)
        };
        let instr = match decoded {
            Ok(i) => i,
            Err(e) => return wedge(self, e),
        };

        // ---- execute on the primary unit --------------------------------
        let next_pc = self.pc.wrapping_add(1);
        let mut target = next_pc;
        let unit = instr.primary_unit();
        let mut unit_cycles = 1u64;

        // Load-use interlock.
        if let Some(dest) = self.last_load_dest {
            if instr.sources().iter().flatten().any(|s| *s == dest) {
                cycles += self.timing.load_use_penalty;
            }
        }
        self.last_load_dest = None;

        match instr {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let golden = op.apply(self.reg(rs1), self.reg(rs2));
                let actual =
                    self.finish_value(effects, unit, self.pc, &[rs1, rs2], golden, &mut record);
                self.set_reg(rd, actual);
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let golden = op.apply(self.reg(rs1), imm as i32 as u32);
                let actual = self.finish_value(effects, unit, self.pc, &[rs1], golden, &mut record);
                self.set_reg(rd, actual);
            }
            Instruction::Lui { rd, imm } => {
                let golden = u32::from(imm) << 16;
                let actual = self.finish_value(effects, unit, self.pc, &[], golden, &mut record);
                self.set_reg(rd, actual);
            }
            Instruction::Load { rd, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                let (extra, _hit) = self.data_access(addr, l2, hierarchy);
                cycles += extra;
                unit_cycles += extra;
                let Some(&golden) = self.mem.get(addr as usize) else {
                    return wedge(self, IsaError::MemOutOfRange(addr));
                };
                let actual =
                    self.finish_value(effects, unit, self.pc, &[base], golden, &mut record);
                self.set_reg(rd, actual);
                self.last_load_dest = (!rd.is_zero()).then_some(rd);
            }
            Instruction::Store { src, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                // Stores retire through the store buffer: charge the L1
                // access only (no stall on miss beyond the base cycle).
                let _ = self.l1d.access(addr);
                let golden = self.reg(src);
                let actual =
                    self.finish_value(effects, unit, self.pc, &[src, base], golden, &mut record);
                let Some(slot) = self.mem.get_mut(addr as usize) else {
                    return wedge(self, IsaError::MemOutOfRange(addr));
                };
                *slot = actual;
            }
            Instruction::Branch { cond, rs1, rs2, offset } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                let golden =
                    if taken { next_pc.wrapping_add(offset as i32 as u32) } else { next_pc };
                let actual =
                    self.finish_value(effects, unit, self.pc, &[rs1, rs2], golden, &mut record);
                if !self.predictor.resolve(self.pc, next_pc, actual) {
                    cycles += self.timing.branch_penalty;
                    unit_cycles += self.timing.branch_penalty;
                }
                target = actual;
            }
            Instruction::Jal { rd, offset } => {
                let golden = next_pc.wrapping_add(offset as u32);
                let actual = self.finish_value(effects, unit, self.pc, &[], golden, &mut record);
                self.set_reg(rd, next_pc);
                if !self.predictor.resolve(self.pc, next_pc, actual) {
                    cycles += self.timing.branch_penalty;
                    unit_cycles += self.timing.branch_penalty;
                }
                target = actual;
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let golden = self.reg(rs1).wrapping_add(offset as i32 as u32);
                let actual = self.finish_value(effects, unit, self.pc, &[rs1], golden, &mut record);
                self.set_reg(rd, next_pc);
                if !self.predictor.resolve(self.pc, next_pc, actual) {
                    cycles += self.timing.branch_penalty;
                    unit_cycles += self.timing.branch_penalty;
                }
                target = actual;
            }
            Instruction::Fpu { op, rd, rs1, rs2 } => {
                let golden = op.apply(self.reg(rd), self.reg(rs1), self.reg(rs2));
                let actual =
                    self.finish_value(effects, unit, self.pc, &[rs1, rs2], golden, &mut record);
                self.set_reg(rd, actual);
                cycles += self.timing.ffu_extra;
                unit_cycles += self.timing.ffu_extra;
            }
            Instruction::Trap { code } => {
                let golden = code as u32;
                let _ = self.finish_value(effects, unit, self.pc, &[], golden, &mut record);
                cycles += self.timing.tlu_extra;
                unit_cycles += self.timing.tlu_extra;
            }
            Instruction::Nop => {}
            Instruction::Halt => {
                self.halted = true;
            }
        }

        if target != next_pc && self.text.get(target as usize).is_none() && !self.halted {
            // A wild branch target wedges at the *next* fetch; flag now so
            // the crash is attributed to this instruction.
            self.pc = target;
            return wedge(self, IsaError::PcOutOfRange(target));
        }

        self.pc = target;
        self.cycle += cycles;
        self.active_cycles += cycles;
        self.retired += 1;
        busy(Unit::Ifu, ifu_cycles);
        if unit != Unit::Ifu {
            busy(unit, unit_cycles);
        }
        Ok(StepOutcome { cycles, instruction: instr })
    }

    /// Applies fault effects to a unit's golden output, records the trace
    /// entry, and tracks taint.
    fn finish_value(
        &mut self,
        effects: &mut StageEffects,
        unit: Unit,
        pc: u32,
        srcs: &[Reg],
        golden: u32,
        record: &mut impl FnMut(Unit, StageRecord),
    ) -> u32 {
        // `pc` then the source operands; no instruction reads more than two.
        let mut sig_words = [pc, 0, 0];
        for (w, r) in sig_words[1..].iter_mut().zip(srcs) {
            *w = self.reg(*r);
        }
        let actual = effects.apply(unit, golden);
        record(
            unit,
            StageRecord {
                cycle: self.cycle,
                input_sig: input_signature(&sig_words[..=srcs.len()]),
                golden_output: golden,
                actual_output: actual,
            },
        );
        if actual != golden {
            self.tainted = true;
        }
        actual
    }

    /// Data-side cache access; returns (extra cycles, l1 hit).
    fn data_access(&mut self, addr: u32, l2: &mut Cache, h: &MemoryHierarchy) -> (u64, bool) {
        if self.l1d.access(addr) {
            (0, true)
        } else if l2.access(addr) {
            (l2.config().hit_cycles, false)
        } else {
            (h.memory_cycles, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d3_isa::asm::Asm;

    fn run_alone(program: &Program, budget: u64) -> LogicalPipeline {
        let h = MemoryHierarchy::default();
        let mut l2 = Cache::new(h.l2);
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        p.load(program.clone());
        let mut effects = StageEffects::none();
        for _ in 0..budget {
            if !p.runnable() {
                break;
            }
            p.step(&mut effects, &mut l2, &h, |_, _| {}, |_, _| {}).unwrap();
        }
        p
    }

    #[test]
    fn matches_interpreter_architecturally() {
        let k = r2d3_isa::kernels::gemm(4, 3, 2, 7);
        let p = run_alone(k.program(), 1_000_000);
        assert!(p.halted());
        assert!(k.verify(p.memory()), "pipeline must match the golden model");
    }

    #[test]
    fn ipc_is_sane() {
        let k = r2d3_isa::kernels::gemv(16, 16, 3);
        let p = run_alone(k.program(), 1_000_000);
        assert!(p.halted());
        let ipc = p.ipc();
        assert!((0.2..1.0).contains(&ipc), "IPC {ipc}");
    }

    #[test]
    fn exu_fault_corrupts_results() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0); // ALU result 0: stuck-at-1 on bit 0 flips it
        a.halt();
        let program = a.assemble().unwrap();
        let h = MemoryHierarchy::default();
        let mut l2 = Cache::new(h.l2);
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        p.load(program);
        let mut effects = StageEffects::none();
        effects.permanent[Unit::Exu.index()] = Some(FaultEffect { bit: 0, stuck: true });
        while p.runnable() {
            p.step(&mut effects, &mut l2, &h, |_, _| {}, |_, _| {}).unwrap();
        }
        assert_eq!(p.reg(Reg::R1), 1, "stuck-at-1 must corrupt the zero result");
        assert!(p.tainted());
    }

    #[test]
    fn transient_fires_once() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0);
        a.li(Reg::R2, 0);
        a.halt();
        let program = a.assemble().unwrap();
        let h = MemoryHierarchy::default();
        let mut l2 = Cache::new(h.l2);
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        p.load(program);
        let mut effects = StageEffects::none();
        effects.transient[Unit::Exu.index()] = Some(FaultEffect { bit: 4, stuck: true });
        while p.runnable() {
            p.step(&mut effects, &mut l2, &h, |_, _| {}, |_, _| {}).unwrap();
        }
        assert_eq!(p.reg(Reg::R1), 16, "first op corrupted");
        assert_eq!(p.reg(Reg::R2), 0, "transient consumed");
    }

    #[test]
    fn wild_jump_crashes_tainted_pipeline_only() {
        // A healthy pipeline with a bad program is a SimError...
        let mut a = Asm::new();
        a.emit(Instruction::Jalr { rd: Reg::R0, rs1: Reg::R0, offset: 999 });
        let program = a.assemble().unwrap();
        let h = MemoryHierarchy::default();
        let mut l2 = Cache::new(h.l2);
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        p.load(program.clone());
        let mut effects = StageEffects::none();
        let r = p.step(&mut effects, &mut l2, &h, |_, _| {}, |_, _| {});
        assert!(r.is_err());

        // ...but a faulty EXU crashing the control flow is a *crash*.
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.li(Reg::R1, 1);
        a.j(top);
        p.load(a.assemble().unwrap());
        let mut effects = StageEffects::none();
        effects.permanent[Unit::Exu.index()] = Some(FaultEffect { bit: 13, stuck: true });
        for _ in 0..100 {
            if !p.runnable() {
                break;
            }
            p.step(&mut effects, &mut l2, &h, |_, _| {}, |_, _| {}).unwrap();
        }
        assert!(p.crashed(), "corrupted jump target must crash, not error");
    }

    #[test]
    fn trace_records_have_golden_and_actual() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0);
        a.halt();
        let h = MemoryHierarchy::default();
        let mut l2 = Cache::new(h.l2);
        let mut p = LogicalPipeline::new(0, &h, TimingParams::default());
        p.load(a.assemble().unwrap());
        let mut effects = StageEffects::none();
        effects.permanent[Unit::Exu.index()] = Some(FaultEffect { bit: 1, stuck: true });
        let mut recs: Vec<(Unit, StageRecord)> = Vec::new();
        while p.runnable() {
            p.step(&mut effects, &mut l2, &h, |u, r| recs.push((u, r)), |_, _| {}).unwrap();
        }
        let exu: Vec<_> = recs.iter().filter(|(u, _)| *u == Unit::Exu).collect();
        assert_eq!(exu.len(), 1);
        assert_eq!(exu[0].1.golden_output, 0);
        assert_eq!(exu[0].1.actual_output, 2);
    }

    #[test]
    fn restart_clears_taint_but_keeps_cycles() {
        let k = r2d3_isa::kernels::gemv(4, 4, 1);
        let mut p = run_alone(k.program(), 100_000);
        let cycles = p.cycles();
        assert!(cycles > 0);
        p.restart();
        assert!(!p.halted());
        assert_eq!(p.retired(), 0);
        assert_eq!(p.cycles(), cycles, "physical time survives restart");
    }
}
