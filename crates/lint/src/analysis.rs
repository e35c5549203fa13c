//! The VSA + taint fixpoint over the CFG, indirect-target resolution, and
//! the L1–L4 rule checks.
//!
//! The analysis runs in rounds. Each round solves a forward fixpoint with
//! delayed widening (joins stay exact for `WIDEN_DELAY` visits per PC,
//! then [`crate::taint::State::widen_from`] accelerates loop-carried growth
//! to the type extremes; branch-edge refinement narrows values back inside
//! loop bodies). After a round, every still-unresolved `jalr` is evaluated
//! against the solved states: when its target register's value-set is a
//! small concrete set, the targets are fed back into
//! [`Cfg::from_program_with_targets`] and the next round re-solves the
//! richer graph. The loop is monotone in the number of resolved sites, so
//! it runs at most once per indirect jump.

use std::collections::{BTreeMap, VecDeque};

use reveal_rv32::cfg::{Cfg, CfgError};
use reveal_rv32::{
    format_instruction, AluOp, BranchCond, Instruction, LoadBound, MemWidth, MulOp, Program, Reg,
    SamplerKernel,
};

use crate::report::{anchor_for, Finding, Report, Rule};
use crate::taint::{RegVal, State, Taint};
use crate::vsa::{eval_binop, eval_muldiv, Value};

/// Joins a PC's in-state may absorb exactly before widening kicks in.
/// Large enough to let [`crate::vsa::MAX_SET`]-sized sets fully enumerate,
/// small enough that deep counters converge in a handful of sweeps.
const WIDEN_DELAY: u32 = 12;

/// Most concrete targets an indirect jump may resolve to; larger sets stay
/// unresolved (and become caveats) rather than exploding the CFG.
const MAX_INDIRECT_TARGETS: usize = 16;

/// Rounds of solve → resolve → rebuild. Monotone, so this only bounds
/// pathological inputs; real kernels settle in two or three.
const MAX_RESOLVE_ROUNDS: usize = 8;

/// Bounded descending-iteration count after the ascending fixpoint.
/// Narrowing needs no widening to terminate, but transfer functions are
/// only monotone up to edge refinement, so we cap the passes.
const NARROW_PASSES: usize = 8;

const I32_LO: i64 = i32::MIN as i64;
const I32_HI: i64 = i32::MAX as i64;

/// The analyzer: a program, its (progressively refined) CFG, the declared
/// secret sources, and the public-input preconditions.
#[derive(Debug)]
pub struct Analyzer<'p> {
    program: &'p Program,
    base: u32,
    cfg: Cfg,
    secret_loads: BTreeMap<u32, String>,
    load_bounds: Vec<LoadBound>,
    resolved: BTreeMap<u32, Vec<u32>>,
    in_states: BTreeMap<u32, State>,
    solved: bool,
}

impl<'p> Analyzer<'p> {
    /// Prepares `program` (loaded at `base`) for analysis.
    ///
    /// # Errors
    ///
    /// Fails when the program's control flow cannot be reconstructed
    /// ([`CfgError`]).
    pub fn new(program: &'p Program, base: u32) -> Result<Self, CfgError> {
        let cfg = Cfg::from_program(program, base)?;
        Ok(Analyzer {
            program,
            base,
            cfg,
            secret_loads: BTreeMap::new(),
            load_bounds: Vec::new(),
            resolved: BTreeMap::new(),
            in_states: BTreeMap::new(),
            solved: false,
        })
    }

    /// Declares the load at `pc` a secret source: the register it defines
    /// becomes the taint root `description` names.
    pub fn mark_secret_load(&mut self, pc: u32, description: impl Into<String>) -> &mut Self {
        self.secret_loads.insert(pc, description.into());
        self.solved = false;
        self
    }

    /// Declares a public-input precondition: loads falling inside the
    /// bound's byte range observe values in `[bound.lo, bound.hi]`. This is
    /// how harness-written inputs (MMIO ports, permutation tables, the `q`
    /// table) get bounds the program text alone cannot supply.
    pub fn assume_load_bound(&mut self, bound: LoadBound) -> &mut Self {
        self.load_bounds.push(bound);
        self.solved = false;
        self
    }

    /// The reconstructed CFG — after [`Analyzer::solve`], with resolved
    /// indirect edges spliced in.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Resolved indirect-jump targets, keyed by the `jalr` PC.
    pub fn resolved_targets(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.resolved
    }

    /// The abstract state *entering* `pc`, once solved.
    pub fn state_at(&self, pc: u32) -> Option<&State> {
        self.in_states.get(&pc)
    }

    /// The abstract state *after* `pc`'s instruction, once solved — what
    /// the defined register holds when the write-back happens. This is the
    /// state the leakage scorer reads def masks from.
    pub fn out_state(&self, pc: u32) -> Option<State> {
        let instr = self.cfg.instruction_at(pc)?;
        let mut out = self.in_states.get(&pc)?.clone();
        self.transfer(pc, instr, &mut out);
        Some(out)
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The load address of the program under analysis.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Runs the solve/resolve rounds to a simultaneous fixpoint of states
    /// and CFG. Idempotent.
    pub fn solve(&mut self) {
        if self.solved {
            return;
        }
        for _ in 0..MAX_RESOLVE_ROUNDS {
            self.in_states = self.fixpoint();
            let mut progressed = false;
            for pc in self.cfg.unresolved_indirect.clone() {
                if self.resolved.contains_key(&pc) {
                    continue;
                }
                if let Some(targets) = self.resolve_indirect(pc) {
                    self.resolved.insert(pc, targets);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            // A resolution that produces an invalid graph (target outside
            // the program) falls back to the previous CFG and the site
            // stays a caveat.
            match Cfg::from_program_with_targets(self.program, self.base, &self.resolved) {
                Ok(cfg) => self.cfg = cfg,
                Err(_) => break,
            }
        }
        self.solved = true;
    }

    /// Concrete targets of the unresolved `jalr` at `pc`, when its solved
    /// value-set is small, in-program, and word-aligned.
    fn resolve_indirect(&self, pc: u32) -> Option<Vec<u32>> {
        let Some(Instruction::Jalr { rs1, offset, .. }) = self.cfg.instruction_at(pc) else {
            return None;
        };
        let state = self.in_states.get(&pc)?;
        let target_val = eval_binop(
            AluOp::Add,
            &state.reg(rs1).val,
            &Value::constant(offset as u32),
        );
        let raw = target_val.concrete(MAX_INDIRECT_TARGETS)?;
        let end = self.base + 4 * u32::try_from(self.cfg.len()).unwrap_or(u32::MAX);
        let mut targets: Vec<u32> = raw
            .into_iter()
            .map(|t| t & !1) // JALR clears bit 0 in hardware.
            .collect();
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty()
            || targets
                .iter()
                .any(|&t| t < self.base || t >= end || t % 4 != 0)
        {
            return None;
        }
        Some(targets)
    }

    /// Runs the solve rounds and the rule checks.
    pub fn analyze(&mut self, target: impl Into<String>) -> Report {
        self.solve();
        let mut findings = Vec::new();
        for (pc, instr) in self.cfg.reachable_instructions() {
            let Some(state) = self.in_states.get(&pc) else {
                continue;
            };
            self.check_rules(pc, instr, state, &mut findings);
        }

        let mut caveats = Vec::new();
        let mut unresolved: Vec<u32> = self
            .cfg
            .unresolved_indirect
            .iter()
            .copied()
            .filter(|pc| !self.resolved.contains_key(pc))
            .collect();
        unresolved.sort_unstable();
        for pc in unresolved {
            caveats.push(format!(
                "indirect jump at {pc:#06x} has unknown targets; paths through it are not analyzed"
            ));
        }

        let mut report = Report {
            target: target.into(),
            findings,
            caveats,
            analyzed_instructions: self.cfg.reachable_instructions().count(),
        };
        report.normalize();
        report
    }

    /// Worklist fixpoint with delayed widening: the abstract state
    /// *entering* each reachable pc.
    fn fixpoint(&self) -> BTreeMap<u32, State> {
        let thresholds = self.widening_thresholds();
        let mut in_states: BTreeMap<u32, State> = BTreeMap::new();
        in_states.insert(self.base, State::entry());
        let mut join_counts: BTreeMap<u32, u32> = BTreeMap::new();
        let mut worklist = VecDeque::from([self.base]);
        while let Some(pc) = worklist.pop_front() {
            let Some(instr) = self.cfg.instruction_at(pc) else {
                continue;
            };
            let mut out = in_states[&pc].clone();
            self.transfer(pc, instr, &mut out);
            for &succ in self.cfg.successors_of(pc) {
                let Some(edge_state) = refine_edge(pc, instr, &out, succ) else {
                    continue; // infeasible edge
                };
                let changed = if let Some(existing) = in_states.get_mut(&succ) {
                    let count = join_counts.entry(succ).or_insert(0);
                    *count += 1;
                    if *count > WIDEN_DELAY {
                        existing.widen_from(&edge_state, &thresholds)
                    } else {
                        existing.join_from(&edge_state)
                    }
                } else {
                    in_states.insert(succ, edge_state);
                    true
                };
                if changed && !worklist.contains(&succ) {
                    worklist.push_back(succ);
                }
            }
        }

        // Descending (narrowing) phase. The widened solution is a
        // post-fixpoint, so every fresh re-application of the transfer
        // system from the entry stays sound while shedding transient
        // garbage the ascending phase accumulated monotonically — e.g. a
        // loop counter that briefly widened to `[0, i32::MAX]` before a
        // guard refinement caught up made one store address unresolvable,
        // permanently poisoning `unknown_store`. Recomputing in-states
        // from the converged (narrower) predecessor outs drops those
        // artifacts.
        for _ in 0..NARROW_PASSES {
            let next = self.reapply(&in_states);
            if next == in_states {
                break;
            }
            in_states = next;
        }
        in_states
    }

    /// Landmarks for widening-with-thresholds: every constant the program
    /// text or the declared input bounds mention (±1 for strict/non-strict
    /// guard off-by-ones), sorted. Loop bounds are always program constants,
    /// so a widening counter lands on `[0, n]`-shaped intervals instead of
    /// overshooting to `[0, i32::MAX]` — where the next increment would wrap
    /// to `Top` and poison every address computed from it.
    fn widening_thresholds(&self) -> Vec<i64> {
        let mut t: Vec<i64> = vec![0];
        let mut push = |c: i64| {
            t.push(c - 1);
            t.push(c);
            t.push(c + 1);
        };
        for (_, instr) in self.cfg.reachable_instructions() {
            match instr {
                Instruction::Lui { imm, .. } | Instruction::Auipc { imm, .. } => {
                    push(i64::from(imm));
                }
                Instruction::AluImm { imm, .. } => push(i64::from(imm)),
                Instruction::Load { offset, .. } | Instruction::Store { offset, .. } => {
                    push(i64::from(offset));
                }
                _ => {}
            }
        }
        for bound in &self.load_bounds {
            push(bound.lo);
            push(bound.hi);
            push(i64::from(bound.base));
            push(i64::from(bound.base) + i64::from(bound.len));
        }
        t.retain(|&c| (I32_LO..=I32_HI).contains(&c));
        t.sort_unstable();
        t.dedup();
        t
    }

    /// One application of the full transfer system to `in_states`:
    /// recomputes every in-state as the join of its refined predecessor
    /// edges (entry keeps [`State::entry`]). Used by the narrowing phase.
    fn reapply(&self, in_states: &BTreeMap<u32, State>) -> BTreeMap<u32, State> {
        let mut next: BTreeMap<u32, State> = BTreeMap::new();
        next.insert(self.base, State::entry());
        for (&pc, state) in in_states {
            let Some(instr) = self.cfg.instruction_at(pc) else {
                continue;
            };
            let mut out = state.clone();
            self.transfer(pc, instr, &mut out);
            for &succ in self.cfg.successors_of(pc) {
                let Some(edge_state) = refine_edge(pc, instr, &out, succ) else {
                    continue; // infeasible edge
                };
                match next.get_mut(&succ) {
                    Some(existing) => {
                        existing.join_from(&edge_state);
                    }
                    None => {
                        next.insert(succ, edge_state);
                    }
                }
            }
        }
        next
    }

    /// The value a load in `range` observes under the declared
    /// preconditions, when the whole range sits inside one bound.
    fn bound_for(&self, range: Option<(u32, u32)>) -> Option<Value> {
        let (lo, hi) = range?;
        self.load_bounds
            .iter()
            .filter(|b| b.len > 0 && b.base <= lo && hi <= b.base + (b.len - 1))
            .map(|b| Value::interval(b.lo, b.hi, 1))
            .reduce(|a, b| a.join(&b))
    }

    /// Applies one instruction's effect to `state`.
    fn transfer(&self, pc: u32, instr: Instruction, state: &mut State) {
        match instr {
            Instruction::Lui { rd, imm } => {
                state.set_reg(rd, RegVal::constant(imm as u32));
            }
            Instruction::Auipc { rd, imm } => {
                state.set_reg(rd, RegVal::constant(pc.wrapping_add(imm as u32)));
            }
            Instruction::Jal { rd, .. } | Instruction::Jalr { rd, .. } => {
                // The link address is public.
                state.set_reg(rd, RegVal::constant(pc.wrapping_add(4)));
            }
            Instruction::Branch { .. } | Instruction::Ecall | Instruction::Ebreak => {}
            Instruction::Load {
                rd,
                rs1,
                offset,
                width,
                signed: sign_extend,
            } => {
                let base = state.reg(rs1).clone();
                let range = State::addr_interval(&base.val, offset, width_bytes(width));
                let (val, taint) = if self.secret_loads.contains_key(&pc) {
                    let val = self
                        .bound_for(range)
                        .unwrap_or_else(|| width_default(width, sign_extend));
                    (val, Taint::source(pc))
                } else {
                    let (mem_val, mem_taint) = state.load(range);
                    let val = match self.bound_for(range) {
                        Some(bound) => bound,
                        None => clip_width(&mem_val, width, sign_extend),
                    };
                    // Data read through a secret-derived pointer is itself
                    // secret-shaped: every bit suspect.
                    let addr_taint = if base.effective_taint().is_tainted() {
                        base.taint.with_mask(u32::MAX)
                    } else {
                        Taint::CLEAN
                    };
                    (
                        val,
                        clip_taint(mem_taint, width, sign_extend).join(addr_taint),
                    )
                };
                define(state, rd, val, taint);
            }
            Instruction::Store {
                rs1,
                rs2,
                offset,
                width,
            } => {
                let base = state.reg(rs1).clone();
                let data = state.reg(rs2).clone();
                let range = State::addr_interval(&base.val, offset, width_bytes(width));
                let stored_val = match width {
                    MemWidth::Word => data.val,
                    // Sub-word stores merge with prior bytes we don't track.
                    _ => Value::Top,
                };
                let addr_taint = if base.effective_taint().is_tainted() {
                    base.taint.with_mask(u32::MAX)
                } else {
                    Taint::CLEAN
                };
                state.store(range, &stored_val, data.taint.join(addr_taint));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = state.reg(rs1).clone();
                let b = RegVal::constant(imm as u32);
                let val = eval_binop(op, &a.val, &b.val);
                let taint = taint_binop(op, &a, &b);
                define(state, rd, val, taint);
            }
            Instruction::AluReg { op, rd, rs1, rs2 } => {
                let a = state.reg(rs1).clone();
                let b = state.reg(rs2).clone();
                let val = eval_binop(op, &a.val, &b.val);
                let taint = taint_binop(op, &a, &b);
                define(state, rd, val, taint);
            }
            Instruction::MulDiv { op, rd, rs1, rs2 } => {
                let a = state.reg(rs1).clone();
                let b = state.reg(rs2).clone();
                let val = eval_muldiv(op, &a.val, &b.val);
                let joined = a.taint.join(b.taint);
                let taint = match op {
                    // Low-half multiply: carries spread taint upward only.
                    MulOp::Mul => joined.spread_up(),
                    // High halves, division, remainder mix every bit.
                    _ => joined.with_mask(if joined.is_tainted() { u32::MAX } else { 0 }),
                };
                define(state, rd, val, taint);
            }
        }
    }

    /// Emits findings for `instr` given the state entering it.
    fn check_rules(&self, pc: u32, instr: Instruction, state: &State, out: &mut Vec<Finding>) {
        let eff = |r: Reg| state.reg(r).effective_taint();
        let tainted = |r: Reg| eff(r).is_tainted();
        let origin = |regs: &[Reg]| {
            regs.iter()
                .fold(Taint::CLEAN, |acc, &r| acc.join(eff(r)))
                .origin()
                .unwrap_or(pc)
        };
        let names = |regs: &[Reg]| {
            regs.iter()
                .filter(|&&r| tainted(r))
                .map(|r| r.abi_name())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut push = |rule: Rule, origin: u32, message: String| {
            out.push(Finding {
                rule,
                pc,
                instruction: format_instruction(&instr),
                anchor: anchor_for(self.program, self.base, pc),
                origin,
                message,
            });
        };
        match instr {
            Instruction::Branch { rs1, rs2, .. } if tainted(rs1) || tainted(rs2) => {
                push(
                    Rule::L1SecretBranch,
                    origin(&[rs1, rs2]),
                    format!(
                        "branch condition depends on secret register {}",
                        names(&[rs1, rs2])
                    ),
                );
            }
            Instruction::Jalr { rs1, .. } if tainted(rs1) => {
                push(
                    Rule::L1SecretBranch,
                    origin(&[rs1]),
                    format!(
                        "indirect jump target depends on secret register {}",
                        names(&[rs1])
                    ),
                );
            }
            Instruction::Load { rs1, .. } if tainted(rs1) => {
                push(
                    Rule::L2SecretAddress,
                    origin(&[rs1]),
                    format!("load address depends on secret register {}", names(&[rs1])),
                );
            }
            Instruction::Store { rs1, rs2, .. } => {
                if tainted(rs1) {
                    push(
                        Rule::L2SecretAddress,
                        origin(&[rs1]),
                        format!("store address depends on secret register {}", names(&[rs1])),
                    );
                }
                if tainted(rs2) {
                    push(
                        Rule::L4SecretStore,
                        origin(&[rs2]),
                        format!(
                            "stored value derives from secret register {}",
                            names(&[rs2])
                        ),
                    );
                }
            }
            Instruction::MulDiv { op, rs1, rs2, .. } if tainted(rs1) || tainted(rs2) => {
                push(
                    Rule::L3VariableLatency,
                    origin(&[rs1, rs2]),
                    format!(
                        "{:?} operand depends on secret register {} (variable-latency unit)",
                        op,
                        names(&[rs1, rs2])
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Defines `rd` with the mask cut to the bits the value can actually vary
/// in — a value the VSA proves constant cannot leak.
fn define(state: &mut State, rd: Reg, val: Value, taint: Taint) {
    let cut = taint.with_mask(taint.mask & val.varying_bits());
    state.set_reg(rd, RegVal { val, taint: cut });
}

fn width_bytes(width: MemWidth) -> u32 {
    match width {
        MemWidth::Byte => 1,
        MemWidth::Half => 2,
        MemWidth::Word => 4,
    }
}

/// The widest value a load of this shape can produce.
fn width_default(width: MemWidth, sign_extend: bool) -> Value {
    match (width, sign_extend) {
        (MemWidth::Byte, false) => Value::interval(0, 0xFF, 1),
        (MemWidth::Byte, true) => Value::interval(-128, 127, 1),
        (MemWidth::Half, false) => Value::interval(0, 0xFFFF, 1),
        (MemWidth::Half, true) => Value::interval(-32768, 32767, 1),
        (MemWidth::Word, _) => Value::Top,
    }
}

/// Narrows a stored-word summary to what a (possibly sub-word) load sees.
fn clip_width(val: &Value, width: MemWidth, sign_extend: bool) -> Value {
    match width {
        MemWidth::Word => val.clone(),
        // Sub-word loads slice bytes our summaries don't isolate; fall back
        // to the width's full range.
        _ => width_default(width, sign_extend),
    }
}

/// Narrows a stored taint to the bits a sub-word load can carry out.
fn clip_taint(taint: Taint, width: MemWidth, sign_extend: bool) -> Taint {
    let (low_mask, sign_bit) = match width {
        MemWidth::Byte => (0xFFu32, 0x80u32),
        MemWidth::Half => (0xFFFF, 0x8000),
        MemWidth::Word => return taint,
    };
    let mut mask = taint.mask & low_mask;
    if sign_extend && mask & sign_bit != 0 {
        mask |= !low_mask;
    }
    taint.with_mask(mask)
}

/// The value of `v` when it is a proven singleton.
fn singleton(v: &Value) -> Option<u32> {
    match v.concrete(1) {
        Some(vs) if vs.len() == 1 => Some(vs[0]),
        _ => None,
    }
}

/// Bit-mask taint transfer for ALU operations.
fn taint_binop(op: AluOp, a: &RegVal, b: &RegVal) -> Taint {
    let joined = a.taint.join(b.taint);
    if !joined.is_tainted() {
        return Taint::CLEAN;
    }
    match op {
        // Carries propagate a tainted bit into every bit above it.
        AluOp::Add | AluOp::Sub => joined.spread_up(),
        AluOp::And => match (singleton(&a.val), singleton(&b.val)) {
            // Masking with a clean constant keeps only the surviving bits.
            (Some(c), _) if !a.taint.is_tainted() => joined.with_mask(joined.mask & c),
            (_, Some(c)) if !b.taint.is_tainted() => joined.with_mask(joined.mask & c),
            _ => joined,
        },
        AluOp::Or => match (singleton(&a.val), singleton(&b.val)) {
            // Bits forced to one by a clean constant stop varying.
            (Some(c), _) if !a.taint.is_tainted() => joined.with_mask(joined.mask & !c),
            (_, Some(c)) if !b.taint.is_tainted() => joined.with_mask(joined.mask & !c),
            _ => joined,
        },
        // XOR with anything clean permutes values bitwise: mask unchanged.
        AluOp::Xor => joined,
        AluOp::Sll => match singleton(&b.val) {
            Some(k) if !b.taint.is_tainted() => a.taint.with_mask(a.taint.mask << (k & 31)),
            _ => joined.with_mask(u32::MAX),
        },
        AluOp::Srl => match singleton(&b.val) {
            Some(k) if !b.taint.is_tainted() => a.taint.with_mask(a.taint.mask >> (k & 31)),
            _ => joined.with_mask(u32::MAX),
        },
        AluOp::Sra => match singleton(&b.val) {
            Some(k) if !b.taint.is_tainted() => a
                .taint
                .with_mask(((a.taint.mask as i32) >> (k & 31)) as u32),
            _ => joined.with_mask(u32::MAX),
        },
        // Comparisons compress everything into bit 0.
        AluOp::Slt | AluOp::Sltu => joined.with_mask(1),
    }
}

/// Refines `out` along the edge `pc → succ`; `None` when the VSA proves
/// the edge infeasible.
fn refine_edge(pc: u32, instr: Instruction, out: &State, succ: u32) -> Option<State> {
    let Instruction::Branch {
        cond,
        rs1,
        rs2,
        offset,
    } = instr
    else {
        return Some(out.clone());
    };
    let taken_target = pc.wrapping_add(offset as u32);
    let fallthrough = pc.wrapping_add(4);
    if taken_target == fallthrough {
        return Some(out.clone());
    }
    let taken = succ == taken_target;
    let v1 = out.reg(rs1).val.clone();
    let v2 = out.reg(rs2).val.clone();
    let refined = refine_pair(cond, taken, &v1, &v2)?;
    let mut state = out.clone();
    if let Some(new1) = refined.0 {
        let taint = state.reg(rs1).taint;
        define(&mut state, rs1, new1, taint);
    }
    if let Some(new2) = refined.1 {
        let taint = state.reg(rs2).taint;
        define(&mut state, rs2, new2, taint);
    }
    Some(state)
}

/// New values for (rs1, rs2) under `rs1 ⟨cond⟩ rs2` (or its negation when
/// `!taken`); `None` for the whole pair when the constraint is
/// unsatisfiable, `None` per side when no refinement applies.
#[allow(clippy::type_complexity)]
fn refine_pair(
    cond: BranchCond,
    taken: bool,
    v1: &Value,
    v2: &Value,
) -> Option<(Option<Value>, Option<Value>)> {
    // Normalize to one of: Eq, Ne, Lt (signed), Ge (signed) — the unsigned
    // forms refine only when both hulls are non-negative, where the two
    // orders agree.
    let unsigned_ok =
        matches!((v1.hull(), v2.hull()), (Some((l1, _)), Some((l2, _))) if l1 >= 0 && l2 >= 0);
    let rel = match (cond, taken) {
        (BranchCond::Eq, true) | (BranchCond::Ne, false) => BranchCond::Eq,
        (BranchCond::Eq, false) | (BranchCond::Ne, true) => BranchCond::Ne,
        (BranchCond::Lt, true) | (BranchCond::Ge, false) => BranchCond::Lt,
        (BranchCond::Lt, false) | (BranchCond::Ge, true) => BranchCond::Ge,
        (BranchCond::Ltu, true) | (BranchCond::Geu, false) if unsigned_ok => BranchCond::Lt,
        (BranchCond::Ltu, false) | (BranchCond::Geu, true) if unsigned_ok => BranchCond::Ge,
        _ => return Some((None, None)),
    };
    match rel {
        BranchCond::Eq => {
            let new1 = match v2.hull() {
                Some((lo, hi)) => Some(v1.clamp_signed(lo, hi)?),
                None => None,
            };
            let new2 = match v1.hull() {
                Some((lo, hi)) => Some(v2.clamp_signed(lo, hi)?),
                None => None,
            };
            Some((new1, new2))
        }
        BranchCond::Ne => {
            let new1 = match singleton(v2) {
                Some(c) => Some(v1.remove(c)?),
                None => None,
            };
            let new2 = match singleton(v1) {
                Some(c) => Some(v2.remove(c)?),
                None => None,
            };
            Some((new1, new2))
        }
        BranchCond::Lt => {
            let new1 = match v2.hull() {
                Some((_, hi)) => Some(v1.clamp_signed(I32_LO, hi - 1)?),
                None => None,
            };
            let new2 = match v1.hull() {
                Some((lo, _)) => Some(v2.clamp_signed(lo + 1, I32_HI)?),
                None => None,
            };
            Some((new1, new2))
        }
        BranchCond::Ge => {
            let new1 = match v2.hull() {
                Some((lo, _)) => Some(v1.clamp_signed(lo, I32_HI)?),
                None => None,
            };
            let new2 = match v1.hull() {
                Some((_, hi)) => Some(v2.clamp_signed(I32_LO, hi)?),
                None => None,
            };
            Some((new1, new2))
        }
        _ => unreachable!("normalized above"),
    }
}

/// Analyzes a [`SamplerKernel`] with its declared secret sources and
/// public-input bounds.
pub fn analyze_kernel(kernel: &SamplerKernel) -> Report {
    analyzer_for_kernel(kernel).analyze(format!(
        "kernel[{:?}] n={} moduli={}",
        kernel.variant(),
        kernel.degree(),
        kernel.moduli().len()
    ))
}

/// Builds (but does not solve) the analyzer for a kernel, with its secret
/// sources and load bounds declared. Exposed for the leakage-map layer.
pub fn analyzer_for_kernel(kernel: &SamplerKernel) -> Analyzer<'_> {
    let program = kernel.program();
    let mut analyzer = Analyzer::new(program, 0).expect("kernel programs always have a valid CFG");
    for source in kernel.secret_sources() {
        analyzer.mark_secret_load(source.pc, source.description);
    }
    for bound in kernel.load_bounds() {
        analyzer.assume_load_bound(bound);
    }
    analyzer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;
    use reveal_rv32::assemble;

    /// Analyzes `src` with every load labeled `secret*` marked as a secret
    /// source (labels survive `li` expansion, PCs don't).
    fn analyze_src(src: &str) -> (Report, reveal_rv32::Program) {
        let program = assemble(src, 0).unwrap();
        let mut analyzer = Analyzer::new(&program, 0).unwrap();
        for (name, &off) in &program.symbols {
            if name.starts_with("secret") {
                analyzer.mark_secret_load(off, "test secret");
            }
        }
        let report = analyzer.analyze("unit");
        (report, program)
    }

    #[test]
    fn clean_program_has_no_findings() {
        let (report, _) = analyze_src(
            "
            li t0, 5
            loop:
            addi t0, t0, -1
            bnez t0, loop
            ebreak
            ",
        );
        assert!(report.findings.is_empty());
        assert!(report.is_constant_time());
    }

    #[test]
    fn secret_branch_fires_l1() {
        let (report, program) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            leak:
            beqz t0, out
            addi t1, t1, 1
            out:
            ebreak
            ",
        );
        let l1: Vec<_> = report.findings_for(Rule::L1SecretBranch).collect();
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].pc, program.symbol("leak").unwrap());
        assert_eq!(l1[0].origin, program.symbol("secret").unwrap());
    }

    #[test]
    fn secret_index_fires_l2() {
        let (report, program) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            slli t0, t0, 2
            li t1, 0x1000
            add t0, t0, t1
            leak:
            lw t2, 0(t0)
            ebreak
            ",
        );
        let l2: Vec<_> = report.findings_for(Rule::L2SecretAddress).collect();
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].pc, program.symbol("leak").unwrap());
        assert!(!report.is_constant_time());
    }

    #[test]
    fn secret_mul_fires_l3_and_store_fires_l4() {
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            mul t1, t0, t0
            li t2, 0x2000
            sw t1, 0(t2)
            ebreak
            ",
        );
        assert_eq!(report.findings_for(Rule::L3VariableLatency).count(), 1);
        assert_eq!(report.findings_for(Rule::L4SecretStore).count(), 1);
        assert_eq!(report.findings_for(Rule::L1SecretBranch).count(), 0);
        // L3 is a warning, L4 info: no error-severity findings.
        assert!(!report.has_findings_at_least(Severity::Error));
        assert!(report.has_findings_at_least(Severity::Warning));
    }

    #[test]
    fn taint_flows_through_memory() {
        // Secret is spilled to RAM and reloaded into a branch.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            li t1, 0x3000
            sw t0, 0(t1)
            lw t2, 0(t1)
            beqz t2, out
            nop
            out:
            ebreak
            ",
        );
        assert_eq!(report.findings_for(Rule::L1SecretBranch).count(), 1);
    }

    #[test]
    fn distinct_regions_do_not_alias() {
        // Secret stored to 0x3000 must not taint a load from 0x4000.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            li t1, 0x3000
            sw t0, 0(t1)
            li t3, 0x4000
            lw t2, 0(t3)
            beqz t2, out
            nop
            out:
            ebreak
            ",
        );
        assert_eq!(report.findings_for(Rule::L1SecretBranch).count(), 0);
    }

    #[test]
    fn sanitizing_overwrite_clears_taint() {
        // The tainted register is redefined from a constant before the
        // branch: no finding.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            li t0, 7
            beqz t0, out
            nop
            out:
            ebreak
            ",
        );
        assert!(report.findings.is_empty());
    }

    #[test]
    fn masking_to_zero_launders_the_secret() {
        // `andi t0, t0, 0` zeroes every bit: the VSA proves the branch
        // condition constant, so the old mask no longer matters.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            andi t0, t0, 0
            beqz t0, out
            nop
            out:
            ebreak
            ",
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn partial_mask_keeps_only_surviving_bits_tainted() {
        // Only bit 0 of the secret survives the mask; the branch still
        // leaks (that one bit), the upper bits do not.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t0, 0(s0)
            andi t0, t0, 1
            beqz t0, out
            nop
            out:
            ebreak
            ",
        );
        assert_eq!(report.findings_for(Rule::L1SecretBranch).count(), 1);
    }

    #[test]
    fn unresolved_indirect_becomes_caveat() {
        let (report, _) = analyze_src("jr t0\nebreak");
        assert_eq!(report.caveats.len(), 1);
        assert!(!report.is_constant_time());
    }

    #[test]
    fn la_plus_jalr_resolves_and_clears_the_caveat() {
        // The classic dispatch idiom: a label address materialized with
        // `la`, then an indirect call. The VSA resolves the target set, so
        // the CFG covers the callee and no caveat survives.
        let (report, program) = analyze_src(
            "
            li s0, 0xF0000000
            la t6, helper
            jalr ra, t6, 0
            secret:
            lw t0, 0(s0)
            leak:
            beqz t0, out
            nop
            out:
            ebreak
            helper:
            addi a0, a0, 1
            ret
            ",
        );
        assert!(report.caveats.is_empty(), "caveats: {:?}", report.caveats);
        let l1: Vec<_> = report.findings_for(Rule::L1SecretBranch).collect();
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].pc, program.symbol("leak").unwrap());
    }

    #[test]
    fn loop_fixpoint_terminates_and_propagates() {
        // The taint enters on iteration-carried state: t2 accumulates the
        // secret, then gates a branch after the loop.
        let (report, program) = analyze_src(
            "
            li s0, 0xF0000000
            li t1, 4
            li t2, 0
            loop:
            secret:
            lw t0, 0(s0)
            add t2, t2, t0
            addi t1, t1, -1
            bnez t1, loop
            leak:
            beqz t2, out
            nop
            out:
            ebreak
            ",
        );
        let l1: Vec<_> = report.findings_for(Rule::L1SecretBranch).collect();
        assert_eq!(l1.len(), 1, "only the post-loop branch leaks");
        assert_eq!(l1[0].pc, program.symbol("leak").unwrap());
    }

    #[test]
    fn long_counter_loop_terminates_via_widening() {
        // A 100k-iteration counter would never converge by enumeration;
        // widening must close it in a handful of sweeps.
        let (report, _) = analyze_src(
            "
            li t0, 100000
            loop:
            addi t0, t0, -1
            bnez t0, loop
            ebreak
            ",
        );
        assert!(report.is_constant_time());
    }

    #[test]
    fn branch_refinement_narrows_the_negative_arm() {
        // The ladder shape: t2 in [-21, 21] (declared via load bound),
        // `bgez` splits the sign, the negative arm negates. After
        // refinement the negated magnitude is [1, 21]: only the low 5 bits
        // vary, so a store of it carries a 5-bit effective taint, which
        // still fires L4 but proves the high bits quiet.
        let program = assemble(
            "
            li s0, 0xF0000000
            secret:
            lw t2, 0(s0)
            bgez t2, store
            sub t2, zero, t2
            store:
            li t3, 0x2000
            sw t2, 0(t3)
            ebreak
            ",
            0,
        )
        .unwrap();
        let mut analyzer = Analyzer::new(&program, 0).unwrap();
        analyzer.mark_secret_load(program.symbol("secret").unwrap(), "noise");
        analyzer.assume_load_bound(LoadBound {
            base: 0xF000_0000,
            len: 4,
            lo: -21,
            hi: 21,
            description: "noise port",
        });
        analyzer.solve();
        // At the join point the negative arm contributed [1, 21] and the
        // taken arm [0, 21]: hull [0, 21], varying bits ≤ 0x1F.
        let store_pc = program.symbol("store").unwrap();
        let state = analyzer.state_at(store_pc).unwrap();
        let t2 = state.reg(Reg::parse("t2").unwrap());
        let (lo, hi) = t2.val.hull().unwrap();
        assert!(lo >= 0 && hi <= 21, "refined hull: [{lo}, {hi}]");
        assert_eq!(
            t2.effective_taint().mask & !0x1F,
            0,
            "high bits proven quiet"
        );
        assert!(t2.effective_taint().is_tainted(), "magnitude still leaks");
    }

    #[test]
    fn infeasible_edges_are_pruned() {
        // t0 is provably 3, so `beq t0, t1, out` with t1 = 3 always jumps:
        // the fallthrough (which would branch on the secret) is dead.
        let (report, _) = analyze_src(
            "
            li s0, 0xF0000000
            secret:
            lw t4, 0(s0)
            li t0, 3
            li t1, 3
            beq t0, t1, out
            beqz t4, out
            nop
            out:
            ebreak
            ",
        );
        assert_eq!(
            report.findings_for(Rule::L1SecretBranch).count(),
            0,
            "the secret branch is unreachable"
        );
    }
}
