//! Bounded model checking of mini-C programs (the CBMC baseline).
//!
//! The checker symbolically executes the IR from `main` with **guarded
//! updates** (every assignment becomes an if-then-else on the path
//! condition), inlining calls and unwinding loops up to a bound — 20 by
//! default, the limit the paper used. Raw memory is modelled as a
//! write log with Ackermann-style initial reads; unconstrained device reads
//! are exactly why "all the input variables have to be constrained in order
//! to avoid false reasoning" (paper Section 4).
//!
//! Outcomes mirror a real BMC run: a **counterexample**, a **bounded proof**,
//! or a **resource-out** (unwinding never completes, the formula explodes,
//! or the SAT budget is exhausted) — the paper's `> unwind` entries.

use std::fmt;
use std::time::{Duration, Instant};

use minic::ast::{BinOp, UnOp};
use minic::ir::{FuncId, IrExpr, IrFunction, IrProgram, IrStmt, Place, SeqId};

use crate::cnf::{BitVec, CnfBuilder};
use crate::sat::{Lit, SatResult};

/// Configuration of a BMC run.
#[derive(Clone, Debug)]
pub struct BmcConfig {
    /// Loop unwinding bound (paper: 20).
    pub unwind: u32,
    /// Maximum call-inlining depth.
    pub inline_depth: u32,
    /// SAT conflict budget.
    pub max_conflicts: u64,
    /// Clause budget for the encoding.
    pub max_clauses: usize,
    /// Wall-clock budget.
    pub wall_budget: Duration,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            unwind: 20,
            inline_depth: 64,
            max_conflicts: 2_000_000,
            max_clauses: 4_000_000,
            wall_budget: Duration::from_secs(600),
        }
    }
}

/// The safety specification checked against the program.
///
/// Selected globals are made symbolic inputs (constrained to ranges, like
/// the Spec-tool-generated harness of the paper); after `main` completes,
/// the observed global must hold one of the allowed values.
#[derive(Clone, Debug)]
pub struct SafetySpec {
    /// `(global name, lo, hi)` — symbolic inputs with signed range bounds.
    pub inputs: Vec<(String, i32, i32)>,
    /// The observed global.
    pub observed: String,
    /// Allowed values of the observed global at program end.
    pub allowed: Vec<i32>,
}

/// Result of a BMC run.
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// A violating input assignment within the bound.
    Violated {
        /// Input global values of the counterexample.
        inputs: Vec<(String, i32)>,
        /// The observed value produced.
        observed: i32,
    },
    /// No violation within the unwinding bound.
    BoundedOk {
        /// Encoded clauses.
        clauses: usize,
        /// Encoded variables.
        vars: usize,
    },
    /// The run exceeded a resource limit before reaching a verdict.
    ResourceOut {
        /// What gave out (unwinding, clause budget, SAT budget, time).
        reason: String,
        /// Time spent.
        elapsed: Duration,
    },
}

impl BmcOutcome {
    /// `true` for [`BmcOutcome::ResourceOut`].
    pub fn is_resource_out(&self) -> bool {
        matches!(self, BmcOutcome::ResourceOut { .. })
    }
}

/// Hard errors: the program uses features the encoder does not support.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnsupportedError {
    /// Description of the unsupported construct.
    pub what: String,
}

impl fmt::Display for UnsupportedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BMC does not support {}", self.what)
    }
}

impl std::error::Error for UnsupportedError {}

enum Abort {
    Resource(String),
    Unsupported(String),
}

struct MemWrite {
    enable: Lit,
    addr: BitVec,
    data: BitVec,
}

struct Frame {
    locals: Vec<BitVec>,
    returned: Lit,
    ret_val: BitVec,
}

struct Exec<'p> {
    prog: &'p IrProgram,
    b: CnfBuilder,
    globals: Vec<BitVec>,
    global_base: Vec<usize>,
    mem_writes: Vec<MemWrite>,
    initial_reads: Vec<(BitVec, BitVec)>,
    /// One literal per loop that may still iterate past the bound
    /// (CBMC-style unwinding assertions, decided by the solver).
    unwind_lits: Vec<(FuncId, Lit)>,
    config: BmcConfig,
    start: Instant,
}

/// Runs bounded model checking of `spec` against `prog`.
///
/// # Errors
///
/// Returns [`UnsupportedError`] for division/remainder (no bit-level
/// encoding provided) and for recursion beyond the inline depth.
pub fn check(
    prog: &IrProgram,
    spec: &SafetySpec,
    config: BmcConfig,
) -> Result<BmcOutcome, UnsupportedError> {
    let start = Instant::now();
    let main = match prog.main {
        Some(m) => m,
        None => {
            return Err(UnsupportedError {
                what: "programs without a main function".to_owned(),
            })
        }
    };
    let mut b = CnfBuilder::new();
    // Concrete initial globals.
    let mut globals = Vec::new();
    let mut global_base = Vec::new();
    for g in &prog.globals {
        global_base.push(globals.len());
        for &v in &g.init {
            globals.push(b.bv_const(v as u32));
        }
    }
    let mut exec = Exec {
        prog,
        b,
        globals,
        global_base,
        mem_writes: Vec::new(),
        initial_reads: Vec::new(),
        unwind_lits: Vec::new(),
        config,
        start,
    };

    // Symbolic, range-constrained inputs.
    let mut input_bvs = Vec::new();
    for (name, lo, hi) in &spec.inputs {
        let gid = match prog.global_by_name(name) {
            Some(g) => g,
            None => {
                return Err(UnsupportedError {
                    what: format!("unknown input global `{name}`"),
                })
            }
        };
        // Point ranges become constants so dead branches fold away during
        // encoding (the paper's "inputs have to be constrained").
        let fresh = if lo == hi {
            exec.b.bv_const(*lo as u32)
        } else {
            let fresh = exec.b.bv_fresh();
            let lo_bv = exec.b.bv_const(*lo as u32);
            let hi_bv = exec.b.bv_const(*hi as u32);
            let below = exec.b.bv_slt(&fresh, &lo_bv);
            let above = exec.b.bv_slt(&hi_bv, &fresh);
            exec.b.assert_lit(below.negate());
            exec.b.assert_lit(above.negate());
            fresh
        };
        exec.globals[exec.global_base[gid.0 as usize]] = fresh.clone();
        input_bvs.push((name.clone(), fresh));
    }

    // Execute main.
    let guard = exec.b.tru();
    let run = exec.exec_function(main, Vec::new(), guard, 0);
    match run {
        Err(Abort::Unsupported(what)) => return Err(UnsupportedError { what }),
        Err(Abort::Resource(reason)) => {
            return Ok(BmcOutcome::ResourceOut {
                reason,
                elapsed: start.elapsed(),
            })
        }
        Ok(_) => {}
    }

    // Property: observed ∈ allowed at the end of main.
    let observed_gid = match prog.global_by_name(&spec.observed) {
        Some(g) => g,
        None => {
            return Err(UnsupportedError {
                what: format!("unknown observed global `{}`", spec.observed),
            })
        }
    };
    let observed = exec.globals[exec.global_base[observed_gid.0 as usize]].clone();
    let mut in_set = Vec::new();
    for &v in &spec.allowed {
        let c = exec.b.bv_const(v as u32);
        in_set.push(exec.b.bv_eq(&observed, &c));
    }
    let ok = exec.b.or_many(&in_set);
    let viol = ok.negate();
    // Search for either a property violation or a violated unwinding
    // assertion (a path on which some loop iterates past the bound).
    let unwind_lits: Vec<Lit> = exec.unwind_lits.iter().map(|&(_, l)| l).collect();
    let any_unwind = exec.b.or_many(&unwind_lits);
    let target = exec.b.or2(viol, any_unwind);
    exec.b.assert_lit(target);

    if exec.b.num_clauses() > exec.config.max_clauses {
        return Ok(BmcOutcome::ResourceOut {
            reason: format!("formula exploded to {} clauses", exec.b.num_clauses()),
            elapsed: start.elapsed(),
        });
    }

    let (clauses, vars) = (exec.b.num_clauses(), exec.b.num_vars());
    let deadline = start.checked_add(exec.config.wall_budget);
    match exec.b.solve_until(exec.config.max_conflicts, deadline) {
        SatResult::Sat(model) => {
            // Which disjunct fired? An unwinding assertion dominates: past
            // the bound the encoding no longer reflects the program.
            let lit_true = |l: Lit| model[l.var().0 as usize] ^ l.is_neg();
            if let Some(&(func, _)) = exec.unwind_lits.iter().find(|&&(_, l)| lit_true(l)) {
                return Ok(BmcOutcome::ResourceOut {
                    reason: format!(
                        "unwinding assertion: loop in `{}` can iterate past {} unrollings",
                        prog.func(func).name,
                        exec.config.unwind
                    ),
                    elapsed: start.elapsed(),
                });
            }
            let inputs = input_bvs
                .iter()
                .map(|(n, bv)| (n.clone(), CnfBuilder::bv_value(&model, bv) as i32))
                .collect();
            let observed = CnfBuilder::bv_value(&model, &observed) as i32;
            Ok(BmcOutcome::Violated { inputs, observed })
        }
        SatResult::Unsat => Ok(BmcOutcome::BoundedOk { clauses, vars }),
        SatResult::Unknown => Ok(BmcOutcome::ResourceOut {
            reason: if start.elapsed() > exec.config.wall_budget {
                "wall-clock budget exhausted during SAT solving".to_owned()
            } else {
                "SAT conflict budget exhausted".to_owned()
            },
            elapsed: start.elapsed(),
        }),
    }
}

impl<'p> Exec<'p> {
    fn check_budget(&self) -> Result<(), Abort> {
        if self.b.num_clauses() > self.config.max_clauses {
            return Err(Abort::Resource(format!(
                "formula exploded to {} clauses during encoding",
                self.b.num_clauses()
            )));
        }
        if self.start.elapsed() > self.config.wall_budget {
            return Err(Abort::Resource("wall-clock budget exhausted".to_owned()));
        }
        Ok(())
    }

    fn exec_function(
        &mut self,
        func: FuncId,
        args: Vec<BitVec>,
        guard: Lit,
        depth: u32,
    ) -> Result<BitVec, Abort> {
        if depth > self.config.inline_depth {
            return Err(Abort::Unsupported(format!(
                "recursion deeper than {} in `{}`",
                self.config.inline_depth,
                self.prog.func(func).name
            )));
        }
        self.check_budget()?;
        let def = self.prog.func(func);
        let zero = self.b.bv_const(0);
        let mut frame = Frame {
            locals: (0..def.locals.len()).map(|_| zero.clone()).collect(),
            returned: self.b.fls(),
            ret_val: zero,
        };
        for (i, a) in args.into_iter().enumerate() {
            frame.locals[i] = a;
        }
        self.exec_seq(
            func,
            IrFunction::BODY,
            &mut frame,
            guard,
            depth,
            &mut Vec::new(),
        )?;
        Ok(frame.ret_val)
    }

    /// Executes a sequence. `loops` holds (broke, continued) flags of the
    /// enclosing loops, innermost last.
    #[allow(clippy::too_many_arguments)]
    fn exec_seq(
        &mut self,
        func: FuncId,
        seq: SeqId,
        frame: &mut Frame,
        guard: Lit,
        depth: u32,
        loops: &mut Vec<(Lit, Lit)>,
    ) -> Result<(), Abort> {
        let def = self.prog.func(func);
        let stmt_ids: Vec<_> = def.seq(seq).to_vec();
        let mut live = guard;
        for sid in stmt_ids {
            self.check_budget()?;
            // Dead paths need no encoding at all.
            if live == self.b.fls() {
                break;
            }
            let stmt = self.prog.func(func).stmt(sid).clone();
            match stmt {
                IrStmt::Assign { target, value, .. } => {
                    let v = self.eval(&value, frame)?;
                    self.store(&target, v, frame, live)?;
                }
                IrStmt::Call {
                    dst,
                    func: callee,
                    args,
                    ..
                } => {
                    let mut arg_vals = Vec::with_capacity(args.len());
                    for a in &args {
                        arg_vals.push(self.eval(a, frame)?);
                    }
                    let ret = self.exec_function(callee, arg_vals, live, depth + 1)?;
                    if let Some(place) = dst {
                        self.store(&place, ret, frame, live)?;
                    }
                }
                IrStmt::If {
                    cond,
                    then_seq,
                    else_seq,
                    ..
                } => {
                    let c = self.eval_bool(&cond, frame)?;
                    let then_guard = self.b.and2(live, c);
                    let else_guard = self.b.and2(live, c.negate());
                    self.exec_seq(func, then_seq, frame, then_guard, depth, loops)?;
                    self.exec_seq(func, else_seq, frame, else_guard, depth, loops)?;
                }
                IrStmt::While { cond, body_seq, .. } => {
                    let mut broke = self.b.fls();
                    for _ in 0..self.config.unwind {
                        let c = self.eval_bool(&cond, frame)?;
                        let nb = broke.negate();
                        let nr = frame.returned.negate();
                        let alive_parts = [live, c, nb, nr];
                        let iter_guard = self.b.and_many(&alive_parts);
                        if iter_guard == self.b.fls() {
                            break;
                        }
                        let cont = self.b.fls();
                        loops.push((broke, cont));
                        self.exec_seq(func, body_seq, frame, iter_guard, depth, loops)?;
                        let (new_broke, _cont) = loops.pop().expect("loop stack balanced");
                        broke = new_broke;
                    }
                    // Unwinding assertion: can the loop still iterate? The
                    // solver decides at the end; trivially-false literals
                    // are dropped here.
                    let c = self.eval_bool(&cond, frame)?;
                    let nb = broke.negate();
                    let nr = frame.returned.negate();
                    let still = self.b.and_many(&[live, c, nb, nr]);
                    if still != self.b.fls() {
                        self.unwind_lits.push((func, still));
                    }
                }
                IrStmt::Return { value, .. } => {
                    if let Some(e) = value {
                        let v = self.eval(&e, frame)?;
                        frame.ret_val = self.b.bv_ite(live, &v, &frame.ret_val.clone());
                    }
                    frame.returned = self.b.or2(frame.returned, live);
                }
                IrStmt::Break { .. } => {
                    let (broke, _) = loops.last_mut().expect("break inside loop");
                    *broke = self.b.or2(*broke, live);
                }
                IrStmt::Continue { .. } => {
                    let (_, cont) = loops.last_mut().expect("continue inside loop");
                    *cont = self.b.or2(*cont, live);
                }
            }
            // Recompute liveness after control-flow effects.
            live = self.b.and2(live, frame.returned.negate());
            if let Some(&(broke, cont)) = loops.last() {
                let nb = broke.negate();
                let nc = cont.negate();
                live = self.b.and2(live, nb);
                live = self.b.and2(live, nc);
            }
        }
        Ok(())
    }

    fn store(
        &mut self,
        place: &Place,
        value: BitVec,
        frame: &mut Frame,
        guard: Lit,
    ) -> Result<(), Abort> {
        match place {
            Place::Local(id) => {
                let old = frame.locals[id.0 as usize].clone();
                frame.locals[id.0 as usize] = self.b.bv_ite(guard, &value, &old);
            }
            Place::Global(id) => {
                let slot = self.global_base[id.0 as usize];
                let old = self.globals[slot].clone();
                self.globals[slot] = self.b.bv_ite(guard, &value, &old);
            }
            Place::GlobalElem(id, idx) => {
                let idx_bv = self.eval(idx, frame)?;
                let base = self.global_base[id.0 as usize];
                let len = self.prog.global(*id).len;
                for i in 0..len {
                    let i_bv = self.b.bv_const(i as u32);
                    let here = self.b.bv_eq(&idx_bv, &i_bv);
                    let g = self.b.and2(guard, here);
                    let old = self.globals[base + i].clone();
                    self.globals[base + i] = self.b.bv_ite(g, &value, &old);
                }
            }
            Place::Mem(addr) => {
                let a = self.eval(addr, frame)?;
                self.mem_writes.push(MemWrite {
                    enable: guard,
                    addr: a,
                    data: value,
                });
            }
        }
        Ok(())
    }

    fn mem_read(&mut self, addr: BitVec) -> BitVec {
        // Newest write wins; fall back to a consistent initial memory
        // (Ackermann expansion over previous initial reads), then to a
        // fresh unconstrained word — a device read can return anything.
        let fresh = self.b.bv_fresh();
        let mut result = fresh.clone();
        let initial = self.initial_reads.clone();
        for (r_addr, r_val) in initial.iter().rev() {
            let same = self.b.bv_eq(&addr, r_addr);
            result = self.b.bv_ite(same, r_val, &result);
        }
        self.initial_reads.push((addr.clone(), fresh));
        let writes: Vec<(Lit, BitVec, BitVec)> = self
            .mem_writes
            .iter()
            .map(|w| (w.enable, w.addr.clone(), w.data.clone()))
            .collect();
        for (enable, w_addr, w_data) in writes.iter() {
            let same = self.b.bv_eq(&addr, w_addr);
            let hit = self.b.and2(*enable, same);
            result = self.b.bv_ite(hit, w_data, &result);
        }
        result
    }

    fn eval_bool(&mut self, e: &IrExpr, frame: &Frame) -> Result<Lit, Abort> {
        let bv = self.eval(e, frame)?;
        Ok(self.b.bv_nonzero(&bv))
    }

    fn bv_from_lit(&mut self, l: Lit) -> BitVec {
        let mut bv = vec![self.b.fls(); crate::cnf::WIDTH];
        bv[0] = l;
        bv
    }

    fn eval(&mut self, e: &IrExpr, frame: &Frame) -> Result<BitVec, Abort> {
        Ok(match e {
            IrExpr::Const(v) => self.b.bv_const(*v as u32),
            IrExpr::Local(id) => frame.locals[id.0 as usize].clone(),
            IrExpr::Global(id) => self.globals[self.global_base[id.0 as usize]].clone(),
            IrExpr::GlobalElem(id, idx) => {
                let idx_bv = self.eval(idx, frame)?;
                let base = self.global_base[id.0 as usize];
                let len = self.prog.global(*id).len;
                let mut result = self.b.bv_const(0);
                for i in 0..len {
                    let i_bv = self.b.bv_const(i as u32);
                    let here = self.b.bv_eq(&idx_bv, &i_bv);
                    let elem = self.globals[base + i].clone();
                    result = self.b.bv_ite(here, &elem, &result);
                }
                result
            }
            IrExpr::MemRead(addr) => {
                let a = self.eval(addr, frame)?;
                self.mem_read(a)
            }
            IrExpr::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                match op {
                    UnOp::Neg => self.b.bv_neg(&v),
                    UnOp::BitNot => self.b.bv_not(&v),
                    UnOp::Not => {
                        let nz = self.b.bv_nonzero(&v);
                        self.bv_from_lit(nz.negate())
                    }
                }
            }
            IrExpr::Binary(op, a, b) => {
                let av = self.eval(a, frame)?;
                let bv = self.eval(b, frame)?;
                match op {
                    BinOp::Add => self.b.bv_add(&av, &bv),
                    BinOp::Sub => self.b.bv_sub(&av, &bv),
                    BinOp::Mul => self.b.bv_mul(&av, &bv),
                    BinOp::Div | BinOp::Rem => {
                        return Err(Abort::Unsupported(
                            "division/remainder in bit-level encoding".to_owned(),
                        ))
                    }
                    BinOp::BitAnd => self.b.bv_and(&av, &bv),
                    BinOp::BitOr => self.b.bv_or(&av, &bv),
                    BinOp::BitXor => self.b.bv_xor(&av, &bv),
                    BinOp::Shl => self.b.bv_shl(&av, &bv),
                    BinOp::Shr => self.b.bv_sra(&av, &bv),
                    BinOp::Eq => {
                        let l = self.b.bv_eq(&av, &bv);
                        self.bv_from_lit(l)
                    }
                    BinOp::Ne => {
                        let l = self.b.bv_eq(&av, &bv);
                        self.bv_from_lit(l.negate())
                    }
                    BinOp::Lt => {
                        let l = self.b.bv_slt(&av, &bv);
                        self.bv_from_lit(l)
                    }
                    BinOp::Le => {
                        let l = self.b.bv_slt(&bv, &av);
                        self.bv_from_lit(l.negate())
                    }
                    BinOp::Gt => {
                        let l = self.b.bv_slt(&bv, &av);
                        self.bv_from_lit(l)
                    }
                    BinOp::Ge => {
                        let l = self.b.bv_slt(&av, &bv);
                        self.bv_from_lit(l.negate())
                    }
                    BinOp::And => {
                        let la = self.b.bv_nonzero(&av);
                        let lb = self.b.bv_nonzero(&bv);
                        let l = self.b.and2(la, lb);
                        self.bv_from_lit(l)
                    }
                    BinOp::Or => {
                        let la = self.b.bv_nonzero(&av);
                        let lb = self.b.bv_nonzero(&bv);
                        let l = self.b.or2(la, lb);
                        self.bv_from_lit(l)
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::{lower, parse};

    fn run(src: &str, spec: SafetySpec) -> BmcOutcome {
        let ir = lower(&parse(src).expect("parse")).expect("typeck");
        check(&ir, &spec, BmcConfig::default()).expect("supported program")
    }

    #[test]
    fn proves_simple_program_correct() {
        let outcome = run(
            "int out = 0;
             int main() { out = 2 + 3; return out; }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![5],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn finds_violating_input() {
        let outcome = run(
            "int in = 0; int out = 0;
             int main() {
                 if (in == 7) { out = 99; } else { out = 1; }
                 return out;
             }",
            SafetySpec {
                inputs: vec![("in".to_owned(), 0, 10)],
                observed: "out".to_owned(),
                allowed: vec![1],
            },
        );
        match outcome {
            BmcOutcome::Violated { inputs, observed } => {
                assert_eq!(inputs, vec![("in".to_owned(), 7)]);
                assert_eq!(observed, 99);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn input_constraints_exclude_violations() {
        // The bad branch needs in == 7, but inputs are constrained to <= 5.
        let outcome = run(
            "int in = 0; int out = 0;
             int main() {
                 if (in == 7) { out = 99; } else { out = 1; }
                 return out;
             }",
            SafetySpec {
                inputs: vec![("in".to_owned(), 0, 5)],
                observed: "out".to_owned(),
                allowed: vec![1],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn bounded_loops_verify() {
        let outcome = run(
            "int out = 0;
             int main() {
                 int i = 0;
                 while (i < 10) { out = out + 2; i = i + 1; }
                 return out;
             }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![20],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn input_dependent_loop_hits_unwinding_limit() {
        // Loop bound depends on an input up to 100 — beyond the unwinding
        // bound of 20, reported as a resource-out, like CBMC's `> unwind`.
        let outcome = run(
            "int n = 0; int out = 0;
             int main() {
                 int i = 0;
                 while (i < n) { out = out + 1; i = i + 1; }
                 return out;
             }",
            SafetySpec {
                inputs: vec![("n".to_owned(), 0, 100)],
                observed: "out".to_owned(),
                allowed: vec![0, 1, 2, 3],
            },
        );
        match outcome {
            BmcOutcome::ResourceOut { reason, .. } => {
                assert!(reason.contains("unwinding"), "{reason}");
            }
            other => panic!("expected resource-out, got {other:?}"),
        }
    }

    #[test]
    fn function_calls_are_inlined() {
        let outcome = run(
            "int out = 0;
             int double(int x) { return x * 2; }
             int main() { out = double(double(3)); return out; }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![12],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn early_return_kills_later_statements() {
        let outcome = run(
            "int in = 0; int out = 0;
             int f() {
                 if (in > 5) { return 1; }
                 return 2;
             }
             int main() { out = f(); return out; }",
            SafetySpec {
                inputs: vec![("in".to_owned(), 0, 10)],
                observed: "out".to_owned(),
                allowed: vec![1, 2],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn break_and_continue_are_modelled() {
        let outcome = run(
            "int out = 0;
             int main() {
                 int i = 0;
                 while (true) {
                     i = i + 1;
                     if (i == 3) { continue; }
                     if (i >= 5) { break; }
                     out = out + 1;
                 }
                 return out;
             }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![3], // i = 1, 2, 4 increment
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn unconstrained_memory_reads_cause_false_reasoning() {
        // Reading a device register can return anything — without input
        // constraints the checker reports a (spurious) violation, exactly
        // the "false reasoning" the paper warns about.
        let outcome = run(
            "int out = 0;
             int main() { out = *(0x8000); return out; }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![0],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::Violated { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn memory_write_read_round_trip() {
        let outcome = run(
            "int out = 0;
             int main() { *(0x8000) = 42; out = *(0x8000); return out; }",
            SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![42],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn arrays_with_symbolic_index() {
        let outcome = run(
            "int tab[4] = {10, 20, 30, 40};
             int in = 0; int out = 0;
             int main() { out = tab[in]; return out; }",
            SafetySpec {
                inputs: vec![("in".to_owned(), 0, 3)],
                observed: "out".to_owned(),
                allowed: vec![10, 20, 30, 40],
            },
        );
        assert!(
            matches!(outcome, BmcOutcome::BoundedOk { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn division_is_unsupported() {
        let ir =
            lower(&parse("int out = 0; int main() { out = 6 / 2; return out; }").unwrap()).unwrap();
        let err = check(
            &ir,
            &SafetySpec {
                inputs: vec![],
                observed: "out".to_owned(),
                allowed: vec![3],
            },
            BmcConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("division"));
    }
}
