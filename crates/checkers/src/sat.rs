//! A CDCL SAT solver.
//!
//! Conflict-driven clause learning with two-watched-literal propagation,
//! VSIDS-style activity decision heuristic, phase saving, first-UIP conflict
//! analysis and geometric restarts. Deliberately compact; the bounded model
//! checker is its only demanding client.

use std::fmt;
use std::time::Instant;

/// The solver reads the clock once per this many search rounds (each a
/// conflict, a restart or a decision) when it runs against a deadline.
/// Decisions count too: a decision scans every variable, so a long
/// conflict-free stretch can outlast many conflicts.
const DEADLINE_POLL: u64 = 64;

/// A propositional variable (0-based).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

/// A literal: variable plus polarity.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for negated literals.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

/// Outcome of a solve call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The conflict budget or the deadline ran out before a decision was
    /// reached.
    Unknown,
}

impl SatResult {
    /// Returns `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Value {
    True,
    False,
    Unassigned,
}

/// Solver statistics.
#[derive(Copy, Clone, Debug, Default)]
pub struct SolverStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

/// The solver.
///
/// # Examples
///
/// ```
/// use checkers::sat::{Lit, SatResult, Solver, Var};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// match s.solve(u64::MAX) {
///     SatResult::Sat(model) => assert!(model[b.0 as usize]),
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>, // per literal: clause indices watching it
    values: Vec<Value>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    unsat: bool,
    stats: SolverStats,
    seen: Vec<bool>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            unsat: false,
            stats: SolverStats::default(),
            seen: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.values.len() as u32);
        self.values.push(Value::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn value_of(&self, lit: Lit) -> Value {
        match self.values[lit.var().0 as usize] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if lit.is_neg() {
                    Value::False
                } else {
                    Value::True
                }
            }
            Value::False => {
                if lit.is_neg() {
                    Value::True
                } else {
                    Value::False
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Duplicate literals are merged; tautologies ignored.
    ///
    /// # Panics
    ///
    /// Panics if called after solving started a non-root decision level
    /// (incremental solving under assumptions is not supported) or if a
    /// literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert_eq!(self.decision_level(), 0, "clauses must be added at root");
        if self.unsat {
            return;
        }
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        for &l in &clause {
            assert!(
                (l.var().0 as usize) < self.num_vars(),
                "literal references unallocated variable"
            );
        }
        // Tautology?
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        // Remove literals already false at root; satisfied at root → drop.
        let mut reduced = Vec::with_capacity(clause.len());
        for &l in &clause {
            match self.value_of(l) {
                Value::True => return,
                Value::False => {}
                Value::Unassigned => reduced.push(l),
            }
        }
        match reduced.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(reduced[0], None) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[reduced[0].index()].push(idx);
                self.watches[reduced[1].index()].push(idx);
                self.clauses.push(reduced);
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) -> bool {
        match self.value_of(lit) {
            Value::False => false,
            Value::True => true,
            Value::Unassigned => {
                let v = lit.var().0 as usize;
                self.values[v] = if lit.is_neg() {
                    Value::False
                } else {
                    Value::True
                };
                self.phase[v] = !lit.is_neg();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let falsified = lit.negate();
            let mut watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Ensure the falsified literal is at position 1.
                {
                    let clause = &mut self.clauses[ci as usize];
                    if clause[0] == falsified {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], falsified);
                }
                let first = self.clauses[ci as usize][0];
                if self.value_of(first) == Value::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                let clause_len = self.clauses[ci as usize].len();
                for k in 2..clause_len {
                    let candidate = self.clauses[ci as usize][k];
                    if self.value_of(candidate) != Value::False {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[candidate.index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict.
                if !self.enqueue(first, Some(ci)) {
                    // Conflict: restore remaining watches.
                    self.watches[falsified.index()].append(&mut watch_list);
                    self.prop_head = self.trail.len();
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[falsified.index()].extend(watch_list);
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.act_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backtrack level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learned = vec![Lit(0)]; // slot 0 reserved for the UIP
        let mut counter = 0u32;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let mut uip = None;
        let current = self.decision_level();

        loop {
            let clause = self.clauses[clause_idx as usize].clone();
            // Skip the asserting literal on continuation rounds (position 0
            // holds the literal we resolved on).
            let start = if uip.is_none() { 0 } else { 1 };
            for &q in &clause[start..] {
                let v = q.var();
                if !self.seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    self.seen[v.0 as usize] = true;
                    self.bump(v);
                    if self.level[v.0 as usize] == current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Pick the next literal from the trail to resolve on.
            loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if self.seen[lit.var().0 as usize] {
                    uip = Some(lit);
                    break;
                }
            }
            let lit = uip.expect("trail contains a seen literal");
            counter -= 1;
            self.seen[lit.var().0 as usize] = false;
            if counter == 0 {
                learned[0] = lit.negate();
                break;
            }
            clause_idx =
                self.reason[lit.var().0 as usize].expect("non-decision literals have reasons");
            // Put the resolved literal at position 0 of the borrowed copy
            // convention: our reasons store the implied literal first.
        }
        for &l in &learned[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        // Backtrack level: second-highest level in the clause.
        let mut bt = 0;
        let mut second_pos = 1;
        for (i, &l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bt {
                bt = lv;
                second_pos = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, second_pos);
        }
        (learned, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("levels match trail limits");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail non-empty above limit");
                let v = lit.var().0 as usize;
                self.values[v] = Value::Unassigned;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<(f64, usize)> = None;
        for (v, &val) in self.values.iter().enumerate() {
            if val == Value::Unassigned {
                let act = self.activity[v];
                if best.is_none_or(|(b, _)| act > b) {
                    best = Some((act, v));
                }
            }
        }
        match best {
            None => false,
            Some((_, v)) => {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[v] {
                    Lit::pos(Var(v as u32))
                } else {
                    Lit::neg(Var(v as u32))
                };
                let ok = self.enqueue(lit, None);
                debug_assert!(ok, "decision on unassigned variable");
                true
            }
        }
    }

    /// Solves with a conflict budget; [`SatResult::Unknown`] when exceeded.
    pub fn solve(&mut self, max_conflicts: u64) -> SatResult {
        self.solve_until(max_conflicts, None)
    }

    /// Like [`Solver::solve`], but also gives up with
    /// [`SatResult::Unknown`] once `deadline` has passed. The clock is read
    /// every [`DEADLINE_POLL`] search rounds, so the overshoot is a few
    /// rounds' work.
    pub fn solve_until(&mut self, max_conflicts: u64, deadline: Option<Instant>) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            if rounds.is_multiple_of(DEADLINE_POLL) && deadline.is_some_and(|d| Instant::now() >= d)
            {
                self.backtrack(0);
                return SatResult::Unknown;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.stats.conflicts > max_conflicts {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (learned, bt) = self.analyze(conflict);
                self.backtrack(bt);
                self.act_inc *= 1.0 / 0.95;
                if learned.len() == 1 {
                    let ok = self.enqueue(learned[0], None);
                    if !ok {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watches[learned[0].index()].push(idx);
                    self.watches[learned[1].index()].push(idx);
                    let asserting = learned[0];
                    self.clauses.push(learned);
                    self.stats.learned += 1;
                    let ok = self.enqueue(asserting, Some(idx));
                    debug_assert!(ok, "asserting literal is unassigned after backtrack");
                }
            } else if conflicts_since_restart >= restart_limit {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_limit = restart_limit * 3 / 2;
                self.backtrack(0);
            } else if !self.decide() {
                let model = self.values.iter().map(|&v| v == Value::True).collect();
                self.backtrack(0);
                return SatResult::Sat(model);
            }
        }
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.num_vars())
            .field("clauses", &self.num_clauses())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32, vars: &[Var]) -> Lit {
        if i > 0 {
            Lit::pos(vars[(i - 1) as usize])
        } else {
            Lit::neg(vars[(-i - 1) as usize])
        }
    }

    fn solve_clauses(n: usize, clauses: &[&[i32]]) -> SatResult {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(i, &vars)).collect();
            s.add_clause(&lits);
        }
        s.solve(1_000_000)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(solve_clauses(1, &[&[1]]).is_sat());
        assert_eq!(solve_clauses(1, &[&[1], &[-1]]), SatResult::Unsat);
        assert_eq!(solve_clauses(0, &[&[]]), SatResult::Unsat);
    }

    #[test]
    fn models_satisfy_clauses() {
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, 3], &[-2, -3], &[2, 3]];
        match solve_clauses(3, clauses) {
            SatResult::Sat(m) => {
                let val = |i: i32| {
                    if i > 0 {
                        m[(i - 1) as usize]
                    } else {
                        !m[(-i - 1) as usize]
                    }
                };
                for c in clauses {
                    assert!(c.iter().any(|&i| val(i)), "clause {c:?} unsatisfied");
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // 2 pigeons, 1 hole: p1h1, p2h1, not both.
        assert_eq!(solve_clauses(2, &[&[1], &[2], &[-1, -2]]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_php43_is_unsat() {
        // 4 pigeons, 3 holes; var (p,h) = p*3 + h + 1.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..12).map(|_| s.new_var()).collect();
        let v = |p: usize, h: usize| Lit::pos(vars[p * 3 + h]);
        // Every pigeon in some hole.
        for p in 0..4 {
            s.add_clause(&[v(p, 0), v(p, 1), v(p, 2)]);
        }
        // No two pigeons share a hole.
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(&[v(p1, h).negate(), v(p2, h).negate()]);
                }
            }
        }
        assert_eq!(s.solve(1_000_000), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn passed_deadline_gives_up_and_leaves_the_solver_usable() {
        // 6 pigeons, 5 holes: unsat, but only after hundreds of conflicts.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        let v = |p: usize, h: usize| Lit::pos(vars[p * 5 + h]);
        for p in 0..6 {
            let holes: Vec<Lit> = (0..5).map(|h| v(p, h)).collect();
            s.add_clause(&holes);
        }
        for h in 0..5 {
            for p1 in 0..6 {
                for p2 in (p1 + 1)..6 {
                    s.add_clause(&[v(p1, h).negate(), v(p2, h).negate()]);
                }
            }
        }
        assert_eq!(
            s.solve_until(u64::MAX, Some(Instant::now())),
            SatResult::Unknown
        );
        assert_eq!(s.solve(u64::MAX), SatResult::Unsat);
    }

    #[test]
    fn unknown_on_tiny_budget() {
        // A moderately hard instance with budget 0 conflicts.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        // Random-ish xor-like chains to force conflicts.
        for w in vars.windows(3) {
            s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1]), Lit::pos(w[2])]);
            s.add_clause(&[Lit::neg(w[0]), Lit::neg(w[1]), Lit::pos(w[2])]);
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1]), Lit::neg(w[2])]);
            s.add_clause(&[Lit::pos(w[0]), Lit::neg(w[1]), Lit::neg(w[2])]);
        }
        s.add_clause(&[Lit::pos(vars[0])]);
        s.add_clause(&[Lit::neg(vars[19])]);
        match s.solve(0) {
            SatResult::Unknown | SatResult::Unsat | SatResult::Sat(_) => {}
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(a)]);
        s.add_clause(&[Lit::pos(a), Lit::neg(a)]); // tautology: ignored
        assert!(s.solve(1000).is_sat());
    }

    #[test]
    fn chained_implications_propagate() {
        // x1 ∧ (x1→x2) ∧ ... ∧ (x9→x10) ∧ ¬x10 is unsat.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::neg(vars[9])]);
        assert_eq!(s.solve(1000), SatResult::Unsat);
    }

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var(5);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::pos(v).negate().is_neg());
        assert_eq!(Lit::pos(v).negate().negate(), Lit::pos(v));
        assert_eq!(Lit::neg(v).to_string(), "-6");
    }
}
