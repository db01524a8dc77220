//! Typed, resolved intermediate representation of mini-C programs.
//!
//! The IR is produced by the [type checker](crate::typeck) and consumed by
//! the [interpreter](crate::interp), the [code generator](crate::codegen)
//! and the formal checkers, which walk it directly. Its two invariants
//! matter to all of them:
//!
//! 1. **Calls are statements.** Nested calls are hoisted into temporaries by
//!    the lowering pass, so expression evaluation is pure. This is what
//!    gives the derived model its clean "one statement = one time step"
//!    semantics (paper Fig. 5).
//! 2. **Names are resolved.** Variables are [`GlobalId`]/[`LocalId`]
//!    indices; functions are [`FuncId`]s.

use std::fmt;

pub use crate::ast::{BinOp, Pos, UnOp};

/// Index of a global variable.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalId(pub u32);

/// Index of a function.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuncId(pub u32);

/// Index of a local slot within a function frame (parameters first).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LocalId(pub u32);

/// Index of a statement within a function's statement arena.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StmtId(pub u32);

/// Index of a statement sequence within a function (sequence 0 is the body).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SeqId(pub u32);

/// A value type (void exists only as an absent return type).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IrType {
    /// 32-bit signed integer.
    Int,
    /// Boolean stored as 0/1.
    Bool,
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IrType::Int => "int",
            IrType::Bool => "bool",
        })
    }
}

/// A lowered program.
#[derive(Clone, Debug)]
pub struct IrProgram {
    /// Globals in declaration order.
    pub globals: Vec<IrGlobal>,
    /// Functions in declaration order.
    pub functions: Vec<IrFunction>,
    /// The entry function (`main`), if defined.
    pub main: Option<FuncId>,
}

impl IrProgram {
    /// Looks up a global by source name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Looks up a function by source name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Returns a global's metadata.
    pub fn global(&self, id: GlobalId) -> &IrGlobal {
        &self.globals[id.0 as usize]
    }

    /// Returns a function's definition.
    pub fn func(&self, id: FuncId) -> &IrFunction {
        &self.functions[id.0 as usize]
    }

    /// Total number of statements across all functions (the paper reports
    /// its case study's size in lines/functions; this is our equivalent
    /// size metric).
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(|f| f.stmts.len()).sum()
    }
}

/// A global variable or array.
#[derive(Clone, Debug)]
pub struct IrGlobal {
    /// Source name.
    pub name: String,
    /// Element type.
    pub ty: IrType,
    /// Element count (1 for scalars).
    pub len: usize,
    /// Initial values, padded with zeros to `len`.
    pub init: Vec<i32>,
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct IrFunction {
    /// Source name.
    pub name: String,
    /// Number of leading locals that are parameters.
    pub param_count: usize,
    /// All local slots (parameters first, then declared locals and
    /// call-hoisting temporaries).
    pub locals: Vec<IrLocal>,
    /// Return type; `None` for void.
    pub ret: Option<IrType>,
    /// Statement arena.
    pub stmts: Vec<IrStmt>,
    /// Sequence arena; `seqs[0]` is the function body.
    pub seqs: Vec<Vec<StmtId>>,
}

impl IrFunction {
    /// The body sequence id.
    pub const BODY: SeqId = SeqId(0);

    /// Returns a statement by id.
    pub fn stmt(&self, id: StmtId) -> &IrStmt {
        &self.stmts[id.0 as usize]
    }

    /// Returns a sequence by id.
    pub fn seq(&self, id: SeqId) -> &[StmtId] {
        &self.seqs[id.0 as usize]
    }
}

/// A local slot.
#[derive(Clone, Debug)]
pub struct IrLocal {
    /// Source name (temporaries use `$t<n>`).
    pub name: String,
    /// Slot type.
    pub ty: IrType,
}

/// An assignable location.
#[derive(Clone, Debug)]
pub enum Place {
    /// A global scalar.
    Global(GlobalId),
    /// A global array element.
    GlobalElem(GlobalId, IrExpr),
    /// A local slot.
    Local(LocalId),
    /// A raw memory word.
    Mem(IrExpr),
}

/// A statement.
#[derive(Clone, Debug)]
pub enum IrStmt {
    /// `place = expr;`
    Assign {
        /// Target location.
        target: Place,
        /// Pure right-hand side.
        value: IrExpr,
        /// Source position.
        pos: Pos,
    },
    /// `place = f(args);` or `f(args);`
    Call {
        /// Destination for the return value.
        dst: Option<Place>,
        /// Callee.
        func: FuncId,
        /// Pure argument expressions.
        args: Vec<IrExpr>,
        /// Source position.
        pos: Pos,
    },
    /// `if (cond) seq else seq`
    If {
        /// Pure condition.
        cond: IrExpr,
        /// Then sequence.
        then_seq: SeqId,
        /// Else sequence (possibly empty).
        else_seq: SeqId,
        /// Source position.
        pos: Pos,
    },
    /// `while (cond) seq`
    While {
        /// Pure condition, re-evaluated each iteration.
        cond: IrExpr,
        /// Body sequence.
        body_seq: SeqId,
        /// Source position.
        pos: Pos,
    },
    /// `return;` / `return expr;`
    Return {
        /// Returned value.
        value: Option<IrExpr>,
        /// Source position.
        pos: Pos,
    },
    /// `break;`
    Break {
        /// Source position.
        pos: Pos,
    },
    /// `continue;`
    Continue {
        /// Source position.
        pos: Pos,
    },
}

impl IrStmt {
    /// Returns the source position.
    pub fn pos(&self) -> Pos {
        match self {
            IrStmt::Assign { pos, .. }
            | IrStmt::Call { pos, .. }
            | IrStmt::If { pos, .. }
            | IrStmt::While { pos, .. }
            | IrStmt::Return { pos, .. }
            | IrStmt::Break { pos }
            | IrStmt::Continue { pos } => *pos,
        }
    }
}

/// A pure expression (no calls — see module docs).
#[derive(Clone, Debug)]
pub enum IrExpr {
    /// Constant.
    Const(i32),
    /// Local slot read.
    Local(LocalId),
    /// Global scalar read.
    Global(GlobalId),
    /// Global array element read.
    GlobalElem(GlobalId, Box<IrExpr>),
    /// Raw memory word read `*(addr)`.
    MemRead(Box<IrExpr>),
    /// Unary operation.
    Unary(UnOp, Box<IrExpr>),
    /// Binary operation (`And`/`Or` short-circuit).
    Binary(BinOp, Box<IrExpr>, Box<IrExpr>),
}

impl IrExpr {
    /// Returns `true` if the expression reads raw memory anywhere.
    pub fn reads_memory(&self) -> bool {
        match self {
            IrExpr::Const(_) | IrExpr::Local(_) | IrExpr::Global(_) => false,
            IrExpr::GlobalElem(_, e) | IrExpr::Unary(_, e) => e.reads_memory(),
            IrExpr::MemRead(_) => true,
            IrExpr::Binary(_, a, b) => a.reads_memory() || b.reads_memory(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_memory_detects_derefs() {
        let e = IrExpr::Binary(
            BinOp::Add,
            Box::new(IrExpr::Const(1)),
            Box::new(IrExpr::MemRead(Box::new(IrExpr::Const(0x8000)))),
        );
        assert!(e.reads_memory());
        assert!(!IrExpr::Global(GlobalId(0)).reads_memory());
    }

    #[test]
    fn display_of_types() {
        assert_eq!(IrType::Int.to_string(), "int");
        assert_eq!(IrType::Bool.to_string(), "bool");
    }
}
