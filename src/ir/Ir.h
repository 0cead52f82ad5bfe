//===- ir/Ir.h - Intermediate representation ---------------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's intermediate representation: "a simplified version of the
/// abstract syntax tree with all types explicit and variables given unique
/// identifiers" (Sect. 5.1). Statements form a tree (no CFG) because the
/// abstract interpreter executes compositionally, by induction on the syntax
/// (Sect. 5.2). Side effects have been hoisted out of expressions; function
/// calls, the synchronous `wait`, and assume/assert directives are
/// statements.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_IR_IR_H
#define ASTRAL_IR_IR_H

#include "lang/Type.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace astral {
namespace ir {

using VarId = uint32_t;
using FuncId = uint32_t;
inline constexpr VarId NoVar = std::numeric_limits<VarId>::max();
inline constexpr FuncId NoFunc = std::numeric_limits<FuncId>::max();

/// Static information about one program variable.
struct VarInfo {
  std::string Name;
  const Type *Ty = nullptr;
  bool IsVolatile = false;
  bool IsConst = false;
  /// Globals and statics persist across the synchronous loop; locals and
  /// temporaries are per-activation.
  bool IsPersistent = false;
  bool IsParam = false;
  /// Pointer parameter: bound to a caller lvalue at each (inlined) call.
  bool IsRef = false;
  /// Compiler-introduced temporary.
  bool IsTemp = false;
  FuncId Owner = NoFunc;
  /// Result of the frontend usage census; unused globals are not given cells
  /// (Sect. 5.1 "unused global variables are then deleted").
  bool IsUsed = true;
};

class Expr;

/// One step of an lvalue path.
struct Access {
  enum class Kind : uint8_t { Field, Index, Deref } K;
  int FieldIdx = -1;        ///< Field.
  const Expr *Index = nullptr; ///< Index (null for Field/Deref).
};

/// A typed reference to a storage location: base variable plus a path of
/// field selections, array subscripts and (for by-reference parameters) one
/// leading dereference.
struct LValue {
  VarId Base = NoVar;
  std::vector<Access> Path;
  const Type *Ty = nullptr; ///< Type of the designated location.
  SourceLocation Loc;
};

enum class ExprKind : uint8_t { ConstInt, ConstFloat, Load, Unary, Binary,
                                Cast };
enum class UnOp : uint8_t { Neg, LogicalNot, BitNot };
enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Rem,
  Shl, Shr, And, Or, Xor,
  Lt, Le, Gt, Ge, Eq, Ne,
  LogicalAnd, LogicalOr,
};

inline bool isComparison(BinOp Op) {
  switch (Op) {
  case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
  case BinOp::Eq: case BinOp::Ne:
    return true;
  default:
    return false;
  }
}

/// The comparison that holds exactly when \p Op fails: `a < b` fails
/// exactly when `a >= b` holds. Other operators map to themselves.
inline BinOp negate(BinOp Op) {
  switch (Op) {
  case BinOp::Lt: return BinOp::Ge;
  case BinOp::Le: return BinOp::Gt;
  case BinOp::Gt: return BinOp::Le;
  case BinOp::Ge: return BinOp::Lt;
  case BinOp::Eq: return BinOp::Ne;
  case BinOp::Ne: return BinOp::Eq;
  default: return Op;
  }
}

/// The comparison with its operands swapped: `a < b` is `b > a`. Other
/// operators map to themselves.
inline BinOp mirror(BinOp Op) {
  switch (Op) {
  case BinOp::Lt: return BinOp::Gt;
  case BinOp::Le: return BinOp::Ge;
  case BinOp::Gt: return BinOp::Lt;
  case BinOp::Ge: return BinOp::Le;
  default: return Op;
  }
}

/// A side-effect-free typed expression.
class Expr {
public:
  ExprKind Kind;
  const Type *Ty = nullptr;
  SourceLocation Loc;
  /// Unique program point; alarms attach here.
  uint32_t Point = 0;

  int64_t IntVal = 0;
  double FloatVal = 0.0;
  LValue Lv;       ///< Load.
  UnOp UO = UnOp::Neg;
  BinOp BO = BinOp::Add;
  const Expr *A = nullptr;
  const Expr *B = nullptr;

  bool is(ExprKind K) const { return Kind == K; }
  bool isConst() const {
    return Kind == ExprKind::ConstInt || Kind == ExprKind::ConstFloat;
  }
};

enum class StmtKind : uint8_t {
  Assign,
  If,
  While,
  Seq,
  Call,
  Return,
  Break,
  Continue,
  Wait,    ///< Synchronous clock tick (end of the periodic loop body).
  Assume,  ///< __astral_assume(c): refine by c.
  Assert,  ///< __astral_assert(c): alarm when c may fail, then refine by c.
  Nop,
};

struct CallArg {
  bool IsRef = false;
  const Expr *Value = nullptr; ///< Value argument.
  LValue Ref;                  ///< Reference argument.
};

class Stmt {
public:
  StmtKind Kind;
  SourceLocation Loc;
  uint32_t Point = 0;

  // Assign.
  LValue Lhs;
  const Expr *Rhs = nullptr;

  // If / While / Assume / Assert.
  const Expr *Cond = nullptr;
  Stmt *Then = nullptr;
  Stmt *Else = nullptr;

  // While.
  Stmt *Body = nullptr;
  Stmt *Step = nullptr; ///< For-loop step, re-run after `continue`.
  uint32_t LoopId = 0;

  // Seq.
  std::vector<Stmt *> Stmts;

  // Call.
  FuncId Callee = NoFunc;
  std::vector<CallArg> Args;
  std::optional<LValue> RetTo;

  // Return.
  const Expr *RetVal = nullptr;

  bool is(StmtKind K) const { return Kind == K; }
};

struct Function {
  std::string Name;
  FuncId Id = NoFunc;
  const Type *RetTy = nullptr;
  std::vector<VarId> Params;
  Stmt *Body = nullptr;
  /// Synthesized holder for the return value (NoVar for void).
  VarId RetVar = NoVar;
};

/// A whole analyzable program.
struct Program {
  std::vector<VarInfo> Vars;
  std::vector<Function> Functions;
  FuncId Entry = NoFunc;
  /// Initialization of globals/statics, run once before the entry function.
  Stmt *GlobalInit = nullptr;
  uint32_t NumPoints = 0;
  uint32_t NumLoops = 0;

  const VarInfo &var(VarId V) const { return Vars[V]; }
  const Function *function(FuncId F) const {
    return F < Functions.size() ? &Functions[F] : nullptr;
  }
  const Function *findFunction(const std::string &Name) const {
    for (const Function &F : Functions)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }

  /// Node arena.
  Expr *newExpr(ExprKind K, const Type *Ty, SourceLocation Loc) {
    ExprArena.emplace_back();
    Expr *E = &ExprArena.back();
    E->Kind = K;
    E->Ty = Ty;
    E->Loc = Loc;
    E->Point = NumPoints++;
    return E;
  }
  Stmt *newStmt(StmtKind K, SourceLocation Loc) {
    StmtArena.emplace_back();
    Stmt *S = &StmtArena.back();
    S->Kind = K;
    S->Loc = Loc;
    S->Point = NumPoints++;
    return S;
  }

  /// Pretty-printer for debugging and golden tests.
  std::string dump() const;

private:
  std::deque<Expr> ExprArena;
  std::deque<Stmt> StmtArena;
};

/// Renders an expression (for invariant dumps and tests).
std::string exprToString(const Program &P, const Expr *E);
/// Renders an lvalue.
std::string lvalueToString(const Program &P, const LValue &Lv);
/// Renders a statement tree with indentation.
std::string stmtToString(const Program &P, const Stmt *S, int Indent = 0);

} // namespace ir
} // namespace astral

#endif // ASTRAL_IR_IR_H
