//===- lang/Type.h - C-subset type system ------------------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types for the reduced C subset: machine integers of explicit widths
/// (Sect. 5.3: "the sizes of the arithmetic types" are part of the target
/// environment the iterator knows about), IEEE binary32/binary64 floats,
/// arrays, records, restricted pointers and function types. Types are
/// interned in a TypeContext so equality is pointer equality.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_LANG_TYPE_H
#define ASTRAL_LANG_TYPE_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace astral {

class Type;

enum class TypeKind : uint8_t {
  Void,
  Int,     ///< Machine integer (enums and _Bool included).
  Float,   ///< IEEE binary32 or binary64.
  Array,
  Pointer, ///< Only for by-reference parameters (Sect. 4).
  Struct,
  Function,
};

struct StructField {
  std::string Name;
  const Type *FieldType;
};

/// An interned, immutable type.
class Type {
public:
  TypeKind Kind;

  // Int.
  unsigned IntWidth = 0; ///< 8, 16, 32 or 64.
  bool IntSigned = true;
  bool IsBool = false;   ///< _Bool: also flags decision-tree candidates.

  // Float.
  bool IsDouble = false;

  // Array.
  const Type *Elem = nullptr;
  uint64_t ArraySize = 0;

  // Pointer.
  const Type *Pointee = nullptr;

  // Struct.
  std::string StructName;
  std::vector<StructField> Fields;
  bool StructComplete = false;

  // Function.
  const Type *Ret = nullptr;
  std::vector<const Type *> Params;

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isInt() const { return Kind == TypeKind::Int; }
  bool isFloat() const { return Kind == TypeKind::Float; }
  bool isArithmetic() const { return isInt() || isFloat(); }
  bool isScalar() const { return isArithmetic() || isPointer(); }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isStruct() const { return Kind == TypeKind::Struct; }

  /// Smallest representable value of an integer type.
  int64_t intMin() const {
    assert(isInt());
    if (!IntSigned)
      return 0;
    return IntWidth == 64 ? INT64_MIN
                          : -(int64_t(1) << (IntWidth - 1));
  }
  /// Largest representable value of an integer type (as signed 64-bit; for
  /// unsigned 64-bit this saturates at INT64_MAX, which is sound for the
  /// interval domain since we track integer cells in int64 space).
  int64_t intMax() const {
    assert(isInt());
    if (IntSigned)
      return IntWidth == 64 ? INT64_MAX
                            : (int64_t(1) << (IntWidth - 1)) - 1;
    return IntWidth >= 63 ? INT64_MAX
                          : (int64_t(1) << IntWidth) - 1;
  }

  /// Largest finite magnitude of a float type.
  double floatMax() const {
    assert(isFloat());
    return IsDouble ? 1.7976931348623157e308 : 3.4028234663852886e38;
  }

  int fieldIndex(const std::string &Name) const {
    assert(isStruct());
    for (size_t I = 0; I < Fields.size(); ++I)
      if (Fields[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  /// Human-readable rendering ("unsigned int", "float[8]", ...).
  std::string toString() const;
};

/// Interns types; owns all Type objects. Equality of interned types is
/// pointer equality.
class TypeContext {
public:
  TypeContext();

  const Type *voidType() const { return VoidTy; }
  const Type *boolType() const { return BoolTy; }
  const Type *intType(unsigned Width, bool Signed);
  const Type *floatType() const { return FloatTy; }
  const Type *doubleType() const { return DoubleTy; }
  const Type *arrayType(const Type *Elem, uint64_t Size);
  const Type *pointerType(const Type *Pointee);
  /// Finds or creates the (possibly incomplete) struct named \p Name.
  Type *structType(const std::string &Name);
  const Type *functionType(const Type *Ret,
                           std::vector<const Type *> Params);

  /// The type `int` on the target (32-bit signed).
  const Type *intTy() { return intType(32, true); }

private:
  Type *create();

  std::deque<Type> Storage;
  const Type *VoidTy;
  const Type *BoolTy;
  const Type *FloatTy;
  const Type *DoubleTy;
  std::map<std::pair<unsigned, bool>, const Type *> IntTypes;
  std::map<std::pair<const Type *, uint64_t>, const Type *> ArrayTypes;
  std::map<const Type *, const Type *> PointerTypes;
  std::map<std::string, Type *> StructTypes;
  std::vector<const Type *> FunctionTypes;
};

} // namespace astral

#endif // ASTRAL_LANG_TYPE_H
