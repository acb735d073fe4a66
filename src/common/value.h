#ifndef PROMETHEUS_COMMON_VALUE_H_
#define PROMETHEUS_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/oid.h"
#include "common/result.h"

namespace prometheus {

/// The dynamic type of a `Value`.
///
/// These are the atomic ODMG literal types the thesis' model builds on
/// (section 4.2) plus `kRef` (an object reference, used by POOL results and
/// by attributes that point at other objects), `kList` (an ordered
/// collection, the thesis' `Collection` built-in, section 4.4.6) and
/// `kStruct` (an ordered set of named fields — the row shape of the virtual
/// `sys.*` system catalog, which has no Oids to hand out).
enum class ValueType : std::uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kRef,
  kList,
  kStruct,
};

/// Returns the canonical name of a value type ("int", "string", ...).
const char* ValueTypeName(ValueType type);

/// A dynamically typed attribute value.
///
/// Objects, relationship instances and POOL expressions all manipulate
/// `Value`s. The class is a small tagged union; copies are value copies
/// (lists copy their elements). Object references are held as bare Oids —
/// a `Value` never owns database storage.
class Value {
 public:
  /// List payload type.
  using List = std::vector<Value>;

  /// Struct payload type: an ordered sequence of named fields. Field order is
  /// preserved (it is the declaration order of the producing catalog class),
  /// and names are unique by construction.
  using Struct = std::vector<std::pair<std::string, Value>>;

  /// Constructs a null value.
  Value() : data_(std::monostate{}) {}

  /// Typed factories. A plain `Oid` would be ambiguous with `int64_t`, so
  /// references are built with `Value::Ref`.
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value Int(std::int64_t v) { return Value(Payload(v)); }
  static Value Double(double v) { return Value(Payload(v)); }
  static Value String(std::string v) { return Value(Payload(std::move(v))); }
  static Value Ref(Oid oid) { return Value(Payload(RefTag{oid})); }
  static Value MakeList(List v) { return Value(Payload(std::move(v))); }
  static Value MakeStruct(Struct v) { return Value(Payload(std::move(v))); }

  /// The dynamic type tag.
  ValueType type() const;

  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; each must only be called when `type()` matches.
  bool AsBool() const { return std::get<bool>(data_); }
  std::int64_t AsInt() const { return std::get<std::int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  Oid AsRef() const { return std::get<RefTag>(data_).oid; }
  const List& AsList() const { return std::get<List>(data_); }
  List& AsList() { return std::get<List>(data_); }
  const Struct& AsStruct() const { return std::get<Struct>(data_); }
  Struct& AsStruct() { return std::get<Struct>(data_); }

  /// Looks up a struct field by name. Returns null if the value is not a
  /// struct; callers that need typo diagnostics check `HasField` first.
  const Value* Field(const std::string& name) const;
  bool HasField(const std::string& name) const;

  /// Numeric coercion: int and double convert to double; anything else is an
  /// error. Used by POOL arithmetic and comparisons.
  Result<double> ToNumeric() const;

  /// Structural equality. Int/double compare numerically (so `1 == 1.0`);
  /// null equals only null.
  bool Equals(const Value& other) const;

  /// Three-way ordering for order-comparable values (numerics, strings,
  /// bools, refs). Returns an error for nulls, lists, or mixed
  /// incomparable types. `-1`, `0`, `1`.
  Result<int> Compare(const Value& other) const;

  /// Renders the value for diagnostics and benchmark/report output: a
  /// string quoted, a reference as `@oid`, a double as `%g` formats it,
  /// lists and structs nested as `[a, b]` and `{name: v}`.
  std::string ToString() const;

  /// Appends the `ToString()` text to `*out` without building a temporary
  /// string. `ToString()` is this, into an empty string.
  void AppendText(std::string* out) const;

  /// A stable key usable in hash indexes. Values with different types have
  /// different keys except for numerically equal int/double pairs.
  std::string IndexKey() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Equals(b);
  }

 private:
  /// Wrapper so Oid refs occupy a distinct variant alternative from ints.
  struct RefTag {
    Oid oid;
    bool operator==(const RefTag& o) const { return oid == o.oid; }
  };

  using Payload = std::variant<std::monostate, bool, std::int64_t, double,
                               std::string, RefTag, List, Struct>;

  explicit Value(Payload p) : data_(std::move(p)) {}

  Payload data_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_COMMON_VALUE_H_
