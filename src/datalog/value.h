#ifndef TEMPLEX_DATALOG_VALUE_H_
#define TEMPLEX_DATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace templex {

// A ground value of the relational domain: the constants C of the paper's
// preliminaries, plus labelled nulls N (produced by existential quantifiers)
// and booleans/numbers needed by the Vadalog extensions (comparisons,
// arithmetic, aggregation).
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kLabeledNull };

  // Default-constructed value is the (untyped) null.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }
  // A labelled null z_i introduced by an existential variable.
  static Value LabeledNull(int64_t id) { return Value(Repr(NullId{id})); }

  Kind kind() const;

  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_labeled_null() const { return kind() == Kind::kLabeledNull; }
  bool is_numeric() const { return is_int() || is_double(); }

  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const {
    return std::get<std::string>(repr_);
  }
  int64_t labeled_null_id() const { return std::get<NullId>(repr_).id; }

  // Numeric value as double; requires is_numeric().
  double AsDouble() const;

  // Structural equality. Int and double compare numerically (Int(2) ==
  // Double(2.0)) so that arithmetic results unify with integer constants.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order used for deterministic iteration: by kind, then value
  // (numerics compare cross-kind by numeric value).
  bool operator<(const Value& other) const;

  // Datalog literal syntax: strings quoted ("A"), numbers bare, nulls as
  // _:z<id>.
  std::string ToString() const;

  // Natural-language rendering: strings unquoted, numbers via FormatDouble.
  std::string ToDisplayString() const;

  size_t Hash() const;

  // Content-based footprint (common/memory.h accounting): the inline
  // representation plus string length — never allocator capacities — so two
  // runs holding equal values account equal bytes regardless of thread
  // count or checkpoint resume.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(sizeof(Value)) +
           (is_string() ? static_cast<int64_t>(string_value().size()) : 0);
  }

 private:
  struct NullId {
    int64_t id;
    bool operator==(const NullId& o) const { return id == o.id; }
  };
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string,
                            NullId>;

  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace templex

#endif  // TEMPLEX_DATALOG_VALUE_H_
