// Value: the dynamically-typed cell used throughout the engine.
//
// Every relational datum flowing through the SQL frontend, the MapReduce
// runtime and the reference executor is a Value: SQL NULL, a 64-bit
// integer, a double, or a string. Values order NULLs first (as a total
// order for sorting/grouping) and compare with SQL three-valued semantics
// via the sql_* helpers in expr_eval.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace ysmart {

enum class ValueType { Null, Int, Double, String };

/// int64 `+`, `-` or `*` (`op` is '+', '-' or '*') with two's-complement
/// wraparound. Computed in uint64_t, so overflow is defined instead of
/// undefined behaviour, and every int64 arithmetic site — the row
/// evaluator, the batch kernels and SUM accumulation — gives the same
/// bits. Unary minus is int64_wrap('-', 0, x).
constexpr std::int64_t int64_wrap(char op, std::int64_t a, std::int64_t b) {
  const auto x = static_cast<std::uint64_t>(a);
  const auto y = static_cast<std::uint64_t>(b);
  return static_cast<std::int64_t>(op == '+' ? x + y : op == '-' ? x - y : x * y);
}

/// Human-readable name of a ValueType ("NULL", "INT", ...).
const char* to_string(ValueType t);

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(std::int64_t i) : v_(i) {}          // NOLINT(google-explicit-constructor)
  Value(int i) : v_(std::int64_t{i}) {}     // NOLINT(google-explicit-constructor)
  Value(double d) : v_(d) {}                // NOLINT(google-explicit-constructor)
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT(google-explicit-constructor)

  static Value null() { return Value{}; }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::Null; }

  /// Accessors; each throws Error if the value holds a different type.
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Numeric coercion: Int or Double -> double. Throws on NULL/String.
  double numeric() const;

  /// Render for output (NULL prints as "NULL"; doubles with %.4f trimming).
  std::string to_string() const;

  /// Serialized size in bytes as accounted by the MR cost model.
  std::size_t byte_size() const;

  /// Total order used for sorting, grouping, joining and comparison
  /// operators: NULL < Int/Double < String, with Int and Double compared
  /// numerically against each other under compare_double's order.
  std::strong_ordering compare(const Value& other) const;

  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  /// Stable hash consistent with compare()'s equality (1 and 1.0 collide,
  /// as do -0.0 and +0.0, and every NaN payload).
  std::size_t hash() const;

  /// Serialize to / parse from the compact wire format used by the DFS
  /// text files and the shuffle byte accounting.
  void encode(std::string& out) const;
  static Value decode(const std::string& in, std::size_t& pos);

  template <typename T>
  friend std::strong_ordering compare_numeric(T a, const Value& b);

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

/// Byte size of a whole row (sum of cells plus per-row framing).
std::size_t row_byte_size(const Row& r);

std::string row_to_string(const Row& r);

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};

struct RowHash {
  std::size_t operator()(const Row& r) const;
};

/// The one numeric order: a total order on doubles in which -0.0 equals
/// +0.0, every NaN equals every other NaN, and NaN sorts above +inf (the
/// slot the normalized key encodes, and PostgreSQL's order). Inline so
/// the batch kernels and the typed aggregate adds call it per element.
inline std::strong_ordering compare_double(double a, double b) {
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  if (a == b) return std::strong_ordering::equal;
  return std::isnan(a) <=> std::isnan(b);  // at least one is NaN
}

/// Exact three-way comparison of an int64 against a double under the
/// same order — never casts the int to double (which would collapse
/// neighbours beyond 2^53); NaN sorts above every int.
std::strong_ordering compare_int_double(std::int64_t i, double d);

/// The numeric order over every pair of Int and Double operands, so a
/// caller holding typed values writes no dispatch or reversal of its own.
inline std::strong_ordering compare_numeric(std::int64_t a, std::int64_t b) {
  return a <=> b;
}
inline std::strong_ordering compare_numeric(std::int64_t a, double b) {
  return compare_int_double(a, b);
}
inline std::strong_ordering compare_numeric(double a, std::int64_t b) {
  return 0 <=> compare_int_double(b, a);
}
inline std::strong_ordering compare_numeric(double a, double b) {
  return compare_double(a, b);
}

/// `a` against `b`, which must hold an Int or a Double. A friend, so the
/// hot Value::compare reads the cell inline instead of calling as_int().
template <typename T>
std::strong_ordering compare_numeric(T a, const Value& b) {
  return b.type() == ValueType::Int
             ? compare_numeric(a, std::get<std::int64_t>(b.v_))
             : compare_numeric(a, std::get<double>(b.v_));
}

/// Lexicographic comparison of rows under Value::compare.
std::strong_ordering compare_rows(const Row& a, const Row& b);

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return compare_rows(a, b) < 0;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return compare_rows(a, b) == 0;
  }
};

}  // namespace ysmart
