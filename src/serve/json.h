// Minimal JSON value / parser / writer for the serve wire protocol.
//
// The protocol (see server.h) exchanges one JSON object per line, so this
// module only needs the JSON core: null/bool/number/string/array/object,
// strict parsing with position-annotated errors, and a writer whose number
// formatting round-trips doubles (shortest form via %.17g, integers
// printed without an exponent). Object member order is preserved — replies
// are stable for tests and for humans reading a session transcript.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace skewopt::serve::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  Value(double n) : type_(Type::kNumber), num_(n) {}       // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}          // NOLINT
  Value(std::int64_t n) : Value(static_cast<double>(n)) {} // NOLINT
  Value(std::uint64_t n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}          // NOLINT

  static Value array() { Value v; v.type_ = Type::kArray; return v; }
  static Value object() { Value v; v.type_ = Type::kObject; return v; }

  Type type() const { return type_; }
  bool isBool() const { return type_ == Type::kBool; }
  bool isNumber() const { return type_ == Type::kNumber; }
  bool isString() const { return type_ == Type::kString; }
  bool isArray() const { return type_ == Type::kArray; }
  bool isObject() const { return type_ == Type::kObject; }

  bool asBool() const { return bool_; }
  double asDouble() const { return num_; }
  const std::string& asString() const { return str_; }

  // -- arrays ---------------------------------------------------------------
  std::size_t size() const { return arr_.size(); }
  const Value& at(std::size_t i) const { return arr_[i]; }
  void push(Value v) { arr_.push_back(std::move(v)); }
  const std::vector<Value>& items() const { return arr_; }

  // -- objects (member order preserved) -------------------------------------
  /// Pointer to the member value, or nullptr when absent / not an object.
  const Value* find(const std::string& key) const;
  void set(const std::string& key, Value v);
  const std::vector<std::pair<std::string, Value>>& members() const {
    return obj_;
  }

  // Typed lookups with defaults, for tolerant request decoding.
  double num(const std::string& key, double fallback) const;
  std::string str(const std::string& key, const std::string& fallback) const;
  bool boolean(const std::string& key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Serializes compactly (no whitespace). NaN/inf are emitted as null (the
/// protocol never produces them; this keeps the output valid JSON).
std::string dump(const Value& v);

/// Parses one JSON document; trailing non-whitespace and malformed input
/// throw std::runtime_error with a byte offset.
Value parse(const std::string& text);

}  // namespace skewopt::serve::json
