// Minimal, dependency-free JSON reader shared by the configuration-file
// consumers (scenario specs, experiment checkpoints).
//
// Supports the full JSON value grammar (null, booleans, numbers, strings,
// arrays, objects) with two deliberate strictures that suit configuration
// files: duplicate object keys are an error, and object key order is
// preserved (scenario meta blocks are emitted in file order).  String
// escapes cover the JSON set; \uXXXX is accepted for ASCII code points
// only — scenario files are ASCII by construction.
//
// Errors throw std::runtime_error with a line:column position.  Arrays
// and objects may nest at most kMaxJsonDepth deep: the parser recurses
// once per level, so the cap turns hostile input ("[" repeated 200000
// times) into a parse error instead of a stack overflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace neatbound::support {

/// Deepest array/object nesting parse_json accepts (the document's outer
/// container is depth 1).
inline constexpr std::size_t kMaxJsonDepth = 256;

/// 2^53: every integer up to it is exact as a double, and a larger JSON
/// number may already have been rounded when it was parsed, so integer
/// accessors reject it rather than return a value the file did not hold.
inline constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array items);
  static JsonValue make_object(Object members);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const char* kind_name() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  // Checked accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// A non-negative integer no larger than kMaxExactInteger.  Failures
  /// name `field` and say why: not a number, not a non-negative integer,
  /// or past the exact-integer limit.
  [[nodiscard]] std::uint64_t as_uint(std::string_view field) const;
  /// as_uint, additionally required to fit std::uint32_t; an out-of-range
  /// value fails naming `field` instead of wrapping (4294967297 → 1).
  [[nodiscard]] std::uint32_t as_uint32(std::string_view field) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads and parses a file; errors are prefixed with the path.
[[nodiscard]] JsonValue load_json_file(const std::string& path);

}  // namespace neatbound::support
