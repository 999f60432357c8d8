// Self-contained JSON value type, parser and serializer for the config
// subsystem (docs/scenarios.md). No external dependencies: the container
// ships no JSON library, and problem configs are small, so a strict
// recursive-descent reader is all that is needed.
//
// Strictness is a feature: the parser rejects trailing commas, comments,
// duplicate object keys and garbage after the document, and reports
// every error with line:column context. Objects preserve insertion
// order so a config's round trip through parse() + dump() is stable and
// diffable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ramr::cfg {

/// One JSON value (null / bool / number / string / array / object).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Object members in insertion order (configs stay diffable; duplicate
  /// keys are rejected at parse time and by set()).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                // NOLINT
  Json(double v) : type_(Type::kNumber), number_(v) {}          // NOLINT
  Json(int v) : type_(Type::kNumber), number_(v) {}             // NOLINT
  Json(std::int64_t v)                                          // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}     // NOLINT
  Json(std::string s)                                           // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}

  static Json make_array() { Json j; j.type_ = Type::kArray; return j; }
  static Json make_object() { Json j; j.type_ = Type::kObject; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// True for a number with an exact integral value that fits an int64
  /// (the bar every integer-typed config field must clear).
  bool is_integer() const;

  // Typed access; throws util::Error naming the actual type on mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_integer() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member lookup; null when absent (or not an object).
  const Json* find(std::string_view key) const;

  /// Inserts or replaces an object member, preserving insertion order.
  /// The value must be an object.
  void set(std::string key, Json value);

  /// Appends to an array value.
  void push_back(Json value);

  /// Human-readable name of a type ("number", "object", ...).
  static const char* type_name(Type t);

  /// Serializes with 2-space indentation (indent <= 0: compact one-line).
  /// Numbers round-trip exactly: integral values print as integers,
  /// everything else with max_digits10 precision. Non-finite numbers
  /// (NaN, infinity) have no JSON literal and print as null.
  std::string dump(int indent = 2) const;

  /// Parses one JSON document; throws util::Error with line:column
  /// context on malformed input, duplicate keys, or trailing garbage.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace ramr::cfg
