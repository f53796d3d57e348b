#ifndef TDG_UTIL_JSON_H_
#define TDG_UTIL_JSON_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace tdg::util {

/// A minimal JSON document model (null / bool / number / string / array /
/// object) with a strict RFC 8259 parser and a serializer. Used for
/// experiment-result export, config files, and the serving plane's request
/// bodies and journals; deliberately small — no comments, no NaN/Inf,
/// numbers are doubles.
///
/// Numbers follow RFC 8259's grammar exactly (no '+', no leading zeros, no
/// bare '.') and convert with std::from_chars, so every finite double the
/// serializer writes — subnormals included — parses back to the same bits;
/// literals that overflow or underflow to zero (1e999, 1e-400) are errors.
/// The serializer writes integral values below 1e15 in magnitude as plain
/// integers and everything else as %.17g, both through std::to_chars.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps key order deterministic (sorted), which makes golden
  /// tests and diffs stable; std::less<> lets GetField look up a
  /// string_view without building a key string.
  using Object = std::map<std::string, JsonValue, std::less<>>;

  /// Constructs null.
  JsonValue() = default;
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(long long value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  JsonValue(Array value)
      : type_(Type::kArray), array_(std::move(value)) {}
  JsonValue(Object value)
      : type_(Type::kObject), object_(std::move(value)) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; abort via TDG_CHECK on type mismatch (use the
  /// is_* predicates or Get* for fallible access).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object field lookup without a copy: a pointer to the field inside this
  /// document, valid while the document lives and is not mutated. NotFound
  /// if the key is absent, InvalidArgument if this is not an object. A
  /// temporary's field would dangle, so GetField on an rvalue does not
  /// compile: bind the document to a name first.
  util::StatusOr<const JsonValue*> GetField(std::string_view key) const&;
  util::StatusOr<const JsonValue*> GetField(std::string_view key) const&& =
      delete;

  /// Convenience appenders (valid on arrays/objects only).
  void Append(JsonValue value);
  void Set(const std::string& key, JsonValue value);

  /// Compact serialization ({"a":1,...}).
  std::string Serialize() const;
  /// Indented serialization (2 spaces).
  std::string SerializePretty() const;

  /// Strict parse of a complete JSON document (trailing junk is an error).
  static util::StatusOr<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;

 private:
  void SerializeTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// `value` as an int, for the numbers that name counts and ids:
/// InvalidArgument (naming the field as `what`) unless it is a number with
/// an integral value inside int's range. Use this instead of casting
/// AsNumber(), which truncates 2.5 to 2 and is undefined for 1e10.
util::StatusOr<int> JsonToInt(const JsonValue& value, std::string_view what);

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonEscape(std::string_view text);

}  // namespace tdg::util

#endif  // TDG_UTIL_JSON_H_
