#include "util/json.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "util/logging.h"
#include "util/string_util.h"

namespace tdg::util {

bool JsonValue::AsBool() const {
  TDG_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsNumber() const {
  TDG_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::AsString() const {
  TDG_CHECK(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  TDG_CHECK(is_array());
  return array_;
}

JsonValue::Array& JsonValue::AsArray() {
  TDG_CHECK(is_array());
  return array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  TDG_CHECK(is_object());
  return object_;
}

JsonValue::Object& JsonValue::AsObject() {
  TDG_CHECK(is_object());
  return object_;
}

util::StatusOr<const JsonValue*> JsonValue::GetField(
    std::string_view key) const& {
  if (!is_object()) {
    return Status::InvalidArgument("GetField on a non-object JSON value");
  }
  auto it = object_.find(key);
  if (it == object_.end()) {
    return Status::NotFound("no JSON field '" + std::string(key) + "'");
  }
  return &it->second;
}

void JsonValue::Append(JsonValue value) {
  TDG_CHECK(is_array());
  array_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  TDG_CHECK(is_object());
  object_[key] = std::move(value);
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

util::StatusOr<int> JsonToInt(const JsonValue& value, std::string_view what) {
  if (!value.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double number = value.AsNumber();
  if (!(number >= std::numeric_limits<int>::min() &&
        number <= std::numeric_limits<int>::max()) ||
      std::trunc(number) != number) {
    return Status::InvalidArgument(StrFormat(
        "%.*s must be an integer in int range, got %.17g",
        static_cast<int>(what.size()), what.data(), number));
  }
  return static_cast<int>(number);
}

std::string JsonEscape(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

// Integers print without a decimal point; everything else prints as %.17g,
// which round-trips every double (to_chars' general format at precision 17
// is defined as printf's %.17g, so the bytes match the snprintf they
// replace).
void AppendJsonNumber(std::string& out, double value) {
  TDG_CHECK(std::isfinite(value)) << "JSON cannot represent " << value;
  char buffer[32];  // "-1.2345678901234567e-308" is the longest, 24 bytes
  std::to_chars_result written;
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    written = std::to_chars(buffer, buffer + sizeof(buffer),
                            static_cast<long long>(value));
  } else {
    written = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

}  // namespace

void JsonValue::SerializeTo(std::string& out, int indent, int depth) const {
  std::string pad = indent > 0 ? std::string(indent * (depth + 1), ' ')
                               : std::string();
  std::string close_pad =
      indent > 0 ? std::string(indent * depth, ' ') : std::string();
  const char* newline = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendJsonNumber(out, number_);
      break;
    case Type::kString:
      out += JsonEscape(string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      out += newline;
      for (size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].SerializeTo(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ",";
        out += newline;
      }
      out += close_pad;
      out += "]";
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      out += newline;
      size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad;
        out += JsonEscape(key);
        out += indent > 0 ? ": " : ":";
        value.SerializeTo(out, indent, depth + 1);
        if (++i < object_.size()) out += ",";
        out += newline;
      }
      out += close_pad;
      out += "}";
      break;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::SerializePretty() const {
  std::string out;
  SerializeTo(out, /*indent=*/2, /*depth=*/0);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  util::StatusOr<JsonValue> ParseDocument() {
    TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  util::StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      TDG_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    return ParseNumber();
  }

  util::StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(object));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      TDG_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    return JsonValue(std::move(object));
  }

  util::StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(array));
    while (true) {
      TDG_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    return JsonValue(std::move(array));
  }

  util::StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, escape or control byte at once.
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') return Error("raw control character in string");
      if (pos_ >= text_.size()) return Error("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate
          // pairs are rejected — results data is ASCII anyway).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate pairs are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return out;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted
  // by from_chars (subnormals included; overflow and underflow to zero are
  // errors).
  util::StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0') && ConsumeDigits() == 0) {
      return Error(pos_ == start ? "expected a JSON value"
                                 : "malformed number");
    }
    if (Consume('.') && ConsumeDigits() == 0) {
      return Error("malformed number");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (ConsumeDigits() == 0) return Error("malformed number");
    }
    double value = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec == std::errc::result_out_of_range) {
      return Error("number out of double range");
    }
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      return Error("malformed number");
    }
    return JsonValue(value);
  }

  size_t ConsumeDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

util::StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

}  // namespace tdg::util
