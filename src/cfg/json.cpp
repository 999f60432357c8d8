#include "cfg/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"

namespace ramr::cfg {

namespace {

/// Recursive-descent parser over the raw text. Tracks line/column so
/// every error points at the offending character.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ < text_.size()) {
      fail("trailing garbage after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    RAMR_FAIL("JSON parse error at line " << line_ << ", column " << column_
                                          << ": " << message);
  }

  bool eof() const { return pos_ >= text_.size(); }

  char peek() const {
    if (eof()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char want) {
    const char c = peek();
    if (c != want) {
      fail(std::string("expected '") + want + "', got '" + c + "'");
    }
    advance();
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else if (c == '/') {
        fail("comments are not allowed in strict JSON");
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return Json();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          return parse_number();
        }
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || text_[pos_] != *p) {
        fail(std::string("invalid literal (expected \"") + word + "\")");
      }
      advance();
    }
  }

  Json parse_bool() {
    if (peek() == 't') {
      parse_literal("true");
      return Json(true);
    }
    parse_literal("false");
    return Json(false);
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::make_object();
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return obj;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') {
        fail("expected object key (a double-quoted string)");
      }
      std::string key = parse_string();
      if (obj.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      obj.as_object().emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        advance();
        skip_whitespace();
        if (peek() == '}') {
          fail("trailing comma in object");
        }
      } else if (c == '}') {
        advance();
        return obj;
      } else {
        fail(std::string("expected ',' or '}' in object, got '") + c + "'");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::make_array();
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return arr;
    }
    while (true) {
      arr.as_array().push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        advance();
        skip_whitespace();
        if (peek() == ']') {
          fail("trailing comma in array");
        }
      } else if (c == ']') {
        advance();
        return arr;
      } else {
        fail(std::string("expected ',' or ']' in array, got '") + c + "'");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the code point (configs are ASCII in practice;
          // surrogate pairs are rejected rather than half-decoded).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
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
          fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      advance();
    }
    if (peek() == '0') {
      advance();
      if (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        fail("leading zeros are not allowed");
      }
    } else if (peek() >= '1' && peek() <= '9') {
      while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        advance();
      }
    } else {
      fail("invalid number");
    }
    if (!eof() && text_[pos_] == '.') {
      advance();
      if (eof() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("expected digit after decimal point");
      }
      while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        advance();
      }
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      advance();
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        advance();
      }
      if (eof() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("expected digit in exponent");
      }
      while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        advance();
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number \"" + token + "\"");
    }
    if (!std::isfinite(value)) {
      fail("number \"" + token + "\" overflows a double");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN or infinity literal
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    // max_digits10 for double: the value survives a parse round trip.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

bool Json::is_integer() const {
  if (type_ != Type::kNumber) {
    return false;
  }
  return number_ == std::floor(number_) &&
         std::abs(number_) <= 9.007199254740992e15;  // 2^53
}

bool Json::as_bool() const {
  RAMR_REQUIRE(type_ == Type::kBool,
               "expected bool, got " << type_name(type_));
  return bool_;
}

double Json::as_number() const {
  RAMR_REQUIRE(type_ == Type::kNumber,
               "expected number, got " << type_name(type_));
  return number_;
}

std::int64_t Json::as_integer() const {
  RAMR_REQUIRE(is_integer(),
               "expected integer, got " << type_name(type_));
  return static_cast<std::int64_t>(number_);
}

const std::string& Json::as_string() const {
  RAMR_REQUIRE(type_ == Type::kString,
               "expected string, got " << type_name(type_));
  return string_;
}

const Json::Array& Json::as_array() const {
  RAMR_REQUIRE(type_ == Type::kArray,
               "expected array, got " << type_name(type_));
  return array_;
}

Json::Array& Json::as_array() {
  RAMR_REQUIRE(type_ == Type::kArray,
               "expected array, got " << type_name(type_));
  return array_;
}

const Json::Object& Json::as_object() const {
  RAMR_REQUIRE(type_ == Type::kObject,
               "expected object, got " << type_name(type_));
  return object_;
}

Json::Object& Json::as_object() {
  RAMR_REQUIRE(type_ == Type::kObject,
               "expected object, got " << type_name(type_));
  return object_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

void Json::set(std::string key, Json value) {
  RAMR_REQUIRE(type_ == Type::kObject,
               "set() requires an object, got " << type_name(type_));
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  RAMR_REQUIRE(type_ == Type::kArray,
               "push_back() requires an array, got " << type_name(type_));
  array_.push_back(std::move(value));
}

const char* Json::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "unknown";
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    if (pretty) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * d, ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_number(out, number_);
      break;
    case Type::kString:
      append_escaped(out, string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t n = 0; n < array_.size(); ++n) {
        if (n > 0) {
          out.push_back(',');
          if (!pretty) {
            out.push_back(' ');
          }
        }
        newline_pad(depth + 1);
        array_[n].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t n = 0; n < object_.size(); ++n) {
        if (n > 0) {
          out.push_back(',');
          if (!pretty) {
            out.push_back(' ');
          }
        }
        newline_pad(depth + 1);
        append_escaped(out, object_[n].first);
        out += ": ";
        object_[n].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

}  // namespace ramr::cfg
