#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace liger::util {

bool JsonValue::as_bool() const {
  if (!is_bool()) throw JsonError("expected bool", 0);
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) throw JsonError("expected number", 0);
  return std::get<double>(value_);
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  // Casting a double outside the int64 range is undefined behaviour, so
  // check first: -2^63 is representable, 2^63 is the first value past it.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(d >= -kLimit && d < kLimit)) throw JsonError("integer out of range", 0);
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) throw JsonError("expected integer", 0);
  return i;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw JsonError("expected string", 0);
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
  if (!is_array()) throw JsonError("expected array", 0);
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::as_object() const {
  if (!is_object()) throw JsonError("expected object", 0);
  return std::get<JsonObject>(value_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return v == nullptr ? def : v->as_number();
}

std::int64_t JsonValue::int_or(const std::string& key, std::int64_t def) const {
  const JsonValue* v = find(key);
  return v == nullptr ? def : v->as_int();
}

int int_field(const JsonValue& obj, const std::string& key, int def) {
  const std::int64_t v = obj.int_or(key, def);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(key + " is out of range: " + std::to_string(v));
  }
  return static_cast<int>(v);
}

std::string JsonValue::string_or(const std::string& key, const std::string& def) const {
  const JsonValue* v = find(key);
  return v == nullptr ? def : v->as_string();
}

bool JsonValue::bool_or(const std::string& key, bool def) const {
  const JsonValue* v = find(key);
  return v == nullptr ? def : v->as_bool();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const { throw JsonError(message, pos_); }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      take();
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue(std::move(obj));
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      take();
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
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
          // UTF-8 encode (BMP only; surrogate halves rejected).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' ||
                                   text_[pos_] == 'E' || text_[pos_] == '+' ||
                                   text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty()) fail("expected a value");
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) fail("invalid number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace liger::util
