// A small JSON document model and recursive-descent parser (RFC 8259
// subset: no \uXXXX surrogate pairs beyond the BMP). Used to load node
// and experiment configurations; the paper's artifact depends on
// nlohmann-json for the same purpose.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace liger::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Checked accessors (throw JsonError on type mismatch).
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  // must be integral-valued
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  // Object convenience: value at `key`, or nullptr when absent.
  const JsonValue* find(const std::string& key) const;
  // Typed lookups with defaults.
  double number_or(const std::string& key, double def) const;
  std::int64_t int_or(const std::string& key, std::int64_t def) const;
  std::string string_or(const std::string& key, const std::string& def) const;
  bool bool_or(const std::string& key, bool def) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

// Optional integer field of an object that must fit an int (`def` when
// absent). Throws std::invalid_argument naming the key when it does
// not: a bare static_cast<int>(int_or(...)) would wrap 4294967297 to 1
// and slip past every later range check.
int int_field(const JsonValue& obj, const std::string& key, int def);

// Parses a complete JSON document; trailing non-whitespace is an error.
JsonValue parse_json(std::string_view text);

// Loads and parses a JSON file (throws std::runtime_error on IO error).
JsonValue parse_json_file(const std::string& path);

}  // namespace liger::util
