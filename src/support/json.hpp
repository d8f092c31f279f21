// Minimal JSON value, parser, and streaming writer.
//
// FEAM's source phase bundles binary/library descriptions that must be
// copied between sites; the paper's implementation serialized them as flat
// files. We use JSON manifests so bundles are self-describing and the
// round-trip is testable. Supports the full JSON grammar: non-BMP code
// points write as \uXXXX surrogate pairs and parse back to UTF-8, so
// 4-byte sequences survive consumers whose \u decoders are BMP-only.
//
// JsonWriter is the one place that formats JSON text: Json::dump walks its
// tree into one, and bulk producers (run records, drift logs) write from
// their own fields without building a tree per line.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace feam::support {

class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps key order deterministic for byte-stable bundle manifests.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : Json(static_cast<double>(n)) {}
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}
  Json(std::size_t n) : Json(static_cast<double>(n)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : Json(std::string(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  // The number truncated toward zero, or nullopt when this is not a number
  // or its value is not finite or outside the integer type's range.
  std::optional<std::int64_t> to_int() const;
  std::optional<std::uint64_t> to_uint() const;
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  const Object& as_object() const { return object_; }
  Array& as_array() { return array_; }
  Object& as_object() { return object_; }

  // Object field access; returns a shared null for absent keys.
  const Json& operator[](std::string_view key) const;
  void set(std::string key, Json value);
  bool has(std::string_view key) const;

  // Convenience typed getters with defaults; the integer getters fall back
  // also when the number does not fit (see to_int/to_uint).
  std::string get_string(std::string_view key, std::string_view fallback = "") const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback = 0) const;
  std::uint64_t get_uint(std::string_view key, std::uint64_t fallback = 0) const;
  bool get_bool(std::string_view key, bool fallback = false) const;

  // Serialization. indent == 0 -> compact one-line form.
  std::string dump(int indent = 0) const;

  // Parsing; nullopt on any syntax error.
  static std::optional<Json> parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Appends JSON text to a caller-owned string: one document, or one JSONL
// line per top-level value when the caller adds the '\n' between them.
// Writes exactly what Json::dump would for the same values, provided
// object keys come in sorted order (Json::Object is a std::map). Strings
// may hold arbitrary bytes: invalid UTF-8 escapes as its Latin-1
// codepoint, non-BMP characters as surrogate pairs. Numbers below 1e15 in
// magnitude with no fraction write as integers, other finite numbers as
// %.17g, and non-finite numbers as null.
class JsonWriter {
 public:
  // indent == 0 -> compact one-line form; otherwise Json::dump(indent)'s.
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  // Names the member whose value is written next.
  JsonWriter& key(std::string_view name);

  JsonWriter& null();
  JsonWriter& boolean(bool b);
  JsonWriter& number(double n);
  JsonWriter& number(std::int64_t n);
  JsonWriter& number(std::uint64_t n);
  JsonWriter& number(int n) { return number(std::int64_t{n}); }
  JsonWriter& string(std::string_view s);
  JsonWriter& value(const Json& v);

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  // Comma and line break before a value, unless it follows its key.
  void separate();
  void newline();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;  // the innermost open container has no element yet
  bool after_key_ = false;
};

}  // namespace feam::support
