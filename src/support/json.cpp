#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace feam::support {

namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

// Length of the valid UTF-8 sequence starting at s[i], or 0 when the lead
// byte, a continuation byte, or the codepoint range (overlongs, surrogates,
// > U+10FFFF) is invalid. Strings reaching the writer are not guaranteed to
// be UTF-8 — synthetic ELF .comment sections and fault-injected shell
// output carry arbitrary bytes — and emitting those raw would make the
// JSONL/trace output unparseable.
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char lead = byte(i);
  std::size_t len;
  unsigned char lo = 0x80, hi = 0xbf;  // valid range for the second byte
  if (lead < 0x80) return 1;
  if (lead >= 0xc2 && lead <= 0xdf) {
    len = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    len = 3;
    if (lead == 0xe0) lo = 0xa0;        // reject overlong
    if (lead == 0xed) hi = 0x9f;        // reject surrogates
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    len = 4;
    if (lead == 0xf0) lo = 0x90;        // reject overlong
    if (lead == 0xf4) hi = 0x8f;        // reject > U+10FFFF
  } else {
    return 0;  // stray continuation byte or 0xc0/0xc1/0xf5..0xff
  }
  if (i + len > s.size()) return 0;
  if (byte(i + 1) < lo || byte(i + 1) > hi) return 0;
  for (std::size_t k = 2; k < len; ++k) {
    if ((byte(i + k) & 0xc0) != 0x80) return 0;
  }
  return len;
}

void append_u_escape(std::string& out, unsigned code) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char escape[6] = {'\\', 'u', kHex[(code >> 12) & 0xf],
                          kHex[(code >> 8) & 0xf], kHex[(code >> 4) & 0xf],
                          kHex[code & 0xf]};
  out.append(escape, sizeof escape);
}

// Printable ASCII that needs no escape.
bool is_plain(char c) {
  const auto byte = static_cast<unsigned char>(c);
  return byte >= 0x20 && byte < 0x80 && c != '"' && c != '\\';
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t run_start = i;
    while (i < s.size() && is_plain(s[i])) ++i;
    out.append(s.data() + run_start, i - run_start);
    if (i == s.size()) break;
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      default: break;
    }
    const unsigned char byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      append_u_escape(out, byte);
      ++i;
    } else if (const std::size_t len = utf8_sequence_length(s, i); len > 0) {
      if (len == 4) {
        // Non-BMP codepoint: escape as a UTF-16 surrogate pair. Passing
        // the 4-byte sequence raw is valid JSON, but consumers with
        // BMP-only \u decoders (including older versions of our own
        // parser) mangle it on a re-escape round trip.
        const auto cont = [&](std::size_t k) {
          return static_cast<unsigned>(s[i + k]) & 0x3fu;
        };
        const unsigned code =
            ((static_cast<unsigned>(byte) & 0x07u) << 18) |
            (cont(1) << 12) | (cont(2) << 6) | cont(3);
        const unsigned v = code - 0x10000;
        append_u_escape(out, 0xd800 + (v >> 10));
        append_u_escape(out, 0xdc00 + (v & 0x3ff));
      } else {
        out.append(s.data() + i, len);
      }
      i += len;
    } else {
      // Invalid byte: escape as its Latin-1 codepoint so the document
      // stays valid JSON and the byte value survives in the escape.
      append_u_escape(out, byte);
      ++i;
    }
  }
  out += '"';
}

// The truncated value of `x` as T, or nullopt when T cannot represent it.
// Both bounds are powers of two, so the comparisons are exact; NaN fails
// both.
template <typename T>
std::optional<T> checked_integer(double x) {
  constexpr double kLow = std::is_signed_v<T> ? -0x1p63 : 0.0;
  constexpr double kHigh = std::is_signed_v<T> ? 0x1p63 : 0x1p64;
  if (!(x >= kLow && x < kHigh)) return std::nullopt;
  return static_cast<T>(x);
}

// Integral numbers below this magnitude (1e15) write as digits; larger
// ones as %.17g. Integers written directly take the double route past it,
// as the tree, which holds them as doubles, writes them.
constexpr std::int64_t kExactIntegerBound = 1'000'000'000'000'000;

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    return number();
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            const auto hex4 = [&]() -> std::optional<unsigned> {
              if (pos_ + 4 > text_.size()) return std::nullopt;
              unsigned code = 0;
              for (int i = 0; i < 4; ++i) {
                const char h = text_[pos_++];
                code <<= 4;
                if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                else return std::nullopt;
              }
              return code;
            };
            const auto high = hex4();
            if (!high) return std::nullopt;
            unsigned code = *high;
            if (code >= 0xd800 && code <= 0xdbff) {
              // High surrogate: must pair with an immediately following
              // \uDC00..\uDFFF escape; together they name one non-BMP
              // codepoint.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return std::nullopt;
              }
              pos_ += 2;
              const auto low = hex4();
              if (!low || *low < 0xdc00 || *low > 0xdfff) return std::nullopt;
              code = 0x10000 + ((code - 0xd800) << 10) + (*low - 0xdc00);
            } else if (code >= 0xdc00 && code <= 0xdfff) {
              return std::nullopt;  // lone low surrogate
            }
            // Encode the codepoint as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xf0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    double v = 0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) return std::nullopt;
    return Json(v);
  }

  std::optional<Json> array() {
    if (!consume('[')) return std::nullopt;
    Json::Array items;
    skip_ws();
    if (consume(']')) return Json(std::move(items));
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      if (consume(']')) return Json(std::move(items));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> object() {
    if (!consume('{')) return std::nullopt;
    Json::Object fields;
    skip_ws();
    if (consume('}')) return Json(std::move(fields));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      fields.emplace(std::move(*key), std::move(*v));
      if (consume('}')) return Json(std::move(fields));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  if (type_ == Type::kObject) {
    const auto it = object_.find(key);
    if (it != object_.end()) return it->second;
  }
  return null_json();
}

void Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  object_.insert_or_assign(std::move(key), std::move(value));
}

bool Json::has(std::string_view key) const {
  return type_ == Type::kObject && object_.find(key) != object_.end();
}

std::string Json::get_string(std::string_view key, std::string_view fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.as_string() : std::string(fallback);
}

std::optional<std::int64_t> Json::to_int() const {
  if (type_ != Type::kNumber) return std::nullopt;
  return checked_integer<std::int64_t>(number_);
}

std::optional<std::uint64_t> Json::to_uint() const {
  if (type_ != Type::kNumber) return std::nullopt;
  return checked_integer<std::uint64_t>(number_);
}

std::int64_t Json::get_int(std::string_view key, std::int64_t fallback) const {
  return (*this)[key].to_int().value_or(fallback);
}

std::uint64_t Json::get_uint(std::string_view key,
                             std::uint64_t fallback) const {
  return (*this)[key].to_uint().value_or(fallback);
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.as_bool() : fallback;
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

void JsonWriter::newline() {
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) *
                    static_cast<std::size_t>(depth_),
                ' ');
  }
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (!empty_) out_ += ',';
  empty_ = false;
  newline();
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  ++depth_;
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  --depth_;
  if (!empty_) newline();
  out_ += bracket;
  empty_ = false;  // the enclosing container now holds this one
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  append_escaped(out_, name);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::boolean(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::number(double n) {
  if (!std::isfinite(n)) return null();  // JSON has no inf or nan
  if (n == std::floor(n) &&
      std::abs(n) < static_cast<double>(kExactIntegerBound)) {
    return number(static_cast<std::int64_t>(n));
  }
  separate();
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%.17g", n);
  out_.append(buf, static_cast<std::size_t>(len));
  return *this;
}

JsonWriter& JsonWriter::number(std::int64_t n) {
  if (n <= -kExactIntegerBound || n >= kExactIntegerBound) {
    return number(static_cast<double>(n));
  }
  separate();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, n);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::number(std::uint64_t n) {
  if (n >= static_cast<std::uint64_t>(kExactIntegerBound)) {
    return number(static_cast<double>(n));
  }
  return number(static_cast<std::int64_t>(n));
}

JsonWriter& JsonWriter::string(std::string_view s) {
  separate();
  append_escaped(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(const Json& v) {
  switch (v.type()) {
    case Json::Type::kNull: return null();
    case Json::Type::kBool: return boolean(v.as_bool());
    case Json::Type::kNumber: return number(v.as_number());
    case Json::Type::kString: return string(v.as_string());
    case Json::Type::kArray:
      begin_array();
      for (const Json& item : v.as_array()) value(item);
      return end_array();
    case Json::Type::kObject:
      begin_object();
      for (const auto& [name, item] : v.as_object()) key(name).value(item);
      return end_object();
  }
  return *this;
}

}  // namespace feam::support
