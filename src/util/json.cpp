#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace myrtus::util {
namespace {

const Json kNullJson{};
const Json::Array kEmptyArray{};
const Json::Object kEmptyObject{};
const std::string kEmptyString{};

/// The two-character escape of `c`, or empty when it has none. Other bytes
/// below 0x20 take the six-character \u00XX form.
std::string_view ShortEscape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    case '\b': return "\\b";
    case '\f': return "\\f";
    default: return {};
  }
}

void EscapeString(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (const std::string_view e = ShortEscape(c); !e.empty()) {
      out += e;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(raw);
    }
  }
  out.push_back('"');
}

/// Writes the "%.17g" form of a finite double into `buf` (at least 40
/// bytes) and returns its length.
std::size_t FormatDouble(double d, char* buf) {
  return static_cast<std::size_t>(std::snprintf(buf, 40, "%.17g", d));
}

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> Run() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Err(std::string msg) const {
    return Status::InvalidArgument("json at offset " + std::to_string(pos_) +
                                   ": " + std::move(msg));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  StatusOr<Json> ParseValue() {
    if (depth_ > 128) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return Json(std::move(s).value());
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") { pos_ += 4; return Json(true); }
        return Err("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") { pos_ += 5; return Json(false); }
        return Err("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") { pos_ += 4; return Json(nullptr); }
        return Err("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("bad hex digit in \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs re-encoded
            // individually; sufficient for our control-plane payloads).
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
            return Err("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Err("unterminated string");
  }

  StatusOr<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_float = false;
    if (Consume('.')) {
      is_float = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_float = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return Err("invalid number");
    if (!is_float) {
      std::int64_t v = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(v);
      // fall through to double on overflow
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) return Err("invalid number");
    return Json(d);
  }

  StatusOr<Json> ParseArray() {
    Consume('[');
    ++depth_;
    Json::Array arr;
    SkipWs();
    if (Consume(']')) { --depth_; return Json(std::move(arr)); }
    while (true) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.push_back(std::move(v).value());
      SkipWs();
      if (Consume(']')) break;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
    --depth_;
    return Json(std::move(arr));
  }

  StatusOr<Json> ParseObject() {
    Consume('{');
    ++depth_;
    Json::Object obj;
    SkipWs();
    if (Consume('}')) { --depth_; return Json(std::move(obj)); }
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj[std::move(key).value()] = std::move(v).value();
      SkipWs();
      if (Consume('}')) break;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
    --depth_;
    return Json(std::move(obj));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Json::as_bool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) return static_cast<std::int64_t>(*d);
  return fallback;
}

double Json::as_double(double fallback) const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  return fallback;
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  return kEmptyString;
}

const Json::Array& Json::items() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  return kEmptyArray;
}

Json::Array& Json::mutable_items() {
  if (!is_array()) v_ = Array{};
  return std::get<Array>(v_);
}

const Json::Object& Json::fields() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  return kEmptyObject;
}

Json::Object& Json::mutable_fields() {
  if (!is_object()) v_ = Object{};
  return std::get<Object>(v_);
}

const Json& Json::at(std::string_view key) const {
  if (const auto* o = std::get_if<Object>(&v_)) {
    const auto it = o->find(std::string(key));
    if (it != o->end()) return it->second;
  }
  return kNullJson;
}

bool Json::has(std::string_view key) const {
  const auto* o = std::get_if<Object>(&v_);
  return o != nullptr && o->count(std::string(key)) > 0;
}

Json& Json::Set(std::string key, Json value) {
  mutable_fields()[std::move(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  mutable_items().push_back(std::move(value));
  return *this;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&] {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * depth), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&v_)) {
    out += *b ? "true" : "false";
  } else if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&v_)) {
    if (std::isfinite(*d)) {
      char buf[40];
      const std::size_t n = FormatDouble(*d, buf);
      out.append(buf, n);
      // Integral doubles keep a ".0" so they reparse as doubles, not ints.
      if (std::string_view(buf, n).find_first_of(".eE") ==
          std::string_view::npos) {
        out += ".0";
      }
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (const auto* s = std::get_if<std::string>(&v_)) {
    EscapeString(*s, out);
  } else if (const auto* a = std::get_if<Array>(&v_)) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : *a) {
      if (!first) out.push_back(',');
      first = false;
      ++depth;
      newline();
      --depth;
      item.DumpTo(out, indent, depth + 1);
    }
    if (!a->empty()) newline();
    out.push_back(']');
  } else if (const auto* o = std::get_if<Object>(&v_)) {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, item] : *o) {
      if (!first) out.push_back(',');
      first = false;
      ++depth;
      newline();
      --depth;
      EscapeString(k, out);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      item.DumpTo(out, indent, depth + 1);
    }
    if (!o->empty()) newline();
    out.push_back('}');
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0, 0);
  return out;
}

std::size_t Json::QuotedSize(std::string_view s) {
  std::size_t n = 2;
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    const std::size_t escape = ShortEscape(c).size();
    n += escape != 0 ? escape : (c < 0x20 ? 6 : 1);
  }
  return n;
}

std::size_t Json::DumpSize() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? 4 : 5;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    // Digits of the magnitude, computed unsigned so INT64_MIN has one.
    std::uint64_t u = *i < 0 ? 0 - static_cast<std::uint64_t>(*i)
                             : static_cast<std::uint64_t>(*i);
    std::size_t n = *i < 0 ? 2 : 1;
    while (u >= 10) {
      u /= 10;
      ++n;
    }
    return n;
  }
  if (const auto* d = std::get_if<double>(&v_)) {
    if (!std::isfinite(*d)) return 4;  // null
    char buf[40];
    const std::size_t n = FormatDouble(*d, buf);
    const bool integral = std::string_view(buf, n).find_first_of(".eE") ==
                          std::string_view::npos;
    return integral ? n + 2 : n;
  }
  if (const auto* s = std::get_if<std::string>(&v_)) return QuotedSize(*s);
  if (const auto* a = std::get_if<Array>(&v_)) {
    std::size_t n = a->empty() ? 2 : 1 + a->size();  // brackets and commas
    for (const Json& item : *a) n += item.DumpSize();
    return n;
  }
  if (const auto* o = std::get_if<Object>(&v_)) {
    // Braces and commas, plus a colon per field.
    std::size_t n = o->empty() ? 2 : 1 + 2 * o->size();
    for (const auto& [k, item] : *o) n += QuotedSize(k) + item.DumpSize();
    return n;
  }
  return 4;  // null
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(out, 2, 0);
  return out;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace myrtus::util
