// A small, dependency-free JSON document type. Used as the wire payload for
// HTTP/MQTT-style exchanges on the continuum (the paper's edge gateways
// exchange JSON packets, §III Network), as the stored representation in the
// knowledge base, and as the serialization of TOSCA models.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace myrtus::util {

/// Recursive JSON value. Object keys are kept sorted (std::map) so encoded
/// documents are canonical — important for hashing/signing deployment specs.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : v_(i) {}
  Json(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Json(unsigned i) : v_(static_cast<std::int64_t>(i)) {}
  Json(double d) : v_(d) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(std::string_view s) : v_(std::string(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const;
  [[nodiscard]] double as_double(double fallback = 0.0) const;
  [[nodiscard]] const std::string& as_string() const;  // empty string fallback

  /// Array access; empty static array when not an array.
  [[nodiscard]] const Array& items() const;
  Array& mutable_items();

  /// Object access; empty static object when not an object.
  [[nodiscard]] const Object& fields() const;
  Object& mutable_fields();

  /// Object field lookup: returns null Json when absent or not an object.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  /// Inserts/overwrites a field; converts this value into an object if needed.
  Json& Set(std::string key, Json value);
  /// Appends to an array; converts this value into an array if needed.
  Json& Append(Json value);

  /// Canonical compact encoding.
  [[nodiscard]] std::string Dump() const;
  /// Dump().size(), counted without building the string.
  [[nodiscard]] std::size_t DumpSize() const;
  /// Size of `s` encoded as a JSON string: quotes plus escapes.
  [[nodiscard]] static std::size_t QuotedSize(std::string_view s);
  /// Pretty-printed encoding with 2-space indentation.
  [[nodiscard]] std::string Pretty() const;

  /// Full JSON parser (RFC 8259 subset: no surrogate-pair decoding beyond
  /// pass-through \uXXXX escapes, which we re-emit verbatim).
  static StatusOr<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) { return a.v_ == b.v_; }

 private:
  void DumpTo(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

}  // namespace myrtus::util
