// A minimal JSON value type with a strict parser and a deterministic
// writer — the payload format of the wire protocol (net/wire.h). Kept
// dependency-free on purpose: the container bakes no JSON library, and the
// protocol needs only objects/arrays/strings/numbers/bools/null.
//
// Objects preserve insertion order (Dump output is deterministic, so golden
// tests and byte-identity checks are stable) and Find is a linear scan —
// protocol envelopes are a dozen keys, never a dictionary workload. Parse
// indexes the keys of a large object as they arrive, so a hostile request
// with many keys still parses in linear time.

#ifndef CQA_NET_JSON_H_
#define CQA_NET_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cqa {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  /// Default: null.
  Json() = default;

  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double n);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();
  /// A value already encoded as JSON text, which Dump writes as is (the
  /// server's page rows, encoded straight from a cursor). The caller
  /// vouches that `encoded` is one valid JSON value; Parse never makes one.
  static Json Raw(std::string encoded);

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Scalar reads; each CHECKs the kind. The rvalue AsString moves the
  /// string out (a decoder consuming a parsed document).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const&;
  std::string&& AsString() &&;

  /// Array access. Append CHECKs this is an array; the rvalue items()
  /// hands the elements over for moving out.
  const std::vector<Json>& items() const&;
  std::vector<Json>&& items() &&;
  Json& Append(Json value);

  /// Object access. Set replaces an existing key; Find returns nullptr when
  /// absent; Take removes a key and returns its value (null when absent).
  /// All CHECK this is an object.
  Json& Set(std::string key, Json value);
  const Json* Find(std::string_view key) const;
  Json Take(std::string_view key);
  const std::vector<std::pair<std::string, Json>>& fields() const;

  /// Typed object getters with defaults: absent key or wrong kind returns
  /// `def` — protocol fields are all optional-with-default.
  std::string GetString(std::string_view key, std::string def = "") const;
  double GetNumber(std::string_view key, double def = 0.0) const;
  bool GetBool(std::string_view key, bool def = false) const;

  /// Compact single-line serialization (no insignificant whitespace).
  /// Integral numbers in the 53-bit-safe range print without a decimal
  /// point, so counters round-trip as written. DumpTo appends to `out`,
  /// so a whole document is written into one buffer.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

  /// Appends `s` as a JSON string literal: quoted and escaped exactly as
  /// Dump writes a Str.
  static void AppendQuoted(std::string_view s, std::string* out);

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error). Returns nullopt and fills `error` (if non-null) on malformed
  /// input; nesting beyond 64 levels is rejected.
  static std::optional<Json> Parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  friend class JsonParser;

  using Fields = std::vector<std::pair<std::string, Json>>;
  /// Raw's text, kept apart from a string value's.
  struct Encoded {
    std::string text;
  };

  // Alternatives in Kind order: kind() is the index.
  std::variant<std::monostate, bool, double, std::string, std::vector<Json>,
               Fields, Encoded>
      value_;
};

}  // namespace cqa

#endif  // CQA_NET_JSON_H_
