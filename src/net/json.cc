#include "net/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <unordered_map>

#include "base/check.h"

namespace cqa {
namespace {

constexpr int kMaxDepth = 64;

// An object of up to this many keys finds a repeated key by a linear scan;
// a larger one indexes its keys, so parsing stays linear in the key count.
constexpr size_t kLinearKeys = 16;

void AppendNumber(double n, std::string* out) {
  // Counters and ids dominate the protocol: print 53-bit-safe integers
  // without a decimal point so they round-trip as written.
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 9.0e15) {
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(n));
    out->append(buf, r.ptr);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  *out += buf;
}

}  // namespace

/// Recursive-descent parser over a string_view with a cursor. Values are
/// parsed in place; array elements gather on one scratch stack and move
/// into an exactly sized vector when their array closes.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> Run() {
    SkipWs();
    Json value;
    if (!ParseValue(&value, 0)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool Fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out->value_ = std::monostate();
        return Literal("null");
      case 't':
        out->value_ = true;
        return Literal("true");
      case 'f':
        out->value_ = false;
        return Literal("false");
      case '"':
        return ParseString(&out->value_.emplace<std::string>());
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double n = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number");
    out->value_ = n;
    return true;
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    for (;;) {
      // Copy the run up to the next quote or escape in one append.
      size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out->append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) return Fail("unterminated string");
      if (text_[pos_++] == '"') return true;
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00 &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return false;
            if (low >= 0xDC00 && low < 0xE000) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Fail("invalid surrogate pair");
            }
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
  }

  bool ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    const size_t base = scratch_.size();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out->value_ = std::vector<Json>();
      return true;
    }
    for (;;) {
      // Parsed into a local: a nested array grows scratch_, which would
      // move an element parsed in place there.
      Json element;
      SkipWs();
      if (!ParseValue(&element, depth + 1)) return false;
      scratch_.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        const auto first = scratch_.begin() + static_cast<ptrdiff_t>(base);
        out->value_ = std::vector<Json>(std::make_move_iterator(first),
                                        std::make_move_iterator(scratch_.end()));
        scratch_.erase(first, scratch_.end());
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    Json::Fields fields;
    std::unordered_map<std::string, size_t> index;  // past kLinearKeys keys
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out->value_ = std::move(fields);
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      Json value;
      if (!ParseValue(&value, depth + 1)) return false;
      // A repeated key replaces the earlier value in the earlier key's
      // place, as Json::Set does.
      size_t at = fields.size();
      if (fields.size() <= kLinearKeys) {
        for (size_t i = 0; i < fields.size(); ++i) {
          if (fields[i].first == key) {
            at = i;
            break;
          }
        }
      } else {
        if (index.empty()) {
          for (size_t i = 0; i < fields.size(); ++i) {
            index.emplace(fields[i].first, i);
          }
        }
        at = index.emplace(key, fields.size()).first->second;
      }
      if (at < fields.size()) {
        fields[at].second = std::move(value);
      } else {
        fields.emplace_back(std::move(key), std::move(value));
      }
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out->value_ = std::move(fields);
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  std::vector<Json> scratch_;  // elements of the open arrays, innermost last
};

Json Json::Bool(bool b) {
  Json j;
  j.value_ = b;
  return j;
}

Json Json::Number(double n) {
  Json j;
  j.value_ = n;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.value_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.value_ = std::vector<Json>();
  return j;
}

Json Json::Object() {
  Json j;
  j.value_ = Fields();
  return j;
}

Json Json::Raw(std::string encoded) {
  Json j;
  j.value_ = Encoded{std::move(encoded)};
  return j;
}

bool Json::AsBool() const {
  CQA_CHECK(is_bool());
  return std::get<bool>(value_);
}

double Json::AsNumber() const {
  CQA_CHECK(is_number());
  return std::get<double>(value_);
}

const std::string& Json::AsString() const& {
  CQA_CHECK(is_string());
  return std::get<std::string>(value_);
}

std::string&& Json::AsString() && {
  CQA_CHECK(is_string());
  return std::get<std::string>(std::move(value_));
}

const std::vector<Json>& Json::items() const& {
  CQA_CHECK(is_array());
  return std::get<std::vector<Json>>(value_);
}

std::vector<Json>&& Json::items() && {
  CQA_CHECK(is_array());
  return std::get<std::vector<Json>>(std::move(value_));
}

Json& Json::Append(Json value) {
  CQA_CHECK(is_array());
  std::get<std::vector<Json>>(value_).push_back(std::move(value));
  return *this;
}

Json& Json::Set(std::string key, Json value) {
  CQA_CHECK(is_object());
  Fields& fields = std::get<Fields>(value_);
  for (auto& [k, v] : fields) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : fields()) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json Json::Take(std::string_view key) {
  CQA_CHECK(is_object());
  Fields& fields = std::get<Fields>(value_);
  for (auto it = fields.begin(); it != fields.end(); ++it) {
    if (it->first == key) {
      Json value = std::move(it->second);
      fields.erase(it);
      return value;
    }
  }
  return Json();
}

const std::vector<std::pair<std::string, Json>>& Json::fields() const {
  CQA_CHECK(is_object());
  return std::get<Fields>(value_);
}

std::string Json::GetString(std::string_view key, std::string def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : std::move(def);
}

double Json::GetNumber(std::string_view key, double def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : def;
}

bool Json::GetBool(std::string_view key, bool def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : def;
}

void Json::AppendQuoted(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the bytes not yet written
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;  // UTF-8 passes as is
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        *out += "\\u00";
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (kind()) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Kind::kNumber:
      AppendNumber(std::get<double>(value_), out);
      break;
    case Kind::kString:
      AppendQuoted(std::get<std::string>(value_), out);
      break;
    case Kind::kArray: {
      out->push_back('[');
      const std::vector<Json>& items = std::get<std::vector<Json>>(value_);
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out->push_back(',');
        items[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      const Fields& fields = std::get<Fields>(value_);
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendQuoted(fields[i].first, out);
        out->push_back(':');
        fields[i].second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
    case Kind::kRaw:
      *out += std::get<Encoded>(value_).text;
      break;
  }
}

std::optional<Json> Json::Parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return JsonParser(text, error).Run();
}

}  // namespace cqa
