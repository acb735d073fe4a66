#ifndef PROMETHEUS_TESTS_JSON_CHECK_H_
#define PROMETHEUS_TESTS_JSON_CHECK_H_

// A small strict JSON (RFC 8259) validator for the telemetry golden tests:
// every HTTP telemetry body must parse here, so a renderer that emits a raw
// control byte, a split UTF-8 sequence, `nan`, a trailing comma or a
// duplicate key fails a test instead of a scraper. Header-only, like the
// Prometheus exposition parser beside it.

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace prometheus::testing {

class JsonChecker {
 public:
  /// Validates `text` as exactly one JSON value (surrounding whitespace
  /// allowed). Returns "" when valid, else the first offence with its byte
  /// offset. Beyond the grammar it rejects invalid UTF-8 (overlong forms,
  /// surrogates, truncated sequences), unpaired `\u` surrogates and
  /// duplicate member names within one object. `keys` (nullable) receives
  /// the member names, in order, of the top-level object — or, for a
  /// top-level array, of its first element when that is an object.
  static std::string Validate(std::string_view text,
                              std::vector<std::string>* keys = nullptr) {
    JsonChecker c(text);
    c.SkipSpace();
    c.Value(0, keys);
    if (c.error_.empty()) {
      c.SkipSpace();
      if (c.pos_ != text.size()) c.Fail("trailing content");
    }
    return c.error_;
  }

 private:
  static constexpr int kMaxDepth = 256;

  explicit JsonChecker(std::string_view text) : text_(text) {}

  void Fail(const std::string& what) {
    if (error_.empty()) error_ = what + " at byte " + std::to_string(pos_);
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  void Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      Fail("invalid literal");
      return;
    }
    pos_ += word.size();
  }

  // `top_keys`: where the member names of this value go when it is the
  // top-level object (or the first element of the top-level array).
  void Value(int depth, std::vector<std::string>* top_keys) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    switch (Peek()) {
      case '{':
        return Object(depth, top_keys);
      case '[':
        return Array(depth, top_keys);
      case '"': {
        std::string ignored;
        return String(&ignored);
      }
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  void Object(int depth, std::vector<std::string>* top_keys) {
    ++pos_;  // '{'
    std::set<std::string> seen;
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      SkipSpace();
      if (Peek() != '"') return Fail("expected a member name");
      std::string name;
      String(&name);
      if (!error_.empty()) return;
      if (!seen.insert(name).second) return Fail("duplicate member " + name);
      if (top_keys != nullptr) top_keys->push_back(name);
      SkipSpace();
      if (Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipSpace();
      Value(depth + 1, nullptr);
      if (!error_.empty()) return;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return;
      }
      return Fail("expected ',' or '}'");
    }
  }

  void Array(int depth, std::vector<std::string>* top_keys) {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return;
    }
    for (bool first = true;; first = false) {
      SkipSpace();
      Value(depth + 1, first ? top_keys : nullptr);
      if (!error_.empty()) return;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return;
      }
      return Fail("expected ',' or ']'");
    }
  }

  // Reads 4 hex digits after `\u`; -1 on error.
  long Hex4() {
    if (pos_ + 4 > text_.size()) return -1;
    long v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= h - '0';
      } else if (h >= 'a' && h <= 'f') {
        v |= h - 'a' + 10;
      } else if (h >= 'A' && h <= 'F') {
        v |= h - 'A' + 10;
      } else {
        return -1;
      }
    }
    pos_ += 4;
    return v;
  }

  // Validates one UTF-8 sequence starting at pos_ (lead byte >= 0x80) and
  // appends it to `out`.
  void Utf8(std::string* out) {
    const auto b = [this](std::size_t i) {
      return static_cast<unsigned char>(text_[pos_ + i]);
    };
    const unsigned char lead = b(0);
    std::size_t len = 0;
    unsigned long cp = 0;
    if (lead >= 0xC2 && lead <= 0xDF) {
      len = 2;
      cp = lead & 0x1F;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      len = 3;
      cp = lead & 0x0F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      len = 4;
      cp = lead & 0x07;
    } else {
      return Fail("invalid UTF-8 lead byte");
    }
    if (pos_ + len > text_.size()) return Fail("truncated UTF-8 sequence");
    for (std::size_t i = 1; i < len; ++i) {
      if ((b(i) & 0xC0) != 0x80) return Fail("invalid UTF-8 continuation");
      cp = (cp << 6) | (b(i) & 0x3F);
    }
    if ((len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000)) {
      return Fail("overlong UTF-8 sequence");
    }
    if ((cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF) {
      return Fail("UTF-8 encodes a surrogate or out-of-range code point");
    }
    out->append(text_.substr(pos_, len));
    pos_ += len;
  }

  void String(std::string* out) {
    ++pos_;  // opening quote
    for (;;) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(Peek());
      if (c == '"') {
        ++pos_;
        return;
      }
      if (c < 0x20) return Fail("raw control byte in string");
      if (c >= 0x80) {
        Utf8(out);
        if (!error_.empty()) return;
        continue;
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      const char e = Peek();
      ++pos_;
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          out->push_back(' ');  // the names the tests read never hold these
          break;
        case 'u': {
          const long unit = Hex4();
          if (unit < 0) return Fail("bad \\u escape");
          if (unit >= 0xDC00 && unit <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          if (unit >= 0xD800 && unit <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            const long low = Hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired high surrogate");
            }
          }
          out->push_back('?');
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
  }

  void Number() {
    const auto digit = [this] { return Peek() >= '0' && Peek() <= '9'; };
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (digit()) {
      while (digit()) ++pos_;
    } else {
      return Fail("expected a value");
    }
    if (Peek() == '.') {
      ++pos_;
      if (!digit()) return Fail("expected a fraction digit");
      while (digit()) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!digit()) return Fail("expected an exponent digit");
      while (digit()) ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace prometheus::testing

#endif  // PROMETHEUS_TESTS_JSON_CHECK_H_
