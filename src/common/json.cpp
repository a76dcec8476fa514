#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/csv.hpp"

namespace hm::common {

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  [[nodiscard]] std::optional<JsonValue> parse() {
    skip_whitespace();
    JsonValue value;
    if (!parse_value(value)) return std::nullopt;
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing bytes after JSON document");
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " (at byte " + std::to_string(pos_) + ")";
    }
  }

  void skip_whitespace() {
    pos_ = std::min(text_.size(), text_.find_first_not_of(" \t\n\r", pos_));
  }

  [[nodiscard]] bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    fail(std::string("expected '") + expected + "'");
    return false;
  }

  [[nodiscard]] bool parse_value(JsonValue& out) {
    if (++depth_ > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_whitespace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    bool ok = false;
    switch (text_[pos_]) {
      case '{': ok = parse_container(out, /*object=*/true); break;
      case '[': ok = parse_container(out, /*object=*/false); break;
      case '"':
        out.kind = JsonValue::Kind::kString;
        ok = parse_string(out.string);
        break;
      case 't':
      case 'f':
      case 'n': ok = parse_literal(out); break;
      default: ok = parse_number(out); break;
    }
    --depth_;
    return ok;
  }

  [[nodiscard]] bool parse_literal(JsonValue& out) {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) != word) continue;
      pos_ += word.size();
      out.kind =
          word == "null" ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
      out.boolean = word == "true";
      return true;
    }
    fail("invalid literal");
    return false;
  }

  [[nodiscard]] bool parse_number(JsonValue& out) {
    // Scan the number's character class; strtod below validates the token.
    const std::size_t start = pos_;
    pos_ = std::min(text_.size(),
                    text_.find_first_not_of("+-.0123456789Ee", pos_));
    if (pos_ == start) {
      fail("invalid number");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      fail("invalid number '" + token + "'");
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    return true;
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control byte in string");
        return false;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc{} || end != hex + 4) {
            fail("invalid \\u escape");
            return false;
          }
          pos_ += 4;
          if (code > 0x7F) {
            fail("\\u escape beyond ASCII is not supported");
            return false;
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("invalid escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  /// An array or object: comma-separated elements (or "key": value
  /// members) between the brackets.
  [[nodiscard]] bool parse_container(JsonValue& out, bool object) {
    const char close = object ? '}' : ']';
    if (!consume(object ? '{' : '[')) return false;
    out.kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      std::string key;
      if (object) {
        skip_whitespace();
        if (!parse_string(key)) return false;
        skip_whitespace();
        if (!consume(':')) return false;
      }
      JsonValue element;
      if (!parse_value(element)) return false;
      if (object) {
        out.object[std::move(key)] = std::move(element);
      } else {
        out.array.push_back(std::move(element));
      }
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != ',') return consume(close);
      ++pos_;
    }
  }

  static constexpr int kMaxDepth = 32;
  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Bytes of the well-formed UTF-8 sequence at the start of `text`, or 0 if
/// it is not one; `*skip` gets how many bytes to consume either way (for an
/// invalid sequence, its maximal prefix, so one U+FFFD replaces it). The
/// lead byte fixes the length and the range of the second byte (Unicode
/// Table 3-7), which rules out overlongs, surrogates and code points past
/// U+10FFFF.
[[nodiscard]] std::size_t utf8_sequence(std::string_view text,
                                        std::size_t* skip) {
  const auto lead = static_cast<unsigned char>(text[0]);
  const std::size_t length = lead >= 0xF0   ? (lead <= 0xF4 ? 4 : 0)
                             : lead >= 0xE0 ? 3
                             : lead >= 0xC2 ? 2
                                            : 0;
  const unsigned lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  const unsigned hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  std::size_t n = 1;
  while (n < length && n < text.size()) {
    const auto next = static_cast<unsigned char>(text[n]);
    if (next < (n == 1 ? lo : 0x80) || next > (n == 1 ? hi : 0xBF)) break;
    ++n;
  }
  *skip = n;
  return n == length ? length : 0;
}

/// json_escape, appending to `out`.
void append_escaped(std::string& out, std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) >= 0x80) {
      std::size_t skip = 0;
      const std::size_t length = utf8_sequence(text.substr(i), &skip);
      out.append(length != 0 ? text.substr(i, length) : "\xEF\xBF\xBD");
      i += skip;
      continue;
    }
    ++i;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buffer);
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  JsonParser parser(text, error);
  return parser.parse();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

JsonWriter& JsonWriter::raw(std::string_view text) {
  if (after_key_) {
    after_key_ = false;
  } else if (!first_.empty()) {
    if (!first_.back()) out_.append(", ");
    first_.back() = false;
  }
  out_.append(text);
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  raw(std::string_view(&bracket, 1));
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  first_.pop_back();
  out_.push_back(bracket);
  if (first_.empty()) out_.push_back('\n');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  raw("\"");
  append_escaped(out_, name);
  out_.append("\": ");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view text) {
  raw("\"");
  append_escaped(out_, text);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  return raw(std::isfinite(value) ? format_double(value) : "null");
}

}  // namespace hm::common
