#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  JsonParser parser(text, error);
  return parser.parse();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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
  return out;
}

}  // namespace hm::common
