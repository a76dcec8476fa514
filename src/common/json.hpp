// The repo's one JSON codec: a strict reader for the documents it accepts
// (serve scenarios) and validates (exported Chrome traces), plus the string
// escaper every JSON writer uses. The reader is deliberately minimal —
// objects, arrays, strings, numbers, booleans, null; escapes \" \\ \/ \n
// \t \r \b \f and \uXXXX for ASCII; raw control bytes inside strings are
// rejected per RFC 8259 — and self-contained: the repo takes no
// dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hm::common {

/// A parsed JSON value. Object keys are kept in a std::map, so member order
/// in the source is irrelevant and error messages are deterministic.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Returns nullopt with `error` (when non-null) describing the first
/// failure and its byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error);

/// Escapes `\`, `"`, control characters for embedding in a JSON string.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace hm::common
