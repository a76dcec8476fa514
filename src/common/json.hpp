// The repo's one JSON codec: a strict reader for the documents it accepts
// (serve scenarios) and validates (exported Chrome traces), plus the
// streaming writer every emitted document goes through (metrics, traces,
// the flight recorder, /status, hm_lint and the bench reports). The reader
// is deliberately minimal — objects, arrays, strings, numbers, booleans,
// null; escapes \" \\ \/ \n \t \r \b \f and \uXXXX for ASCII; raw
// control bytes inside strings are rejected per RFC 8259 — and
// self-contained: the repo takes no dependencies.
#pragma once

#include <concepts>
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

/// Escapes `\`, `"` and control characters for embedding in a JSON string,
/// and replaces each invalid UTF-8 sequence with U+FFFD, so the result is
/// always valid UTF-8 whatever bytes `text` holds.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streaming JSON writer with one fixed layout: `"key": value`, `, `
/// between members and elements, no other whitespace, and a newline after
/// the outermost container closes. Strings go through json_escape; integers
/// are written exactly; doubles use format_double (shortest round-tripping
/// text), and NaN/infinity, which JSON cannot spell, become null. Calls
/// chain: `json.key("count").integer(n)`. The caller keeps keys and values
/// paired and containers balanced.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view name);
  JsonWriter& string(std::string_view text);
  JsonWriter& number(double value);
  JsonWriter& boolean(bool value) { return raw(value ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& integer(T value) {
    return raw(std::to_string(value));
  }

  /// The document written so far.
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  /// Writes the separator a new value needs, then `text` verbatim.
  JsonWriter& raw(std::string_view text);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  /// One entry per open container: true until its first value.
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace hm::common
