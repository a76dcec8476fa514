// Field codecs for journal payloads and snapshot records.
//
// A journal payload is a flat sequence of fields joined with '|', each field
// escaped so it cannot contain a bare '|' or '\'. Doubles are serialized as
// their raw IEEE-754 bits in hex ("x" prefix), which makes the round trip
// byte-exact — a requirement for deterministic resume, where a re-read
// objective value must hash and compare identically to the value that was
// journaled. Plain non-negative integers use decimal.
//
// These are deliberately dumb building blocks: the journal schema itself
// (which fields mean what for an "eval" vs a "snap" record) lives with the
// subsystem that owns the run, e.g. src/hypermapper/run_journal.*.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace hm::common {

namespace detail {

inline void append_field_escaped(std::string* out, std::string_view field) {
  for (const char c : field) {
    if (c == '\\' || c == '|') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace detail

/// Joins fields with '|', escaping '|' and '\' inside each field.
[[nodiscard]] inline std::string encode_fields(
    const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back('|');
    detail::append_field_escaped(&out, fields[i]);
  }
  return out;
}

/// Splits an encode_fields() payload back into fields. Returns nullopt on a
/// dangling escape (truncated or corrupted payload).
[[nodiscard]] inline std::optional<std::vector<std::string>> decode_fields(
    std::string_view payload) {
  std::vector<std::string> fields(1);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const char c = payload[i];
    if (c == '\\') {
      if (i + 1 >= payload.size()) return std::nullopt;
      fields.back().push_back(payload[++i]);
    } else if (c == '|') {
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }
  return fields;
}

[[nodiscard]] inline std::string encode_u64(std::uint64_t value) {
  return std::to_string(value);
}

[[nodiscard]] inline std::optional<std::uint64_t> decode_u64(
    std::string_view field) {
  if (field.empty() || field.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// Byte-exact double serialization: "x" + 16 lowercase hex digits of the
/// IEEE-754 bit pattern. Decimal formatting would round-trip approximately;
/// resume requires exactly.
[[nodiscard]] inline std::string encode_double(double value) {
  static const char kHex[] = "0123456789abcdef";
  std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  std::string out(17, 'x');
  for (int i = 16; i >= 1; --i) {
    out[static_cast<std::size_t>(i)] = kHex[bits & 0xFu];
    bits >>= 4;
  }
  return out;
}

[[nodiscard]] inline std::optional<double> decode_double(
    std::string_view field) {
  if (field.size() != 17 || field[0] != 'x') return std::nullopt;
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i < 17; ++i) {
    const char c = field[i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    bits = (bits << 4) | nibble;
  }
  return std::bit_cast<double>(bits);
}

/// RNG state as a single field: 4 state words, the spare-normal flag, and
/// the spare-normal bits, comma-joined.
[[nodiscard]] inline std::string encode_rng(const RngState& state) {
  std::string out;
  for (const std::uint64_t word : state.words) {
    out += encode_u64(word);
    out.push_back(',');
  }
  out += state.have_spare_normal ? "1" : "0";
  out.push_back(',');
  out += encode_u64(state.spare_normal_bits);
  return out;
}

[[nodiscard]] inline std::optional<RngState> decode_rng(
    std::string_view field) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= field.size(); ++i) {
    if (i == field.size() || field[i] == ',') {
      parts.push_back(field.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 6) return std::nullopt;
  RngState state;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto word = decode_u64(parts[i]);
    if (!word) return std::nullopt;
    state.words[i] = *word;
  }
  if (parts[4] == "1") {
    state.have_spare_normal = true;
  } else if (parts[4] == "0") {
    state.have_spare_normal = false;
  } else {
    return std::nullopt;
  }
  const auto bits = decode_u64(parts[5]);
  if (!bits) return std::nullopt;
  state.spare_normal_bits = *bits;
  return state;
}

}  // namespace hm::common
