// Strict UTF-8 check for tests, written independently of the JSON writer's
// own sequence decoder so that a bug there cannot hide itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hm::testutil {

/// True when `text` is well-formed UTF-8 (Unicode Table 3-7): no stray or
/// missing continuation bytes, overlongs, surrogates, or code points past
/// U+10FFFF.
[[nodiscard]] inline bool valid_utf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const auto lead = static_cast<unsigned char>(text[i]);
    const std::size_t length = lead < 0x80               ? 1
                               : (lead & 0xE0) == 0xC0 ? 2
                               : (lead & 0xF0) == 0xE0 ? 3
                               : (lead & 0xF8) == 0xF0 ? 4
                                                       : 0;
    if (length == 0 || i + length > text.size()) return false;
    std::uint32_t code = length == 1 ? lead : lead & (0x7Fu >> length);
    for (std::size_t k = 1; k < length; ++k) {
      const auto next = static_cast<unsigned char>(text[i + k]);
      if ((next & 0xC0) != 0x80) return false;
      code = (code << 6) | (next & 0x3Fu);
    }
    const std::uint32_t min_code[] = {0, 0, 0x80, 0x800, 0x10000};
    if (code < min_code[length] || code > 0x10FFFF ||
        (code >= 0xD800 && code <= 0xDFFF)) {
      return false;
    }
    i += length;
  }
  return true;
}

}  // namespace hm::testutil
