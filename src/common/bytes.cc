#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace scidive {

std::string to_hex(std::span<const uint8_t> data) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(data.size() * 2);
  for (uint8_t b : data) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

Bytes from_string(std::string_view s) {
  return Bytes(reinterpret_cast<const uint8_t*>(s.data()),
               reinterpret_cast<const uint8_t*>(s.data()) + s.size());
}

std::string to_string_view_copy(std::span<const uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

uint16_t internet_checksum(std::span<const uint8_t> data, uint32_t initial) {
  // Eight bytes per step in native order (RFC 1071 §2: the ones'-complement
  // sum is independent of byte order up to one final swap, and of word size
  // up to folding with end-around carry). Every packet the Distiller
  // validates pays this over its whole UDP payload.
  const uint8_t* p = data.data();
  const size_t n = data.size();
  size_t i = 0;
  uint64_t wide = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    wide += word;
    wide += wide < word;  // end-around carry
  }
  wide = (wide & 0xffffffffu) + (wide >> 32);
  wide = (wide & 0xffffu) + (wide >> 16);
  wide = (wide & 0xffffu) + (wide >> 16);
  wide = (wide & 0xffffu) + (wide >> 16);
  auto folded = static_cast<uint16_t>(wide);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<uint16_t>(folded << 8 | folded >> 8);
  }
  uint64_t sum = static_cast<uint64_t>(initial) + folded;
  for (; i + 1 < n; i += 2) {
    sum += static_cast<uint32_t>(p[i]) << 8 | p[i + 1];
  }
  if (i < n) sum += static_cast<uint32_t>(p[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum);
}

}  // namespace scidive
