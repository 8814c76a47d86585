// Small string utilities shared by the text-protocol parsers (SIP, SDP, ACC).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scidive::str {

/// ASCII whitespace: what std::isspace accepts in the "C" locale.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// ASCII letter or digit: what std::isalnum accepts in the "C" locale.
constexpr bool is_alnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// ASCII lower case of one character.
constexpr char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Remove leading and trailing ASCII whitespace. Inline: the text-protocol
/// parsers trim every field they read.
inline std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

/// Case-insensitive prefix test.
inline bool istarts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

/// Index of the first `needle` byte at or after `from`; npos when absent.
/// 16-bytes-per-iteration SSE2 scan (SWAR fallback elsewhere) — the SIP
/// parser's CRLF and colon scans, split() and split_once() all route
/// through this, so header-heavy messages are scanned a cache line at a
/// time instead of byte-by-byte.
size_t find_byte(std::string_view s, char needle, size_t from = 0);

/// Index of the first "\r\n" at or after `from`; npos when absent.
size_t find_crlf(std::string_view s, size_t from = 0);

/// Split on a separator character. Empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Walks the fields of `s` split on `sep` without allocating: yields exactly
/// the fields split() would return, empty ones included, one per next().
class Fields {
 public:
  Fields(std::string_view s, char sep) : rest_(s), sep_(sep) {}

  /// Store the next field in `field`; false once every field was yielded.
  bool next(std::string_view& field) {
    if (done_) return false;
    const size_t pos = find_byte(rest_, sep_);
    if (pos == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, pos);
      rest_.remove_prefix(pos + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

/// Split on the first occurrence of sep. Returns nullopt if sep is absent.
std::optional<std::pair<std::string_view, std::string_view>> split_once(std::string_view s,
                                                                        char sep);

/// Strict non-negative decimal parse; rejects empty/overflow/trailing junk.
std::optional<uint64_t> parse_u64(std::string_view s);
std::optional<uint32_t> parse_u32(std::string_view s);
std::optional<uint16_t> parse_u16(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace scidive::str
