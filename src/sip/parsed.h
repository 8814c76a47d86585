// Outcome type of the SIP view cores. A view core validates and locates the
// parts of a SIP grammar element inside the caller's buffer and returns
// std::string_views into it; it never touches the heap. The owning parsers
// (SipUri::parse, NameAddr::parse, Sdp::parse, ...) run the same core and
// then copy, so each grammar rule has one implementation.
#pragma once

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/strings.h"

namespace scidive::sip {

/// Success, or an error code plus a static message (and an optional view
/// of the offending text). Converts to an owning Error only when asked.
struct ParseStatus {
  ParseStatus() = default;
  ParseStatus(Errc c, const char* w, std::string_view d = {}) : code(c), what(w), detail(d) {}

  Errc code = Errc::kOk;
  const char* what = "";
  std::string_view detail;

  bool ok() const { return code == Errc::kOk; }
  Error error() const {
    Error e{code, what};
    e.message += detail;
    return e;
  }
};

/// A view (valid while the parsed buffer lives) or the failure.
template <typename T>
class Parsed {
 public:
  Parsed(T view) : view_(view) {}                // NOLINT(google-explicit-constructor)
  Parsed(ParseStatus failure) : status_(failure) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return status_.ok(); }
  const T& value() const { return view_; }
  const ParseStatus& status() const { return status_; }
  Error error() const { return status_.error(); }

 private:
  T view_{};
  ParseStatus status_;
};

/// Visit each `;`-style parameter of `text`: fields split on `sep`, trimmed,
/// empty ones skipped, then split at the first '=' into (key, value) with
/// value "" when there is no '='. Keys and values are not trimmed further.
template <typename Fn>
void for_each_param(std::string_view text, char sep, Fn&& fn) {
  str::Fields fields(text, sep);
  std::string_view p;
  while (fields.next(p)) {
    p = str::trim(p);
    if (p.empty()) continue;
    const size_t eq = str::find_byte(p, '=');
    if (eq == std::string_view::npos) {
      fn(p, std::string_view());
    } else {
      fn(p.substr(0, eq), p.substr(eq + 1));
    }
  }
}

/// Strip one pair of enclosing double quotes, if present.
inline std::string_view unquote(std::string_view s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') return s.substr(1, s.size() - 2);
  return s;
}

}  // namespace scidive::sip
