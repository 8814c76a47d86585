// SIP URI (RFC 3261 §19.1, restricted grammar): sip:user@host:port;params.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sip/parsed.h"

namespace scidive::sip {

/// A validated SIP URI located in the caller's buffer (the view core of
/// SipUri::parse).
struct UriView {
  std::string_view user;    // empty when there is no user part
  std::string_view host;
  uint16_t port = 0;        // 0 = unspecified
  std::string_view params;  // raw text after the first ';' ("" when none)

  /// Append user@host (or host) to `out`: SipUri::address_of_record().
  void append_address_of_record(std::string& out) const {
    out.reserve(out.size() + user.size() + 1 + host.size());
    if (!user.empty()) {
      out += user;
      out += '@';
    }
    out += host;
  }
};

/// Validate `text` as a sip: URI and locate its parts; no allocation.
Parsed<UriView> parse_uri_view(std::string_view text);

class SipUri {
 public:
  SipUri() = default;
  SipUri(std::string user, std::string host, uint16_t port = 0)
      : user_(std::move(user)), host_(std::move(host)), port_(port) {}
  /// Owning copy of a validated view.
  explicit SipUri(const UriView& view);

  static Result<SipUri> parse(std::string_view text);

  const std::string& user() const { return user_; }
  const std::string& host() const { return host_; }
  /// 0 means "unspecified" (defaults to 5060 at the transport layer).
  uint16_t port() const { return port_; }
  uint16_t port_or_default() const { return port_ ? port_ : 5060; }

  void set_host(std::string host) { host_ = std::move(host); }
  void set_port(uint16_t port) { port_ = port; }

  std::optional<std::string> param(std::string_view name) const;
  void set_param(std::string name, std::string value) { params_[std::move(name)] = std::move(value); }

  /// user@host (no scheme/port/params) — the paper's notion of a user
  /// address, used for registrar bindings and accounting records.
  std::string address_of_record() const {
    return user_.empty() ? host_ : user_ + "@" + host_;
  }

  std::string to_string() const;

  bool operator==(const SipUri& other) const {
    return user_ == other.user_ && host_ == other.host_ && port_ == other.port_;
  }

 private:
  std::string user_;
  std::string host_;
  uint16_t port_ = 0;
  std::map<std::string, std::string, std::less<>> params_;
};

}  // namespace scidive::sip
