#include "sip/uri.h"

#include "common/strings.h"

namespace scidive::sip {

Parsed<UriView> parse_uri_view(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "sip:"))
    return ParseStatus{Errc::kMalformed, "URI scheme must be sip:"};
  text.remove_prefix(4);
  if (text.empty()) return ParseStatus{Errc::kMalformed, "empty URI"};

  UriView uri;

  // Split off ;params first (they follow host[:port]).
  std::string_view core = text;
  if (auto split = str::split_once(text, ';')) {
    core = split->first;
    uri.params = split->second;
  }

  // user@host or just host.
  std::string_view hostport = core;
  if (auto at = str::split_once(core, '@')) {
    if (at->first.empty()) return ParseStatus{Errc::kMalformed, "empty user before @"};
    uri.user = at->first;
    hostport = at->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port || *port == 0) return ParseStatus{Errc::kMalformed, "bad port"};
    uri.port = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return ParseStatus{Errc::kMalformed, "empty host"};
  for (char c : hostport) {
    if (!(str::is_alnum(c) || c == '.' || c == '-' || c == '_'))
      return ParseStatus{Errc::kMalformed, "bad host character"};
  }
  uri.host = hostport;
  return uri;
}

SipUri::SipUri(const UriView& view)
    : user_(view.user), host_(view.host), port_(view.port) {
  for_each_param(view.params, ';', [&](std::string_view key, std::string_view value) {
    params_[std::string(key)] = std::string(value);
  });
}

Result<SipUri> SipUri::parse(std::string_view text) {
  auto view = parse_uri_view(text);
  if (!view.ok()) return view.error();
  return SipUri(view.value());
}

std::optional<std::string> SipUri::param(std::string_view name) const {
  auto it = params_.find(name);
  if (it == params_.end()) return std::nullopt;
  return it->second;
}

std::string SipUri::to_string() const {
  std::string out = "sip:";
  if (!user_.empty()) {
    out += user_;
    out += '@';
  }
  out += host_;
  if (port_ != 0) out += str::format(":%u", port_);
  for (const auto& [k, v] : params_) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

}  // namespace scidive::sip
