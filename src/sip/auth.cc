#include "sip/auth.h"

#include "common/md5.h"
#include "common/strings.h"

namespace scidive::sip {
namespace {

std::string quote(std::string_view s) { return "\"" + std::string(s) + "\""; }

}  // namespace

Parsed<DigestView> parse_digest_view(std::string_view header_value) {
  header_value = str::trim(header_value);
  if (!str::istarts_with(header_value, "Digest"))
    return ParseStatus{Errc::kUnsupported, "not a Digest header"};
  header_value.remove_prefix(6);

  DigestView params;
  str::Fields parts(header_value, ',');
  std::string_view part;
  while (parts.next(part)) {
    part = str::trim(part);
    if (part.empty()) continue;
    auto eq = str::split_once(part, '=');
    if (!eq) return ParseStatus{Errc::kMalformed, "digest param without '='"};
    std::string_view key = str::trim(eq->first);
    std::string_view value = unquote(str::trim(eq->second));
    if (key.empty()) return ParseStatus{Errc::kMalformed, "empty digest param name"};
    if (str::iequals(key, "username")) {
      params.username = value;
    } else if (str::iequals(key, "realm")) {
      params.realm = value;
    } else if (str::iequals(key, "nonce")) {
      params.nonce = value;
    } else if (str::iequals(key, "uri")) {
      params.uri = value;
    } else if (str::iequals(key, "response")) {
      params.response = value;
    }
  }
  return params;
}

std::string DigestChallenge::to_header_value() const {
  return "Digest realm=" + quote(realm) + ", nonce=" + quote(nonce) + ", algorithm=MD5";
}

Result<DigestChallenge> DigestChallenge::parse(std::string_view header_value) {
  auto view = parse_digest_view(header_value);
  if (!view.ok()) return view.error();
  const DigestView& p = view.value();
  if (!p.realm || !p.nonce) return Error{Errc::kMalformed, "challenge needs realm and nonce"};
  return DigestChallenge{std::string(*p.realm), std::string(*p.nonce)};
}

std::string DigestCredentials::to_header_value() const {
  return "Digest username=" + quote(username) + ", realm=" + quote(realm) + ", nonce=" +
         quote(nonce) + ", uri=" + quote(uri) + ", response=" + quote(response);
}

Result<DigestCredentials> DigestCredentials::parse(std::string_view header_value) {
  auto view = parse_digest_view(header_value);
  if (!view.ok()) return view.error();
  const DigestView& p = view.value();
  const std::pair<const char*, const std::optional<std::string_view>*> required[] = {
      {"username", &p.username}, {"realm", &p.realm}, {"nonce", &p.nonce},
      {"uri", &p.uri},           {"response", &p.response}};
  for (const auto& [name, value] : required) {
    if (!*value) return Error{Errc::kMalformed, std::string("credentials missing ") + name};
  }
  return DigestCredentials{std::string(*p.username), std::string(*p.realm),
                           std::string(*p.nonce), std::string(*p.uri),
                           std::string(*p.response)};
}

std::string compute_digest_response(std::string_view username, std::string_view realm,
                                    std::string_view password, std::string_view method,
                                    std::string_view uri, std::string_view nonce) {
  std::string ha1 = Md5::hex(std::string(username) + ":" + std::string(realm) + ":" +
                             std::string(password));
  std::string ha2 = Md5::hex(std::string(method) + ":" + std::string(uri));
  return Md5::hex(ha1 + ":" + std::string(nonce) + ":" + ha2);
}

DigestCredentials answer_challenge(const DigestChallenge& challenge, std::string_view username,
                                   std::string_view password, std::string_view method,
                                   std::string_view uri) {
  DigestCredentials c;
  c.username = std::string(username);
  c.realm = challenge.realm;
  c.nonce = challenge.nonce;
  c.uri = std::string(uri);
  c.response = compute_digest_response(username, challenge.realm, password, method, uri,
                                       challenge.nonce);
  return c;
}

bool verify_digest(const DigestCredentials& creds, std::string_view password,
                   std::string_view method) {
  std::string expected = compute_digest_response(creds.username, creds.realm, password, method,
                                                 creds.uri, creds.nonce);
  return expected == creds.response;
}

}  // namespace scidive::sip
