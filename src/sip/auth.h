// SIP digest authentication (RFC 3261 §22 / RFC 2617, no-qop variant that
// 2004-era proxies like SIP Express Router shipped by default).
//
//   response = MD5( MD5(user:realm:password) : nonce : MD5(method:uri) )
//
// The registrar challenges REGISTER with 401 + WWW-Authenticate; the client
// retries with an Authorization header. The password-guessing attack of
// §3.3 brute-forces the `response` field against a fixed nonce.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sip/parsed.h"

namespace scidive::sip {

/// The digest params of a validated `Digest k="v", ...` header, located in
/// the caller's buffer (the view core of the challenge and credentials
/// parsers). Keys match case-insensitively, values are unquoted, and the
/// last occurrence of a key wins; a param that never appeared is nullopt.
struct DigestView {
  std::optional<std::string_view> username;
  std::optional<std::string_view> realm;
  std::optional<std::string_view> nonce;
  std::optional<std::string_view> uri;
  std::optional<std::string_view> response;

  /// Every param DigestCredentials::parse requires is present.
  bool has_credentials() const { return username && realm && nonce && uri && response; }
};

/// Validate `header_value` as a Digest param list; no allocation.
Parsed<DigestView> parse_digest_view(std::string_view header_value);

/// WWW-Authenticate challenge parameters.
struct DigestChallenge {
  std::string realm;
  std::string nonce;

  std::string to_header_value() const;
  static Result<DigestChallenge> parse(std::string_view header_value);
};

/// Authorization credentials presented by a client.
struct DigestCredentials {
  std::string username;
  std::string realm;
  std::string nonce;
  std::string uri;
  std::string response;  // 32 hex chars

  std::string to_header_value() const;
  static Result<DigestCredentials> parse(std::string_view header_value);
};

/// Compute the expected digest response.
std::string compute_digest_response(std::string_view username, std::string_view realm,
                                    std::string_view password, std::string_view method,
                                    std::string_view uri, std::string_view nonce);

/// Build credentials answering a challenge.
DigestCredentials answer_challenge(const DigestChallenge& challenge, std::string_view username,
                                   std::string_view password, std::string_view method,
                                   std::string_view uri);

/// Verify presented credentials against the known password.
bool verify_digest(const DigestCredentials& creds, std::string_view password,
                   std::string_view method);

}  // namespace scidive::sip
