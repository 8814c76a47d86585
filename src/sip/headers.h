// SIP header field collection and the structured header types used by the
// stack and the IDS: name-addr (From/To/Contact), Via, CSeq.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sip/parsed.h"
#include "sip/uri.h"

namespace scidive::sip {

/// One "Name: value" field, order-preserving in the message.
struct HeaderField {
  std::string name;
  std::string value;
};

/// Canonical (long) header name for a possibly-compact form ("v" -> "Via").
std::string_view canonical_header_name(std::string_view name);

/// The headers the IDS reads, told apart once per field by the message
/// scan (compact forms included) so later lookups are an array index.
enum class KnownHeader : uint8_t {
  kVia,
  kFrom,
  kTo,
  kCallId,
  kCSeq,
  kContact,
  kContentLength,
  kAuthorization,
  kWwwAuthenticate,
  kOther,
};
constexpr size_t kKnownHeaderCount = static_cast<size_t>(KnownHeader::kOther);

/// Classify a header name, case-insensitively and compact-form aware.
KnownHeader known_header(std::string_view name);

/// Ordered multi-map of header fields with case-insensitive, compact-form
/// aware lookup.
class Headers {
 public:
  void add(std::string name, std::string value);
  /// Replace all fields of this name with a single one.
  void set(std::string name, std::string value);
  void remove(std::string_view name);

  /// First value of a header, if present.
  std::optional<std::string_view> get(std::string_view name) const;
  /// All values of a header, in message order.
  std::vector<std::string_view> get_all(std::string_view name) const;
  bool has(std::string_view name) const { return get(name).has_value(); }
  size_t count(std::string_view name) const { return get_all(name).size(); }

  const std::vector<HeaderField>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }

 private:
  std::vector<HeaderField> fields_;
};

/// A validated name-addr located in the caller's buffer (the view core of
/// NameAddr::parse).
struct NameAddrView {
  std::string_view display_name;  // quotes stripped
  UriView uri;
  std::string_view params;  // header params after the URI, ';'-separated

  /// A header param as NameAddr::params holds it: key and value trimmed,
  /// "" for a bare name, and the last occurrence wins.
  std::optional<std::string_view> param(std::string_view name) const;
  std::optional<std::string_view> tag() const { return param("tag"); }
};

/// Validate `text` as [display-name] <uri> ;params or addr-spec ;params.
Parsed<NameAddrView> parse_name_addr_view(std::string_view text);

/// From/To/Contact style: [display-name] <uri> ;params   (tag lives here).
struct NameAddr {
  std::string display_name;
  SipUri uri;
  std::map<std::string, std::string, std::less<>> params;

  static Result<NameAddr> parse(std::string_view text);
  std::string to_string() const;

  std::optional<std::string> tag() const {
    auto it = params.find("tag");
    if (it == params.end()) return std::nullopt;
    return it->second;
  }
  void set_tag(std::string tag) { params["tag"] = std::move(tag); }
};

/// A validated Via value located in the caller's buffer (the view core of
/// Via::parse).
struct ViaView {
  std::string_view transport;
  std::string_view host;
  uint16_t port = 5060;
  std::string_view params;  // raw text after the first ';'
};

/// Validate `text` as one Via value: SIP/2.0/<transport> host[:port][;params].
Parsed<ViaView> parse_via_view(std::string_view text);

/// The first (topmost) Via of a field: several Vias may be comma-joined.
std::string_view top_via_value(std::string_view field);

/// Via: SIP/2.0/UDP host:port;branch=z9hG4bK...;params
struct Via {
  std::string transport = "UDP";
  std::string host;
  uint16_t port = 5060;
  std::map<std::string, std::string, std::less<>> params;

  static Result<Via> parse(std::string_view text);
  std::string to_string() const;

  std::optional<std::string> branch() const {
    auto it = params.find("branch");
    if (it == params.end()) return std::nullopt;
    return it->second;
  }
};

/// A validated CSeq value; `method` views the caller's buffer.
struct CSeqView {
  uint32_t number = 0;
  std::string_view method;
};

/// Validate `text` as "number METHOD".
Parsed<CSeqView> parse_cseq_view(std::string_view text);

/// CSeq: 42 INVITE
struct CSeq {
  uint32_t number = 0;
  std::string method;

  static Result<CSeq> parse(std::string_view text);
  std::string to_string() const;
};

}  // namespace scidive::sip
