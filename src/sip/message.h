// SIP message model, parser and serializer (RFC 3261 subset sufficient for
// a 2004-era VoIP deployment: REGISTER/INVITE/ACK/BYE/CANCEL/OPTIONS/
// MESSAGE, re-INVITE, digest auth headers, SDP bodies).
//
// The grammar has one implementation, MessageView::scan: a single pass over
// the wire bytes that validates the start line (request URI included) and
// records every header as a name/value view into the caller's buffer, with
// line folding, compact names and the Content-Length body rules applied.
// The IDS reads packets through that scan directly, reusing one MessageView
// so a steady-state packet allocates nothing; SipMessage::parse is the same
// scan followed by an owning copy, for the endpoints and tools that build,
// edit and re-serialize messages.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sip/headers.h"
#include "sip/uri.h"

namespace scidive::sip {

enum class Method {
  kInvite,
  kAck,
  kBye,
  kCancel,
  kRegister,
  kOptions,
  kMessage,  // instant messaging (RFC 3428)
  kInfo,
  kUnknown,
};

std::string_view method_name(Method m);
Method method_from_name(std::string_view name);

/// Response status classes the IDS reasons about.
inline int status_class(int code) { return code / 100; }

/// One header field as scanned: trimmed name and value, viewing either the
/// scanned text or, for a folded line, the MessageView's fold buffer.
struct HeaderView {
  std::string_view name;
  std::string_view value;
};

/// A SIP message scanned in place. Reusable: each scan() overwrites the
/// previous one and keeps the header and fold buffers' capacity, so a
/// long-lived MessageView scans without allocating once warm. Views stay
/// valid until the next scan() and while the scanned text lives.
class MessageView {
 public:
  /// Scan `text` under exactly SipMessage::parse's rules and error codes.
  ParseStatus scan(std::string_view text);
  ParseStatus scan(std::span<const uint8_t> bytes) {
    return scan(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  }

  bool is_request() const { return is_request_; }
  std::string_view method_text() const { return method_text_; }
  Method method() const { return method_; }
  /// The request URI, validated by the scan.
  const UriView& request_uri() const { return request_uri_; }
  int status_code() const { return status_code_; }
  std::string_view reason() const { return reason_; }

  /// Every header field in message order.
  std::span<const HeaderView> headers() const { return headers_; }
  /// First value of one of the headers the scan classifies, `h` not
  /// kOther (Headers::get semantics: case-insensitive, compact forms
  /// included, first wins).
  std::optional<std::string_view> get(KnownHeader h) const {
    const uint32_t slot = first_[static_cast<size_t>(h)];
    if (slot == 0) return std::nullopt;
    return headers_[slot - 1].value;
  }
  bool has(KnownHeader h) const { return first_[static_cast<size_t>(h)] != 0; }

  std::string_view body() const { return body_; }

 private:
  std::optional<std::string_view> next_logical_line(std::string_view& text);

  bool is_request_ = true;
  Method method_ = Method::kUnknown;
  std::string_view method_text_;
  UriView request_uri_;
  int status_code_ = 0;
  std::string_view reason_;
  std::vector<HeaderView> headers_;
  std::array<uint32_t, kKnownHeaderCount> first_{};  // index + 1 into headers_; 0 = absent
  std::string_view body_;
  /// Folded lines, unfolded. Reserved to the scanned text's size on the
  /// first fold of a scan, so appends never move the views into it.
  std::string folds_;
  size_t scan_size_ = 0;
};

class SipMessage {
 public:
  /// Build a request skeleton (start line only; headers added by caller).
  static SipMessage request(Method method, SipUri request_uri);
  /// Build a response skeleton.
  static SipMessage response(int status_code, std::string reason);

  /// Parse from wire bytes. Strict on structure (start line, header syntax
  /// of the structured headers is validated lazily), tolerant of unknown
  /// headers. Body length is governed by Content-Length when present.
  static Result<SipMessage> parse(std::string_view text);
  static Result<SipMessage> parse(std::span<const uint8_t> bytes);

  /// Serialize to wire format. Content-Length is always emitted.
  std::string to_string() const;

  bool is_request() const { return is_request_; }
  bool is_response() const { return !is_request_; }

  // Request accessors.
  Method method() const { return method_; }
  const std::string& method_text() const { return method_text_; }
  const SipUri& request_uri() const { return request_uri_; }
  void set_request_uri(SipUri uri) { request_uri_ = std::move(uri); }

  // Response accessors.
  int status_code() const { return status_code_; }
  const std::string& reason() const { return reason_; }

  Headers& headers() { return headers_; }
  const Headers& headers() const { return headers_; }

  const std::string& body() const { return body_; }
  void set_body(std::string body, std::string content_type);

  // --- structured header conveniences (parse on access) ---
  std::optional<std::string> call_id() const;
  Result<CSeq> cseq() const;
  Result<NameAddr> from() const;
  Result<NameAddr> to() const;
  Result<NameAddr> contact() const;
  Result<Via> top_via() const;
  std::optional<uint32_t> expires() const;
  std::optional<uint32_t> max_forwards() const;

  /// True when every mandatory header for this message kind is present and
  /// parses (the Billing-fraud rule's "correct format" check, §3.2).
  bool well_formed() const;

 private:
  SipMessage() = default;
  /// Owning copy of a successful scan.
  explicit SipMessage(const MessageView& view);

  bool is_request_ = true;
  Method method_ = Method::kUnknown;
  std::string method_text_;
  SipUri request_uri_;
  int status_code_ = 0;
  std::string reason_;
  Headers headers_;
  std::string body_;
};

}  // namespace scidive::sip
