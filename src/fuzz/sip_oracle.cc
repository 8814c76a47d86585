#include "fuzz/sip_oracle.h"

#include "scidive/distiller.h"
#include "sip/auth.h"
#include "sip/sdp.h"

namespace scidive::fuzz {

core::SipFootprint reference_sip_footprint(const sip::SipMessage& msg) {
  core::SipFootprint s;
  s.is_request = msg.is_request();
  if (msg.is_request()) {
    s.method = msg.method_text();
  } else {
    s.status_code = msg.status_code();
  }
  auto cs = msg.cseq();
  if (cs.ok()) {
    s.cseq = cs.value().number;
    s.cseq_method = cs.value().method;
  }
  s.call_id = msg.call_id().value_or("");
  auto from = msg.from();
  if (from.ok()) {
    s.from_aor = from.value().uri.address_of_record();
    s.from_tag = from.value().tag().value_or("");
  }
  auto to = msg.to();
  if (to.ok()) {
    s.to_aor = to.value().uri.address_of_record();
    s.to_tag = to.value().tag().value_or("");
  }
  s.well_formed = msg.well_formed();
  if (auto auth = msg.headers().get("Authorization")) {
    s.has_auth = true;
    auto creds = sip::DigestCredentials::parse(*auth);
    if (creds.ok()) s.auth_response = creds.value().response;
  }
  s.has_challenge = msg.headers().has("WWW-Authenticate");
  s.body_len = msg.body().size();
  auto sdp = sip::Sdp::parse(msg.body());
  if (sdp.ok() && sdp.value().audio() != nullptr) {
    if (auto ip = pkt::Ipv4Address::parse(sdp.value().connection_addr))
      s.sdp_media = pkt::Endpoint{*ip, sdp.value().audio()->port};
  }
  auto contact = msg.contact();
  if (contact.ok()) {
    if (auto ip = pkt::Ipv4Address::parse(contact.value().uri.host()))
      s.contact = pkt::Endpoint{*ip, contact.value().uri.port_or_default()};
  }
  return s;
}

core::SipFootprint reference_sip_distill(std::string_view payload, Errc& error) {
  auto msg = sip::SipMessage::parse(payload);
  if (msg.ok()) {
    error = Errc::kOk;
    return reference_sip_footprint(msg.value());
  }
  error = msg.error().code;
  core::SipFootprint s;
  s.well_formed = false;
  s.is_request = true;
  s.method = "<unparseable>";
  return s;
}

std::string sip_footprint_diff(const core::SipFootprint& a, const core::SipFootprint& b) {
  std::string out;
  auto field = [&out](bool equal, const char* name) {
    if (equal) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  field(a.is_request == b.is_request, "is_request");
  field(a.method == b.method, "method");
  field(a.status_code == b.status_code, "status_code");
  field(a.cseq_method == b.cseq_method, "cseq_method");
  field(a.cseq == b.cseq, "cseq");
  field(a.call_id == b.call_id, "call_id");
  field(a.from_aor == b.from_aor, "from_aor");
  field(a.from_tag == b.from_tag, "from_tag");
  field(a.to_aor == b.to_aor, "to_aor");
  field(a.to_tag == b.to_tag, "to_tag");
  field(a.well_formed == b.well_formed, "well_formed");
  field(a.has_auth == b.has_auth, "has_auth");
  field(a.auth_response == b.auth_response, "auth_response");
  field(a.has_challenge == b.has_challenge, "has_challenge");
  field(a.sdp_media == b.sdp_media, "sdp_media");
  field(a.contact == b.contact, "contact");
  field(a.body_len == b.body_len, "body_len");
  return out;
}

std::string check_sip_distill(std::string_view payload) {
  Errc reference_error = Errc::kOk;
  const core::SipFootprint reference = reference_sip_distill(payload, reference_error);
  sip::MessageView scan;
  core::SipFootprint view;
  const sip::ParseStatus status = core::distill_sip(payload, scan, view);
  std::string diff = sip_footprint_diff(view, reference);
  if (status.code != reference_error) diff += diff.empty() ? "parse_error" : ",parse_error";
  return diff;
}

}  // namespace scidive::fuzz
