// Reference oracle for the Distiller's one-pass SIP path. The footprint is
// rebuilt the long way: an owning SipMessage::parse, then every field read
// through the structured-header accessors (From, To, CSeq, Contact, the top
// Via, digest credentials, an owning Sdp), exactly as the Distiller did
// before it read the payload as views. Equivalence tests and the fuzz
// targets compare core::distill_sip against it field for field.
#pragma once

#include <string>
#include <string_view>

#include "common/result.h"
#include "scidive/footprint.h"
#include "sip/message.h"

namespace scidive::fuzz {

/// The footprint of a parsed message, built through the owning accessors.
core::SipFootprint reference_sip_footprint(const sip::SipMessage& msg);

/// What the Distiller must produce for a SIP-port payload: the reference
/// footprint when SipMessage::parse accepts it, else the unparseable
/// footprint, with the parse-error cell it is charged to in `error`
/// (Errc::kOk when it parsed).
core::SipFootprint reference_sip_distill(std::string_view payload, Errc& error);

/// Names of the SipFootprint fields on which `a` and `b` differ, comma
/// separated; empty when they are equal.
std::string sip_footprint_diff(const core::SipFootprint& a, const core::SipFootprint& b);

/// The view path (core::distill_sip over a fresh scan buffer) against
/// reference_sip_distill for one payload: the fields that differ plus
/// "parse_error" when the two charge different cells; empty when equal.
std::string check_sip_distill(std::string_view payload);

}  // namespace scidive::fuzz
