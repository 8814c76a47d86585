// Events — the Event Generator's output (§3.1): "a layer of abstraction
// which correlates the information in footprints and concentrates the
// information into a single event. It helps performance … by triggering the
// ruleset at the moment of interest instead of … upon each incoming RTP
// Footprint."
#pragma once

#include <string>

#include "common/clock.h"
#include "pkt/addr.h"
#include "scidive/trail.h"

namespace scidive::core {

enum class EventType {
  // SIP signaling milestones.
  kSipInviteSeen,          // initial INVITE for a session
  kSipReinviteSeen,        // in-dialog INVITE (target refresh / migration)
  kSipSessionEstablished,  // 200 OK to INVITE observed
  kSipByeSeen,             // BYE observed (session enters torn-down state)
  kSipMalformed,           // SIP message failing format validation
  kSip4xxSeen,             // any 4xx response
  kSipRegisterSeen,        // REGISTER request
  kSipAuthChallenge,       // 401 with a challenge
  kSipAuthFailure,         // 401 answering a request that carried credentials;
                           // endpoint = the client refused
  kImMessageSeen,          // MESSAGE request (instant message)
  kImMessageSent,          // host-based: the local client really sent an IM
                           // (cooperative detection vouching, §6 extension)

  // Media events (already aggregated across packets — stateful).
  kRtpPacketSeen,        // one event PER RTP packet — disabled by default;
                         // exists for the ablation that measures what the
                         // event abstraction saves (§3.1: "triggering the
                         // ruleset at the moment of interest instead of
                         // upon each incoming RTP Footprint")
  kRtpStreamStarted,     // first RTP of a flow within a session
  kRtpSeqJump,           // |consecutive seq gap| beyond threshold (value=gap)
  kRtpUnexpectedSource,  // RTP for a session from an unsignaled endpoint
  kRtpAfterBye,          // RTP from the allegedly-departed party after BYE
  kRtpAfterReinvite,     // RTP from the old endpoint after media moved away
  kRtcpByeSeen,          // RTCP BYE observed for a session's stream
  kRtpAfterRtcpBye,      // RTP continuing after its own RTCP BYE — either a
                         // forged RTCP BYE or a schizophrenic sender
  kRtpJitter,            // jitter estimate crossed threshold (value=jitter us)
  kNonRtpOnMediaPort,    // undecodable bytes aimed at a session's media port

  // Accounting events (cross-protocol correlation inside the generator).
  kAccStartSeen,           // CDR start transaction observed
  kAccUnmatched,           // CDR with no matching SIP call initiation (§3.2 event 2)
  kAccBilledPartyAbsent,   // billed party's registered location appears nowhere
                           // in the session's signaling/media (§3.2 event 3:
                           // "reconfirm that each RTP flow has a corresponding
                           // legitimate call setup" via the location service)
};

/// Number of EventType values (for per-type instrument arrays). Keep in
/// sync with the last enumerator above.
inline constexpr size_t kEventTypeCount = static_cast<size_t>(EventType::kAccBilledPartyAbsent) + 1;

std::string_view event_type_name(EventType t);

struct Event {
  EventType type;
  SessionId session;
  SimTime time = 0;
  /// Principal actor (AOR of the BYE/IM sender, billed party, ...).
  std::string aor;
  /// Relevant network endpoint (IM source, RTP source, media endpoint...).
  pkt::Endpoint endpoint;
  /// Numeric payload (sequence gap, counter, jitter in usec...).
  int64_t value = 0;
  /// Human-readable context for alert messages.
  std::string detail;
};

}  // namespace scidive::core
