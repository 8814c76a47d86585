// The Event Generator (§3.1): stateful, per-session processors that map
// footprints to Events. All multi-packet aggregation lives here — the
// mirrored dialog state machine, the post-BYE/post-re-INVITE media monitors
// (the analysis window "m" of §4.3), RTP sequence/jitter tracking and the
// SIP<->accounting correlation — so the Ruleset is only triggered "at the
// moment of interest".
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/symbol.h"
#include "rtp/stats.h"
#include "scidive/event.h"
#include "scidive/trail_manager.h"

namespace scidive::core {

struct EventGeneratorConfig {
  /// The monitoring window "m" of §4.3: how long after a BYE/re-INVITE the
  /// departed party's media endpoint is watched for orphan RTP.
  SimDuration monitor_window = msec(200);
  /// §4.2.4: sequence gap between consecutive packets that flags an attack
  /// ("empirically observed to be the bound for normal traffic" = 100).
  int32_t seq_jump_threshold = 100;
  /// Jitter estimate (ms) beyond which an RtpJitter event fires.
  double jitter_alarm_ms = 20.0;
  /// Packets before the jitter estimator is trusted.
  uint64_t jitter_warmup_packets = 50;
  /// Ablation switch: emit kRtpPacketSeen for every RTP footprint so rules
  /// can do per-packet direct trail matching (the expensive path the event
  /// abstraction exists to avoid). Off in production configurations.
  bool emit_per_packet_events = false;
};

struct EventGeneratorStats {
  uint64_t footprints_processed = 0;
  uint64_t events_emitted = 0;
  uint64_t monitors_started = 0;
  uint64_t monitors_fired = 0;
  uint64_t monitors_expired = 0;
  uint64_t sessions_expired = 0;  // session states dropped by expire_idle
};

class EventGenerator {
 public:
  EventGenerator(TrailManager& trails, EventGeneratorConfig config)
      : trails_(trails), config_(config) {}
  explicit EventGenerator(TrailManager& trails)
      : EventGenerator(trails, EventGeneratorConfig{}) {}

  /// Process one footprint already routed to `trail`; append any generated
  /// events to `out`.
  void process(const Footprint& fp, const Trail& trail, std::vector<Event>& out);

  const EventGeneratorStats& stats() const { return stats_; }
  size_t tracked_sessions() const { return sessions_.size(); }

  /// Drop per-session state not touched since `cutoff`.
  size_t expire_idle(SimTime cutoff);

  struct SessionState;

  /// Migration (sharded-engine rebalance): detach this session's
  /// aggregation state. The state holds endpoints, strings and times — no
  /// interner symbols — so it transplants across engines as-is. The
  /// per-principal registration mirror is NOT per-session state and never
  /// migrates (principal-routed sessions are pinned by the router).
  std::optional<SessionState> extract_session(const SessionId& session);
  /// Adopt migrated state under this engine's interning of `session`.
  void install_session(const SessionId& session, SessionState state);

  /// Direct access to one session's aggregation state (nullptr when none).
  /// The engine's fast path reads microstate out of it at flow-cache
  /// creation and writes the advanced microstate back on invalidation; a
  /// session that arms a monitor (stats().monitors_started advances while
  /// processing its footprint) has its cached flows handed back at once.
  SessionState* find_state(Symbol sym) { return sessions_.find(sym); }
  const SessionState* find_state(Symbol sym) const { return sessions_.find(sym); }

  /// A watch on a media source after signaling said it should go quiet.
  struct MediaMonitor {
    bool active = false;
    bool fired = false;
    SimTime started = 0;
    pkt::Endpoint watched;  // media endpoint that must fall silent
    /// The session peer's media endpoint: an orphan flow is src==watched
    /// AND dst==expected_dst, so concurrent calls sharing the watched
    /// port (same softphone, different conversation) don't false-alarm.
    std::optional<pkt::Endpoint> expected_dst;
    EventType emit = EventType::kRtpAfterBye;
    std::string claimed_aor;  // who the signaling said was leaving
  };

  struct SessionState {
    SimTime last_touched = 0;
    // Mirrored dialog.
    bool invite_seen = false;
    bool established = false;
    bool torn_down = false;
    std::string caller_aor, callee_aor;
    std::string caller_tag, callee_tag;
    std::optional<pkt::Endpoint> caller_media, callee_media;
    std::optional<pkt::Endpoint> caller_signaling;  // where the INVITE/Setup came from
    std::optional<pkt::Endpoint> callee_signaling;  // where the 200/Connect came from
    // Media-plane tracking. Flat tables: the per-RTP-packet path does a
    // handful of these lookups, and endpoints hash to one word.
    FlatSet<pkt::Endpoint> rtp_sources_seen;
    FlatMap<pkt::Endpoint, uint16_t> last_seq_by_dst;  // consecutive-packet view
    FlatMap<pkt::Endpoint, rtp::RtpStreamStats> stats_by_src;
    FlatSet<pkt::Endpoint> jitter_alarmed;
    /// Active orphan-media watches (SIP BYE, re-INVITE, RTCP BYE can all be
    /// pending at once). Bounded: oldest evicted beyond kMaxMonitors.
    std::vector<MediaMonitor> monitors;
    // Registration / auth tracking.
    bool last_register_had_auth = false;
    std::string last_auth_response;
    /// Candidate location from the latest REGISTER in this session —
    /// committed to the location mirror only when the registrar says 200
    /// (learning from unauthenticated requests would let an attacker poison
    /// the mirror by spraying REGISTERs).
    std::string pending_register_aor;
    std::optional<pkt::Ipv4Address> pending_register_addr;
  };

 private:
  static constexpr size_t kMaxMonitors = 4;

  void process_sip(const Footprint& fp, const SipFootprint& sip, SessionState& state,
                   const SessionId& session, std::vector<Event>& out);
  void process_rtcp(const Footprint& fp, const RtcpFootprint& rtcp, SessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_h225(const Footprint& fp, const H225Footprint& h225, SessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_rtp(const Footprint& fp, const RtpFootprint& rtp, SessionState& state,
                   const SessionId& session, std::vector<Event>& out);
  void process_acc(const Footprint& fp, const AccFootprint& acc, SessionState& state,
                   const SessionId& session, std::vector<Event>& out);

  void start_monitor(SessionState& state, SimTime now, pkt::Endpoint watched,
                     std::optional<pkt::Endpoint> expected_dst, EventType emit,
                     std::string claimed_aor);
  void emit(std::vector<Event>& out, Event event);

  TrailManager& trails_;
  EventGeneratorConfig config_;
  /// Keyed by the TrailManager's interned session symbol: the per-footprint
  /// state lookup is one integer hash instead of a string-keyed tree walk —
  /// the dominant per-packet cost at thousands of concurrent sessions.
  FlatMap<Symbol, SessionState> sessions_;
  /// Passive mirror of the registrar's location service: AOR -> addresses
  /// learned from observed REGISTER Contacts. Feeds the billed-party check.
  std::map<std::string, std::set<pkt::Ipv4Address>> registered_locations_;
  EventGeneratorStats stats_;
};

}  // namespace scidive::core
