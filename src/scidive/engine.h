// ScidiveEngine: the assembled IDS of Figure 2/3. One instance sits at a
// vantage point (an endpoint tap in the paper's experiments), receives raw
// packets, and drives Distiller -> TrailManager -> EventGenerator ->
// RuleMatchingEngine -> Alerts.
//
// Every engine carries an obs::MetricsRegistry instrumenting the whole
// pipeline: packet/event/alert counters, per-stage latency histograms,
// per-rule counters and state gauges, and component-stat mirrors synced at
// snapshot time. Instruments are interned once at construction; recording
// on the packet path is plain cell arithmetic, so the zero-allocation hot
// path stays zero-allocation with metrics enabled.
#pragma once

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "capture/packet_source.h"
#include "netsim/network.h"
#include "obs/alert_ledger.h"
#include "obs/metrics.h"
#include "scidive/distiller.h"
#include "scidive/enforce.h"
#include "scidive/event_generator.h"
#include "scidive/rule.h"
#include "scidive/rules.h"
#include "scidive/trail_manager.h"
#include "scidive/verdict.h"

namespace scidive::core {

struct EngineObsConfig {
  /// Wall-clock the pipeline stages into the per-stage latency histograms
  /// and the processing_ns total. Costs a few steady_clock reads per packet;
  /// disable for byte-deterministic metric exposition (golden tests do).
  bool time_stages = true;
  /// AlertSink retention bound (alerts beyond it are dropped and counted).
  size_t alert_capacity = AlertSink::kDefaultCapacity;
  /// AlertLedger retention bound (audit records beyond it are counted).
  size_t ledger_capacity = 65536;
};

struct FastpathConfig {
  /// The established-flow fast path: a flow-keyed microstate cache that
  /// lets steady in-order RTP for sessions no rule is watching bypass
  /// footprint construction, event generation and rule dispatch entirely.
  /// Detection output is byte-identical on or off: anything that could
  /// change what the full pipeline would do with a cached flow's next
  /// packet hands that flow back, with the cached microstate written back
  /// first. Invalidation is scoped to what changed:
  ///   - a deviation on the flow itself (SSRC change, out-of-window
  ///     sequence jump, pending jitter alarm, enforcement state change, or
  ///     slow-path RTP sharing its source or destination) drops that flow;
  ///   - a binding change of media endpoint E (one call's SDP) drops only
  ///     the flows from or to E;
  ///   - a monitor armed on session S (one call's BYE, re-INVITE or RTCP
  ///     BYE) drops only S's flows;
  ///   - ruleset swaps, session migration and idle expiry flush the table.
  /// One call's signaling therefore leaves every other call's flows cached.
  bool enabled = true;
};

struct EngineConfig {
  DistillerConfig distiller;
  EventGeneratorConfig events;
  RulesConfig rules;
  EngineObsConfig obs;
  FastpathConfig fastpath;
  /// Endpoint-based deployment (Figure 3/4): when non-empty, only packets
  /// to or from these addresses are inspected — "although the prototype IDS
  /// can also see the traffic of Client B and the SIP Proxy, it does not
  /// look into this traffic".
  std::set<pkt::Ipv4Address> home_addresses;
  size_t max_footprints_per_trail = 4096;
  /// Deliver each event only to the rules whose subscriptions() mask covers
  /// its type (the engine keeps a per-type subscriber index). Off = the
  /// historical broadcast loop; kept as a knob so bench_efficiency can
  /// measure what the index saves.
  bool subscription_dispatch = true;
  /// Prevention layer (off by default: pure detection, byte-identical
  /// behavior and metrics to the pre-verdict engine). Passive and inline
  /// compute identical per-packet decisions; only enforcement points
  /// outside the engine treat them differently.
  EnforceConfig enforce;
};

/// Aggregate pipeline counters. Since the observability subsystem landed
/// this is a *view* over the engine's MetricsRegistry — stats() builds it
/// from the registry cells, so there is exactly one source of truth.
struct EngineStats {
  uint64_t packets_seen = 0;
  uint64_t packets_filtered = 0;   // outside the home scope
  uint64_t packets_inspected = 0;
  uint64_t events = 0;
  uint64_t alerts = 0;
  /// Wall-clock nanoseconds spent inside the IDS pipeline (real CPU cost of
  /// detection; the simulation clock is unrelated). Zero when
  /// EngineObsConfig::time_stages is off.
  uint64_t processing_ns = 0;
};

class ScidiveEngine {
 public:
  ScidiveEngine() : ScidiveEngine(EngineConfig{}) {}
  explicit ScidiveEngine(EngineConfig config);

  /// Feed one captured packet (fragment-level; reassembly is internal).
  /// Returns the enforcement decision for the packet: always kPass when the
  /// prevention layer is off; otherwise the max over pre-existing blocks,
  /// armed rate limits, and verdicts the packet's own processing emitted.
  /// Detection is never gated on the decision — a dropped packet was still
  /// fully inspected, which is what keeps alert parity across modes.
  VerdictAction on_packet(const pkt::Packet& packet);

  /// A tap suitable for netsim::Network::add_tap.
  netsim::PacketTap tap() {
    return [this](const pkt::Packet& packet) { on_packet(packet); };
  }

  /// Drive loop over a capture source: pull packets until the source is
  /// exhausted (pcap EOF, generator cap, or a stopped live source). Returns
  /// the number of packets fed. Deterministic for deterministic sources:
  /// the engine state afterward is a pure function of the packet sequence.
  uint64_t run(capture::PacketSource& source) {
    pkt::Packet packet;
    uint64_t fed = 0;
    while (source.next(&packet)) {
      on_packet(packet);
      ++fed;
    }
    return fed;
  }

  /// Install an additional rule (the ruleset defaults to the paper's).
  void add_rule(RulePtr rule);
  /// Drop all rules (for baseline configurations in the benches).
  void clear_rules();
  /// Atomically replace the whole ruleset (hot reload). Instruments for the
  /// new rules are interned against the same registry, so a rule keeping its
  /// name keeps its counters across the swap.
  void set_rules(std::vector<RulePtr> rules);
  size_t rule_count() const { return rules_.size(); }

  /// Observe every generated event (experiments measure detection delay
  /// from the value carried on kRtpAfterBye/kRtpAfterReinvite events).
  void set_event_callback(std::function<void(const Event&)> cb) {
    event_callback_ = std::move(cb);
  }

  AlertSink& alerts() { return sink_; }
  const AlertSink& alerts() const { return sink_; }

  VerdictSink& verdicts() { return verdicts_; }
  const VerdictSink& verdicts() const { return verdicts_; }

  /// The prevention stores (nullptr when EnforceConfig::mode is kOff).
  Enforcer* enforcer() { return enforcer_.get(); }
  const Enforcer* enforcer() const { return enforcer_.get(); }
  EnforcementMode enforcement_mode() const { return config_.enforce.mode; }

  /// Non-mutating decision for a raw datagram by source address alone —
  /// the hook external enforcement points (router filter, proxy screen)
  /// use without access to distilled identities. kPass when enforcement
  /// is off or the packet has no parseable IPv4 header.
  VerdictAction peek_packet(const pkt::Packet& packet) const;

  /// Per-packet decision totals, indexed by VerdictAction (all zero when
  /// enforcement is off). packets_inspected == sum over actions.
  uint64_t decisions(VerdictAction a) const {
    return packet_verdicts_[static_cast<size_t>(a)] == nullptr
               ? 0
               : packet_verdicts_[static_cast<size_t>(a)]->value();
  }

  /// Registry-backed view (by value; fields as before).
  EngineStats stats() const;

  const Distiller& distiller() const { return distiller_; }
  const TrailManager& trails() const { return trails_; }
  const EventGenerator& events() const { return events_; }

  /// Live established-flow cache entries (observability/test surface).
  size_t fastpath_entries() const { return fastpath_.size(); }
  /// Packets the fast path has bypassed since construction.
  uint64_t fastpath_bypassed() const { return bypassed_total_; }

  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::AlertLedger& ledger() const { return ledger_; }

  /// Deterministic snapshot of every instrument. Refreshes the component
  /// stat mirrors (distiller/trails/event-generator/rule-state gauges)
  /// first, which is why it is non-const.
  obs::Snapshot metrics_snapshot();

  /// Housekeeping: expire idle trails/session state older than cutoff.
  void expire_idle(SimTime cutoff);

  // --- Session migration (sharded-engine rebalance) ---------------------
  /// One session's complete engine-side state: trails (with their arena),
  /// event-generator aggregation state, and any per-rule session state,
  /// keyed by rule name so the matching rule instance on the destination
  /// engine adopts it.
  struct SessionTransfer {
    SessionId id;
    TrailManager::ExtractedSession trails;
    std::optional<EventGenerator::SessionState> events;
    std::vector<std::pair<std::string, std::unique_ptr<Rule::SessionState>>> rule_states;
    bool valid = false;
  };

  bool has_session(const SessionId& session) const { return trails_.has_session(session); }
  /// Detach everything this engine knows about `session`. Invalid (and the
  /// engine unchanged) when the session does not exist here.
  SessionTransfer extract_session(const SessionId& session);
  /// Adopt a transfer produced by another engine with the same ruleset.
  /// Precondition: !has_session(transfer.id). Creation counters are NOT
  /// incremented — across a sharded engine the session was created once.
  void install_session(SessionTransfer&& transfer);

 private:
  /// Interned once per rule at registration; indexed parallel to rules_.
  struct RuleInstruments {
    obs::Counter* events_seen = nullptr;
    obs::Counter* alerts = nullptr;
    obs::Gauge* state_entries = nullptr;
  };

  void intern_pipeline_instruments();
  RuleInstruments intern_rule_instruments(const Rule& rule);
  void rebuild_subscriber_index();
  /// Mirror the component-kept stats into registry cells (snapshot path).
  void sync_component_stats();

  // --- Established-flow fast path ---------------------------------------
  /// One cached flow, keyed in fastpath_ by the packed destination
  /// endpoint. Holds everything a steady in-order RTP packet needs: the
  /// identity to verify (src, ssrc), the microstate to advance (sequence
  /// window, the authoritative jitter estimator copy) and the accounting to
  /// defer (trail handle, session symbol, bypassed count). While cached,
  /// the entry's copies are authoritative; invalidation writes them back
  /// before the slow path touches the same state.
  struct FastFlow {
    pkt::Endpoint src;
    pkt::Endpoint dst;
    uint32_t ssrc = 0;
    uint16_t last_seq = 0;
    bool bound = false;         // routed via an SDP binding (stats mirror)
    bool jitter_armed = false;  // the one-shot jitter alarm can still fire
    Trail* trail = nullptr;
    Symbol sym = kInvalidSymbol;
    rtp::RtpStreamStats stats;
    uint64_t enforce_gen = 0;
    uint64_t bypassed = 0;  // packets bypassed since the last writeback
    SimTime last_time = 0;
  };

  /// Why a cached flow was handed back (the reason label of
  /// scidive_fastpath_invalidations_by_reason_total).
  enum class FlowDrop : uint8_t { kDeviation, kRebind, kMonitor, kFlush };
  static constexpr size_t kFlowDropCount = 4;

  static uint64_t pack_flow_endpoint(const pkt::Endpoint& ep) {
    return static_cast<uint64_t>(ep.addr.value()) << 16 | ep.port;
  }

  /// Engine-level switch: configured on, no installed rule interested in
  /// steady-state media, and the per-packet-event ablation off.
  bool fastpath_on() const {
    return config_.fastpath.enabled && fastpath_rules_ok_ &&
           !config_.events.emit_per_packet_events;
  }
  /// Try to bypass one packet. Returns true when it was fully handled.
  bool fastpath_try(const pkt::Packet& packet);
  /// Cache the flow of a just-processed, event-free RTP packet when every
  /// eligibility gate passes.
  void fastpath_maybe_cache(Trail& trail, const Footprint& fp, const RtpFootprint& rtp,
                            uint64_t src_k, uint64_t sess_k);
  /// Hand back the entry cached for destination `dst_key` and the entry
  /// fed by source `src_key`, if any.
  void fastpath_drop_touching(uint64_t dst_key, uint64_t src_key, FlowDrop why);
  /// Hand back every entry of session `sym` (a monitor was just armed).
  void fastpath_drop_session(Symbol sym);
  /// Flush the advanced microstate back into the trail and the event
  /// generator's session state.
  void fastpath_writeback(FastFlow& flow);
  /// Writeback + erase of one entry (both indexes).
  void fastpath_invalidate(FastFlow& flow, FlowDrop why);
  /// Writeback + erase of every entry.
  void fastpath_flush();

  EngineConfig config_;
  obs::MetricsRegistry registry_;
  Distiller distiller_;
  TrailManager trails_;
  EventGenerator events_;
  std::vector<RulePtr> rules_;
  std::vector<RuleInstruments> rule_inst_;
  /// Per-EventType list of rule indices subscribed to it.
  std::vector<uint32_t> subscribers_[kEventTypeCount];
  std::function<void(const Event&)> event_callback_;
  AlertSink sink_;
  VerdictSink verdicts_;
  std::unique_ptr<Enforcer> enforcer_;
  obs::AlertLedger ledger_;
  std::vector<Event> scratch_events_;

  // Established-flow fast path state.
  FlatMap<uint64_t, FastFlow> fastpath_;        // packed dst -> flow
  FlatMap<uint64_t, uint64_t> fastpath_src_;    // packed src -> packed dst
  bool fastpath_rules_ok_ = false;  // no rule wants steady-state media
  /// Work the bypass skipped, added to the component-stat mirrors at sync
  /// time so the pipeline counters read the same with the fast path on or
  /// off (every bypassed packet *was* distilled/routed/processed, as far as
  /// the totals are concerned — just not per packet).
  uint64_t bypassed_total_ = 0;
  uint64_t bypassed_bound_ = 0;
  uint64_t bypassed_unbound_ = 0;

  // Hot-path instruments (registry-owned cells).
  obs::Counter* packets_seen_ = nullptr;
  obs::Counter* packets_filtered_ = nullptr;
  obs::Counter* packets_inspected_ = nullptr;
  obs::Counter* events_total_ = nullptr;
  obs::Counter* processing_ns_ = nullptr;
  /// Per-action decision counters; interned only when enforcement is on,
  /// so detection-only engines expose no prevention cells.
  obs::Counter* packet_verdicts_[kVerdictActionCount] = {};
  obs::Counter* event_type_counters_[kEventTypeCount] = {};
  obs::Histogram* stage_distill_ = nullptr;
  obs::Histogram* stage_route_ = nullptr;
  obs::Histogram* stage_events_ = nullptr;
  obs::Histogram* stage_rules_ = nullptr;
  /// Fast-path instruments; registered only when the fast path is
  /// configured on, so disabled engines expose no extra lines.
  obs::Counter* fastpath_hits_ = nullptr;
  obs::Counter* fastpath_misses_ = nullptr;
  obs::Counter* fastpath_invalidations_ = nullptr;
  obs::Counter* fastpath_drops_[kFlowDropCount] = {};

  // Snapshot-synced mirrors (see sync_component_stats()).
  obs::Counter* alerts_total_ = nullptr;
  obs::Counter* alerts_dropped_ = nullptr;
  obs::Gauge* alerts_retained_ = nullptr;
  obs::Counter* ledger_recorded_ = nullptr;
  obs::Counter* ledger_dropped_ = nullptr;
  obs::Gauge* ledger_size_ = nullptr;
};

}  // namespace scidive::core
