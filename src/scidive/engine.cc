#include "scidive/engine.h"

#include "pkt/ipv4.h"
#include "rtp/rtp.h"

namespace scidive::core {

namespace {

uint64_t ns_between(std::chrono::steady_clock::time_point a,
                    std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

constexpr const char* kFlowDropNames[] = {"deviation", "rebind", "monitor", "flush"};

}  // namespace

ScidiveEngine::ScidiveEngine(EngineConfig config)
    : config_(std::move(config)),
      distiller_(config_.distiller),
      trails_(config_.max_footprints_per_trail),
      events_(trails_, config_.events),
      sink_(config_.obs.alert_capacity),
      verdicts_(config_.enforce.verdict_capacity),
      ledger_(config_.obs.ledger_capacity) {
  // A packet rarely yields more than a handful of events; reserving once
  // keeps the per-packet clear()/push_back cycle allocation-free.
  scratch_events_.reserve(16);
  intern_pipeline_instruments();
  if (config_.enforce.mode != EnforcementMode::kOff) {
    enforcer_ = std::make_unique<Enforcer>(config_.enforce);
    for (size_t i = 0; i < kVerdictActionCount; ++i) {
      packet_verdicts_[i] = &registry_.counter(
          "scidive_packet_verdicts_total", "Per-packet enforcement decisions, by action",
          {{"action", std::string(verdict_action_name(static_cast<VerdictAction>(i)))}});
    }
  }
  // Per-(action, rule) verdict attribution. Cells register lazily on the
  // first verdict a rule emits, so detection-only runs expose no lines.
  verdicts_.set_callback([this](const Verdict& v) {
    registry_
        .counter("scidive_verdicts_total", "Verdicts emitted by rules, by action and rule",
                 {{"action", std::string(verdict_action_name(v.action))}, {"rule", v.rule}})
        .inc();
  });
  // A binding change of one media endpoint hands back only the cached
  // flows from or to it; every other call's flows stay cached.
  trails_.set_rebind_hook([this](const pkt::Endpoint& media) {
    const uint64_t key = pack_flow_endpoint(media);
    fastpath_drop_touching(key, key, FlowDrop::kRebind);
  });
  auto ruleset = make_default_ruleset(config_.rules);
  for (RulePtr& rule : ruleset) add_rule(std::move(rule));
}

void ScidiveEngine::intern_pipeline_instruments() {
  packets_seen_ =
      &registry_.counter("scidive_packets_seen_total", "Packets offered to the engine tap");
  packets_filtered_ = &registry_.counter("scidive_packets_filtered_total",
                                         "Packets outside the home-address scope");
  packets_inspected_ = &registry_.counter("scidive_packets_inspected_total",
                                          "Packets that entered the detection pipeline");
  events_total_ =
      &registry_.counter("scidive_events_total", "Events emitted by the event generator");
  processing_ns_ = &registry_.counter(
      "scidive_processing_ns_total",
      "Wall-clock nanoseconds spent inside the pipeline (0 when stage timing is off)");
  for (size_t i = 0; i < kEventTypeCount; ++i) {
    event_type_counters_[i] = &registry_.counter(
        "scidive_events_by_type_total", "Events emitted, by event type",
        {{"type", std::string(event_type_name(static_cast<EventType>(i)))}});
  }
  const auto bounds = obs::latency_ns_bounds();
  stage_distill_ = &registry_.histogram(
      "scidive_stage_ns", "Per-stage pipeline latency in nanoseconds", bounds,
      {{"stage", "distill"}});
  stage_route_ = &registry_.histogram("scidive_stage_ns",
                                      "Per-stage pipeline latency in nanoseconds", bounds,
                                      {{"stage", "route"}});
  stage_events_ = &registry_.histogram("scidive_stage_ns",
                                       "Per-stage pipeline latency in nanoseconds", bounds,
                                       {{"stage", "events"}});
  stage_rules_ = &registry_.histogram("scidive_stage_ns",
                                      "Per-stage pipeline latency in nanoseconds", bounds,
                                      {{"stage", "rules"}});
  alerts_total_ = &registry_.counter(
      "scidive_alerts_total", "Alerts raised by the rule engine (including retention drops)");
  alerts_dropped_ = &registry_.counter("scidive_alerts_dropped_total",
                                       "Alerts dropped from sink retention (capacity bound)");
  alerts_retained_ =
      &registry_.gauge("scidive_alerts_retained", "Alerts currently held by the sink");
  ledger_recorded_ = &registry_.counter("scidive_alert_ledger_recorded_total",
                                        "Alerts offered to the audit ledger");
  ledger_dropped_ = &registry_.counter("scidive_alert_ledger_dropped_total",
                                       "Audit records dropped at the ledger capacity bound");
  ledger_size_ =
      &registry_.gauge("scidive_alert_ledger_size", "Audit records currently in the ledger");
  if (config_.fastpath.enabled) {
    fastpath_hits_ = &registry_.counter(
        "scidive_fastpath_hits_total",
        "Packets fully handled by the established-flow fast path");
    fastpath_misses_ = &registry_.counter(
        "scidive_fastpath_misses_total",
        "Inspected packets that took the full pipeline while the fast path was on");
    fastpath_invalidations_ = &registry_.counter(
        "scidive_fastpath_invalidations_total",
        "Cached flows handed back to the full pipeline");
    for (size_t i = 0; i < kFlowDropCount; ++i) {
      fastpath_drops_[i] = &registry_.counter(
          "scidive_fastpath_invalidations_by_reason_total",
          "Cached flows handed back to the full pipeline, by cause",
          {{"reason", kFlowDropNames[i]}});
    }
  }
}

ScidiveEngine::RuleInstruments ScidiveEngine::intern_rule_instruments(const Rule& rule) {
  const std::string rule_name(rule.name());
  RuleInstruments ri;
  ri.events_seen = &registry_.counter("scidive_rule_events_total",
                                      "Events delivered to the rule", {{"rule", rule_name}});
  ri.alerts = &registry_.counter("scidive_rule_alerts_total", "Alerts raised by the rule",
                                 {{"rule", rule_name}});
  ri.state_entries =
      &registry_.gauge("scidive_rule_state_entries",
                       "Per-session/per-principal state entries held by the rule",
                       {{"rule", rule_name}});
  return ri;
}

void ScidiveEngine::add_rule(RulePtr rule) {
  rule_inst_.push_back(intern_rule_instruments(*rule));
  rules_.push_back(std::move(rule));
  rebuild_subscriber_index();
}

void ScidiveEngine::clear_rules() {
  // Registry cells are append-only; a cleared rule's instruments simply
  // freeze at their last values.
  rules_.clear();
  rule_inst_.clear();
  rebuild_subscriber_index();
}

void ScidiveEngine::set_rules(std::vector<RulePtr> rules) {
  rules_ = std::move(rules);
  rule_inst_.clear();
  rule_inst_.reserve(rules_.size());
  for (const RulePtr& rule : rules_) rule_inst_.push_back(intern_rule_instruments(*rule));
  rebuild_subscriber_index();
}

void ScidiveEngine::rebuild_subscriber_index() {
  for (auto& list : subscribers_) list.clear();
  for (size_t i = 0; i < rules_.size(); ++i) {
    const EventTypeMask mask = rules_[i]->subscriptions();
    for (size_t t = 0; t < kEventTypeCount; ++t) {
      if (mask & (EventTypeMask{1} << t)) {
        subscribers_[t].push_back(static_cast<uint32_t>(i));
      }
    }
  }
  // Re-derive whether any installed rule wants to see steady-state media;
  // a ruleset change (hot reload included) also invalidates every cached
  // flow, since the new rules may watch sessions the old ones ignored.
  fastpath_rules_ok_ = true;
  for (const RulePtr& rule : rules_) {
    if (rule->media_steady_state_interest()) {
      fastpath_rules_ok_ = false;
      break;
    }
  }
  fastpath_flush();
}

VerdictAction ScidiveEngine::on_packet(const pkt::Packet& packet) {
  packets_seen_->inc();

  if (!config_.home_addresses.empty()) {
    // Cheap pre-filter on the (unverified) IP header so the endpoint IDS
    // ignores traffic that is not the monitored client's.
    auto ip = pkt::parse_ipv4(packet.data);
    bool ours = false;
    if (ip.ok()) {
      ours = config_.home_addresses.contains(ip.value().header.src) ||
             config_.home_addresses.contains(ip.value().header.dst);
    }
    if (!ours) {
      packets_filtered_->inc();
      return VerdictAction::kPass;
    }
  }
  packets_inspected_->inc();

  // Established-flow fast path: steady-state media for a cached flow skips
  // footprint construction, trail routing, event generation and rule
  // dispatch entirely. Any deviation invalidates the entry and the packet
  // falls through to the full pipeline below.
  const bool fp_on = fastpath_on();
  if (fp_on) {
    if (fastpath_try(packet)) return VerdictAction::kPass;
    fastpath_misses_->inc();
  }

  using Clock = std::chrono::steady_clock;
  const bool timed = config_.obs.time_stages;
  Clock::time_point start{}, mark{};
  if (timed) start = mark = Clock::now();

  VerdictAction decision = VerdictAction::kPass;
  auto fp = distiller_.distill(packet);
  if (timed) {
    const auto now = Clock::now();
    stage_distill_->observe(ns_between(mark, now));
    mark = now;
  }
  if (fp) {
    if (fp->protocol == Protocol::kRtp && !fastpath_.empty()) {
      // Slow-path RTP touching a cached destination or cached source is a
      // hazard the peek could not see (fragment reassembly, parallel flow):
      // hand the affected entries back before events are generated.
      fastpath_drop_touching(pack_flow_endpoint(fp->dst), pack_flow_endpoint(fp->src),
                             FlowDrop::kDeviation);
    }
    // Enforcement identities, captured before the footprint moves into the
    // trail: network source, signaling principal, then (post-routing) the
    // session. Pure hashing — nothing here allocates.
    const SimTime pkt_time = fp->time;
    uint64_t src_k = 0, principal_k = 0, sess_k = 0;
    if (enforcer_ != nullptr) {
      if (!fp->src.addr.is_unspecified()) src_k = source_key(fp->src.addr);
      if (const SipFootprint* sip = fp->sip(); sip != nullptr && !sip->from_aor.empty()) {
        principal_k = aor_key(sip->from_aor);
      }
    }
    Trail& trail = trails_.add(std::move(*fp));
    if (enforcer_ != nullptr) sess_k = session_key(trail.key().session);
    if (timed) {
      const auto now = Clock::now();
      stage_route_->observe(ns_between(mark, now));
      mark = now;
    }
    scratch_events_.clear();
    const uint64_t monitors_before = events_.stats().monitors_started;
    events_.process(trail.back(), trail, scratch_events_);
    if (events_.stats().monitors_started != monitors_before) {
      // The session now watches its media for orphans: its next packets
      // are evidence, so its cached flows go back to the full pipeline.
      fastpath_drop_session(trail.sym());
    }
    if (timed) {
      const auto now = Clock::now();
      stage_events_->observe(ns_between(mark, now));
      mark = now;
    }
    events_total_->inc(scratch_events_.size());
    RuleContext ctx(trails_, sink_, &ledger_, &verdicts_, enforcer_.get());
    for (const Event& event : scratch_events_) {
      event_type_counters_[static_cast<size_t>(event.type)]->inc();
      if (event_callback_) event_callback_(event);
      if (config_.subscription_dispatch) {
        // Only the subscribers of this event's type are visited; a rule
        // that kept the default kAllEventsMask appears in every list.
        for (uint32_t i : subscribers_[static_cast<size_t>(event.type)]) {
          rule_inst_[i].events_seen->inc();
          const uint64_t before = sink_.total_raised();
          rules_[i]->on_event(event, ctx);
          const uint64_t raised = sink_.total_raised() - before;
          if (raised != 0) rule_inst_[i].alerts->inc(raised);
        }
      } else {
        for (size_t i = 0; i < rules_.size(); ++i) {
          rule_inst_[i].events_seen->inc();
          const uint64_t before = sink_.total_raised();
          rules_[i]->on_event(event, ctx);
          const uint64_t raised = sink_.total_raised() - before;
          if (raised != 0) rule_inst_[i].alerts->inc(raised);
        }
      }
    }
    if (timed) {
      const auto now = Clock::now();
      stage_rules_->observe(ns_between(mark, now));
      mark = now;
    }
    if (fp_on && scratch_events_.empty() && trail.back().protocol == Protocol::kRtp) {
      // A media packet that produced zero events is steady state: the flow
      // is a candidate for bypass from the next packet on.
      if (const RtpFootprint* rtp = trail.back().rtp()) {
        fastpath_maybe_cache(trail, trail.back(), *rtp, src_k, sess_k);
      }
    }
    if (enforcer_ != nullptr) {
      // Standing state first (blocks, armed buckets), then escalate by any
      // verdict this very packet's processing emitted — the packet that
      // crossed a SPIT threshold is itself shaped, not just its successors.
      decision = enforcer_->decide(src_k, sess_k, principal_k, pkt_time);
      decision = max_action(decision, verdicts_.take_pending());
    }
  }
  if (enforcer_ != nullptr) {
    // Every inspected packet gets exactly one decision, so the accounting
    // identity packets_inspected == Σ decisions holds (undistillable
    // packets pass: there is no identity to enforce against).
    packet_verdicts_[static_cast<size_t>(decision)]->inc();
  }
  if (timed) processing_ns_->inc(ns_between(start, mark));
  return decision;
}

bool ScidiveEngine::fastpath_try(const pkt::Packet& packet) {
  if (fastpath_.empty()) return false;
  auto peek = distiller_.peek_rtp(packet);
  if (!peek) return false;
  FastFlow* flow = fastpath_.find(pack_flow_endpoint(peek->dst));
  if (flow == nullptr) return false;
  if (flow->src == peek->src && flow->ssrc == peek->ssrc &&
      (enforcer_ == nullptr || flow->enforce_gen == enforcer_->state_generation())) {
    const int32_t gap = rtp::seq_distance(flow->last_seq, peek->sequence);
    if (gap >= -config_.events.seq_jump_threshold &&
        gap <= config_.events.seq_jump_threshold) {
      // Advance the authoritative jitter-estimator copy. If this very
      // packet would fire the one-shot jitter alarm, undo the advance and
      // fall back: the slow path re-applies it identically and emits the
      // event.
      const rtp::RtpStreamStats before = flow->stats;
      flow->stats.on_packet(peek->sequence, peek->timestamp, peek->time);
      const bool jitter_alarm =
          flow->jitter_armed &&
          flow->stats.packets_received() > config_.events.jitter_warmup_packets &&
          flow->stats.jitter_ms() > config_.events.jitter_alarm_ms;
      if (!jitter_alarm) {
        flow->last_seq = peek->sequence;
        if (peek->time > flow->last_time) flow->last_time = peek->time;
        ++flow->bypassed;
        ++bypassed_total_;
        if (flow->bound) {
          ++bypassed_bound_;
        } else {
          ++bypassed_unbound_;
        }
        fastpath_hits_->inc();
        if (enforcer_ != nullptr) {
          // The accounting identity packets_inspected == Σ decisions still
          // holds: a bypassed packet is a kPass decision.
          packet_verdicts_[static_cast<size_t>(VerdictAction::kPass)]->inc();
        }
        return true;
      }
      flow->stats = before;
    }
  }
  // Deviation: different source, SSRC change, sequence jump beyond the
  // benign-reorder window, pending jitter alarm, or enforcement state that
  // moved since the verdict was cached. Back to the full pipeline.
  fastpath_invalidate(*flow, FlowDrop::kDeviation);
  return false;
}

void ScidiveEngine::fastpath_maybe_cache(Trail& trail, const Footprint& fp,
                                         const RtpFootprint& rtp, uint64_t src_k,
                                         uint64_t sess_k) {
  // Only flows peek_rtp can re-recognize are worth caching: the peek
  // refuses odd ports (speculative RTCP) outright.
  if (fp.src.port % 2 == 1 || fp.dst.port % 2 == 1) return;
  const uint64_t dst_key = pack_flow_endpoint(fp.dst);
  if (fastpath_.contains(dst_key)) return;  // first flow owns a destination
  const uint64_t src_key = pack_flow_endpoint(fp.src);
  if (fastpath_src_.contains(src_key)) return;  // src already feeds a cached dst
  const Symbol sym = trail.sym();
  if (sym == kInvalidSymbol) return;
  EventGenerator::SessionState* state = events_.find_state(sym);
  if (state == nullptr || !state->monitors.empty()) return;
  const uint16_t* last_seq = state->last_seq_by_dst.find(fp.dst);
  const rtp::RtpStreamStats* stats = state->stats_by_src.find(fp.src);
  if (last_seq == nullptr || stats == nullptr) return;
  // With enforcement on, cache only a provably inert verdict: no block, no
  // armed bucket, no cross-shard publication for either identity. Any later
  // enforcement change bumps state_generation() and misses the entry.
  if (enforcer_ != nullptr && !enforcer_->steady_pass(src_k, sess_k, fp.time)) return;

  FastFlow flow;
  flow.src = fp.src;
  flow.dst = fp.dst;
  flow.ssrc = rtp.ssrc;
  flow.last_seq = *last_seq;
  flow.bound = trail.key().session.rfind("flow:", 0) != 0;
  flow.jitter_armed = !state->jitter_alarmed.contains(fp.src);
  flow.trail = &trail;
  flow.sym = sym;
  flow.stats = *stats;
  flow.enforce_gen = enforcer_ == nullptr ? 0 : enforcer_->state_generation();
  flow.last_time = fp.time;
  fastpath_.try_emplace(dst_key, flow);
  fastpath_src_.try_emplace(src_key, dst_key);
}

void ScidiveEngine::fastpath_drop_touching(uint64_t dst_key, uint64_t src_key, FlowDrop why) {
  if (fastpath_.empty()) return;
  if (FastFlow* flow = fastpath_.find(dst_key)) fastpath_invalidate(*flow, why);
  if (const uint64_t* fed = fastpath_src_.find(src_key)) {
    const uint64_t key = *fed;  // copy: invalidate erases the index entry
    if (FastFlow* flow = fastpath_.find(key)) fastpath_invalidate(*flow, why);
  }
}

void ScidiveEngine::fastpath_drop_session(Symbol sym) {
  if (fastpath_.empty()) return;
  EventGenerator::SessionState* state = events_.find_state(sym);
  if (state == nullptr) return;
  // A flow is admitted only once its destination has a sequence entry in
  // its session's state, and those entries are never erased while the
  // session lives, so the session's destinations reach every entry it owns.
  // The writeback updates values of the map being walked, never its shape.
  state->last_seq_by_dst.for_each([&](const pkt::Endpoint& dst, uint16_t&) {
    FastFlow* flow = fastpath_.find(pack_flow_endpoint(dst));
    if (flow != nullptr && flow->sym == sym) fastpath_invalidate(*flow, FlowDrop::kMonitor);
  });
}

void ScidiveEngine::fastpath_writeback(FastFlow& flow) {
  if (flow.bypassed == 0) return;
  flow.trail->note_bypassed(flow.bypassed, flow.last_time);
  if (EventGenerator::SessionState* state = events_.find_state(flow.sym)) {
    if (uint16_t* last_seq = state->last_seq_by_dst.find(flow.dst)) {
      *last_seq = flow.last_seq;
    }
    if (rtp::RtpStreamStats* stats = state->stats_by_src.find(flow.src)) {
      *stats = flow.stats;
    }
    if (flow.last_time > state->last_touched) state->last_touched = flow.last_time;
  }
  flow.bypassed = 0;
}

void ScidiveEngine::fastpath_invalidate(FastFlow& flow, FlowDrop why) {
  fastpath_writeback(flow);
  fastpath_invalidations_->inc();
  fastpath_drops_[static_cast<size_t>(why)]->inc();
  fastpath_src_.erase(pack_flow_endpoint(flow.src));
  fastpath_.erase(pack_flow_endpoint(flow.dst));  // `flow` dies here
}

void ScidiveEngine::fastpath_flush() {
  if (fastpath_.empty()) return;
  fastpath_.for_each([this](const uint64_t&, FastFlow& flow) {
    fastpath_writeback(flow);
    fastpath_invalidations_->inc();
    fastpath_drops_[static_cast<size_t>(FlowDrop::kFlush)]->inc();
  });
  fastpath_.clear();
  fastpath_src_.clear();
}

VerdictAction ScidiveEngine::peek_packet(const pkt::Packet& packet) const {
  if (enforcer_ == nullptr) return VerdictAction::kPass;
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip.ok() || ip.value().header.src.is_unspecified()) return VerdictAction::kPass;
  return enforcer_->peek(source_key(ip.value().header.src), 0, 0, packet.timestamp);
}

EngineStats ScidiveEngine::stats() const {
  EngineStats s;
  s.packets_seen = packets_seen_->value();
  s.packets_filtered = packets_filtered_->value();
  s.packets_inspected = packets_inspected_->value();
  s.events = events_total_->value();
  s.alerts = sink_.total_raised();
  s.processing_ns = processing_ns_->value();
  return s;
}

void ScidiveEngine::sync_component_stats() {
  const DistillerStats& d = distiller_.stats();
  // Fast-path mirrors: a bypassed packet is a packet the full pipeline
  // *would have* distilled as RTP, routed through the flow cache into its
  // bound trail and run through the event generator (producing nothing).
  // Adding the bypass aggregates keeps every one of these families equal to
  // its fastpath-off value, so the differential oracle and the single-vs-
  // sharded parity check hold with the fast path on.
  registry_.counter("scidive_distiller_packets_total", "Packets entering the distiller")
      .sync(d.packets_in + bypassed_total_);
  registry_
      .counter("scidive_distiller_undecodable_total", "Packets that were not even IPv4+UDP")
      .sync(d.undecodable);
  registry_
      .counter("scidive_distiller_fragments_held_total",
               "Fragments consumed while their datagram stayed incomplete")
      .sync(d.fragments_held);
  registry_
      .counter("scidive_distiller_datagrams_reassembled_total",
               "Fragmented datagrams successfully reassembled")
      .sync(d.datagrams_reassembled);
  const char* kHelp = "Footprints distilled, by protocol";
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "sip"}})
      .sync(d.sip_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "rtp"}})
      .sync(d.rtp_footprints + bypassed_total_);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "rtcp"}})
      .sync(d.rtcp_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "acc"}})
      .sync(d.acc_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "h225"}})
      .sync(d.h225_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "ras"}})
      .sync(d.ras_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "unknown"}})
      .sync(d.unknown_footprints);
  // Parse failures by (proto, reason). Cells are registered lazily on first
  // non-zero count: clean traffic adds no instruments (and no exposition
  // lines), while a registered cell persists at its monotone value — the
  // registry dedupes, so re-registration returns the same counter.
  for (size_t p = 0; p < kParseProtoCount; ++p) {
    for (size_t r = 0; r < kParseReasonCount; ++r) {
      const uint64_t n = d.parse_errors.counts[p][r];
      if (n == 0) continue;
      registry_
          .counter("scidive_parse_errors_total",
                   "Malformed input rejected by a parser, by protocol and reason",
                   {{"proto", std::string(parse_proto_name(static_cast<ParseProto>(p)))},
                    {"reason", errc_name(static_cast<Errc>(r))}})
          .sync(n);
    }
  }

  const TrailManagerStats& t = trails_.stats();
  registry_
      .counter("scidive_trail_footprints_routed_total", "Footprints routed into trails")
      .sync(t.footprints_routed + bypassed_total_);
  registry_.counter("scidive_trail_sessions_created_total", "Sessions the trail manager created")
      .sync(t.sessions_created);
  registry_
      .counter("scidive_trail_rtp_bound_total",
               "RTP footprints bound to a session via SDP-learned endpoints")
      .sync(t.rtp_bound_to_session + bypassed_bound_);
  registry_
      .counter("scidive_trail_rtp_unbound_total",
               "RTP footprints that fell back to a synthetic flow session")
      .sync(t.rtp_unbound + bypassed_unbound_);
  registry_
      .counter("scidive_trail_flow_cache_hits_total",
               "Media packets routed through the flow cache without classify")
      .sync(t.flow_cache_hits + bypassed_total_);
  registry_.counter("scidive_trails_expired_total", "Trails dropped by idle expiry")
      .sync(t.trails_expired);
  registry_.gauge("scidive_trails_active", "Live trails (per-session, per-protocol)")
      .set(static_cast<int64_t>(trails_.trail_count()));
  registry_.gauge("scidive_sessions_active", "Live sessions with at least one trail")
      .set(static_cast<int64_t>(trails_.session_count()));
  registry_.gauge("scidive_media_bindings", "SDP-learned media endpoint bindings")
      .set(static_cast<int64_t>(trails_.media_binding_count()));
  registry_
      .gauge("scidive_interned_symbols", "Distinct session ids interned by the trail manager")
      .set(static_cast<int64_t>(trails_.symbols().size()));
  registry_
      .gauge("scidive_interner_bytes", "Heap bytes held by the session-id interner")
      .set(static_cast<int64_t>(trails_.symbols().bytes()));
  registry_
      .gauge("scidive_session_arena_bytes",
             "Heap bytes reserved across all per-session trail arenas")
      .set(static_cast<int64_t>(trails_.arena_bytes_reserved()));

  const EventGeneratorStats& e = events_.stats();
  registry_
      .counter("scidive_eventgen_footprints_total", "Footprints the event generator processed")
      .sync(e.footprints_processed + bypassed_total_);
  registry_
      .counter("scidive_monitors_started_total",
               "Post-BYE/re-INVITE/RTCP-BYE media monitors armed")
      .sync(e.monitors_started);
  registry_.counter("scidive_monitors_fired_total", "Media monitors that caught orphan media")
      .sync(e.monitors_fired);
  registry_.counter("scidive_monitors_expired_total", "Media monitors that expired quietly")
      .sync(e.monitors_expired);
  registry_
      .counter("scidive_eventgen_sessions_expired_total",
               "Event-generator session states dropped by idle expiry")
      .sync(e.sessions_expired);
  registry_.gauge("scidive_tracked_sessions", "Sessions with live event-generator state")
      .set(static_cast<int64_t>(events_.tracked_sessions()));

  for (size_t i = 0; i < rules_.size(); ++i) {
    rule_inst_[i].state_entries->set(static_cast<int64_t>(rules_[i]->state_entries()));
  }

  if (config_.fastpath.enabled) {
    const uint64_t hits = fastpath_hits_->value();
    const uint64_t seen = hits + fastpath_misses_->value();
    registry_
        .gauge("scidive_fastpath_hit_rate_permille",
               "Fast-path hits per thousand inspected packets since start")
        .set(seen == 0 ? 0 : static_cast<int64_t>(hits * 1000 / seen));
    registry_.gauge("scidive_fastpath_flows", "Live established-flow cache entries")
        .set(static_cast<int64_t>(fastpath_.size()));
  }

  alerts_total_->sync(sink_.total_raised());
  alerts_dropped_->sync(sink_.dropped());
  alerts_retained_->set(static_cast<int64_t>(sink_.count()));
  ledger_recorded_->sync(ledger_.total_recorded());
  ledger_dropped_->sync(ledger_.dropped());
  ledger_size_->set(static_cast<int64_t>(ledger_.size()));

  // Prevention-layer mirrors, registered only when enforcement is on so
  // detection-only expositions stay byte-identical to the pre-verdict
  // engine.
  if (enforcer_ != nullptr) {
    registry_
        .counter("scidive_verdicts_raised_total",
                 "Verdicts emitted by rules (including retention drops)")
        .sync(verdicts_.total_raised());
    registry_
        .counter("scidive_verdicts_dropped_total",
                 "Verdicts dropped from sink retention (capacity bound)")
        .sync(verdicts_.dropped());
    registry_.gauge("scidive_verdicts_retained", "Verdicts currently held by the sink")
        .set(static_cast<int64_t>(verdicts_.count()));

    const BlockList& bl = enforcer_->blocks();
    registry_.gauge("scidive_blocklist_entries", "Live (unexpired) block-list entries")
        .set(static_cast<int64_t>(bl.size()));
    registry_.counter("scidive_blocklist_installed_total", "Block-list entries installed")
        .sync(bl.installed_total());
    registry_.counter("scidive_blocklist_expired_total", "Block-list entries TTL-expired")
        .sync(bl.expired_total());
    registry_
        .counter("scidive_blocklist_rejected_total",
                 "Blocks rejected at the capacity bound")
        .sync(bl.rejected_total());

    const RateLimiter& rl = enforcer_->limiter();
    registry_.gauge("scidive_ratelimit_buckets", "Armed token buckets")
        .set(static_cast<int64_t>(rl.size()));
    registry_
        .gauge("scidive_ratelimit_tokens",
               "Whole tokens available across buckets (as of last refill)")
        .set(rl.stored_tokens());
    registry_.counter("scidive_ratelimit_armed_total", "Token buckets armed by verdicts")
        .sync(rl.armed_total());
    registry_
        .counter("scidive_ratelimit_denied_total",
                 "Admissions denied by an empty bucket")
        .sync(rl.denied_total());
    registry_
        .counter("scidive_ratelimit_rejected_total",
                 "Bucket arms rejected at the capacity bound")
        .sync(rl.rejected_total());
  }
}

obs::Snapshot ScidiveEngine::metrics_snapshot() {
  sync_component_stats();
  return registry_.snapshot();
}

void ScidiveEngine::expire_idle(SimTime cutoff) {
  // Bypassed activity must count toward idleness before the scan, or a
  // flow that went quiet *after* heavy bypass looks older than it is.
  fastpath_flush();
  trails_.expire_idle(cutoff);
  events_.expire_idle(cutoff);
}

ScidiveEngine::SessionTransfer ScidiveEngine::extract_session(const SessionId& session) {
  // A rebalance migration must ship fully written-back state: hand every
  // cached flow's microstate to its trail/session before packing.
  fastpath_flush();
  SessionTransfer out;
  out.trails = trails_.extract_session(session);
  if (!out.trails.valid()) return out;
  out.id = session;
  out.valid = true;
  out.events = events_.extract_session(session);
  for (const RulePtr& rule : rules_) {
    if (auto state = rule->extract_session(session)) {
      out.rule_states.emplace_back(std::string(rule->name()), std::move(state));
    }
  }
  return out;
}

void ScidiveEngine::install_session(SessionTransfer&& transfer) {
  if (!transfer.valid) return;
  fastpath_flush();
  trails_.install_session(std::move(transfer.trails));
  if (transfer.events) events_.install_session(transfer.id, std::move(*transfer.events));
  for (auto& [rule_name, state] : transfer.rule_states) {
    for (const RulePtr& rule : rules_) {
      if (rule->name() == rule_name) {
        rule->install_session(transfer.id, std::move(state));
        break;
      }
    }
  }
}

}  // namespace scidive::core
