// The traced round. Every workload runs the same three passes over its
// stream, so every per-layer metric is measured on every workload:
//
//  1. A replay through the public layer calls, in the engine's order:
//     Distiller::distill -> TrailManager::add -> EventGenerator::process ->
//     each subscribed Rule::on_event -> Enforcer::decide. Each call is
//     timed (one steady_clock read per boundary) and its allocations are
//     counted by the benchmark's counting operator new.
//  2. ScidiveEngine::on_packet on the same stream, each call timed. A call
//     during which fastpath_bypassed() advanced was a fast-path hit. The
//     replay's alerts, verdicts and per-packet decisions must equal the
//     engine's, so the layer numbers describe the work the engine does.
//  3. A two-member fleet fed the stream, its calls split at the gossip pump
//     cadence, and the final flush() timed.
//
// The round's operations are those of the workload's own system (pass 2 for
// the single-engine workloads, pass 3 for fleet_mix), checked as in the
// untraced round. A layer a workload does not exercise reads 0 (the fast
// path on signaling_spit, for instance).
#include "trace.h"

#include <cstdio>

#include "ruledsl/loader.h"

namespace carrierbench {

using namespace scidive;

namespace {

constexpr uint8_t kNotDistilled = 0xff;

struct Replay {
  std::vector<core::Alert> alerts;
  std::vector<core::Verdict> verdicts;
  Decisions nonpass;
  std::vector<uint32_t> layer_ns;  // per packet: distill through enforce
  std::vector<uint8_t> protocol;   // per packet: core::Protocol, or kNotDistilled
  double wall_s = 0;
};

Replay replay(Workload w, const Ruleset& rules, const std::vector<pkt::Packet>& stream,
              RoundResult& out) {
  const core::EngineConfig config = engine_config(w);
  core::Distiller distiller(config.distiller);
  core::TrailManager trails(config.max_footprints_per_trail);
  core::EventGenerator events(trails, config.events);
  std::vector<core::RulePtr> ruleset = rules.make();
  std::vector<uint32_t> subscribers[core::kEventTypeCount];
  for (size_t r = 0; r < ruleset.size(); ++r) {
    const core::EventTypeMask mask = ruleset[r]->subscriptions();
    for (size_t t = 0; t < core::kEventTypeCount; ++t) {
      if (mask & (core::EventTypeMask{1} << t)) subscribers[t].push_back(static_cast<uint32_t>(r));
    }
  }
  core::AlertSink sink(config.obs.alert_capacity);
  core::VerdictSink verdicts(config.enforce.verdict_capacity);
  obs::AlertLedger ledger(config.obs.ledger_capacity);
  std::unique_ptr<core::Enforcer> enforcer;
  if (config.enforce.mode != core::EnforcementMode::kOff) {
    enforcer = std::make_unique<core::Enforcer>(config.enforce);
  }
  std::vector<core::Event> scratch;
  scratch.reserve(16);

  Replay r;
  const size_t n = stream.size();
  r.layer_ns.assign(n, 0);
  r.protocol.assign(n, kNotDistilled);
  uint64_t sip = 0, rtp = 0, distill_sip_ns = 0, distill_sip_allocs = 0, distill_rtp_ns = 0;
  uint64_t route_sip_ns = 0, route_rtp_ns = 0, route_allocs = 0;
  uint64_t events_ns = 0, event_count = 0, rules_ns = 0, rule_calls = 0, rule_allocs = 0;
  uint64_t enforce_ns = 0;

  const auto start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a0 = thread_allocs();
    const auto t0 = Clock::now();
    auto fp = distiller.distill(stream[i]);
    const auto t1 = Clock::now();
    const uint64_t a1 = thread_allocs();
    if (!fp) {
      r.layer_ns[i] = static_cast<uint32_t>(ns_between(t0, t1));
      continue;
    }
    const core::Protocol proto = fp->protocol;
    r.protocol[i] = static_cast<uint8_t>(proto);
    // Enforcement identities, as the engine takes them: network source and
    // signaling principal before the footprint moves, session after routing.
    const SimTime pkt_time = fp->time;
    uint64_t src_k = 0, principal_k = 0, sess_k = 0;
    if (enforcer != nullptr) {
      if (!fp->src.addr.is_unspecified()) src_k = core::source_key(fp->src.addr);
      if (const core::SipFootprint* s = fp->sip(); s != nullptr && !s->from_aor.empty()) {
        principal_k = core::aor_key(s->from_aor);
      }
    }
    core::Trail& trail = trails.add(std::move(*fp));
    if (enforcer != nullptr) sess_k = core::session_key(trail.key().session);
    const auto t2 = Clock::now();
    const uint64_t a2 = thread_allocs();
    scratch.clear();
    events.process(trail.back(), trail, scratch);
    const auto t3 = Clock::now();
    const uint64_t a3 = thread_allocs();
    core::RuleContext ctx(trails, sink, &ledger, &verdicts, enforcer.get());
    for (const core::Event& event : scratch) {
      for (uint32_t rule : subscribers[static_cast<size_t>(event.type)]) {
        ruleset[rule]->on_event(event, ctx);
        ++rule_calls;
      }
    }
    const auto t4 = Clock::now();
    const uint64_t a4 = thread_allocs();
    core::VerdictAction decision = core::VerdictAction::kPass;
    if (enforcer != nullptr) {
      decision = enforcer->decide(src_k, sess_k, principal_k, pkt_time);
      decision = core::max_action(decision, verdicts.take_pending());
    }
    const auto t5 = Clock::now();
    if (decision != core::VerdictAction::kPass) {
      r.nonpass.emplace_back(static_cast<uint32_t>(i), decision);
    }

    r.layer_ns[i] = static_cast<uint32_t>(ns_between(t0, t5));
    if (proto == core::Protocol::kSip) {
      ++sip;
      distill_sip_ns += ns_between(t0, t1);
      distill_sip_allocs += a1 - a0;
      route_sip_ns += ns_between(t1, t2);
    } else if (proto == core::Protocol::kRtp) {
      ++rtp;
      distill_rtp_ns += ns_between(t0, t1);
      route_rtp_ns += ns_between(t1, t2);
    }
    route_allocs += a2 - a1;
    events_ns += ns_between(t2, t3);
    event_count += scratch.size();
    rules_ns += ns_between(t3, t4);
    rule_allocs += a4 - a3;
    enforce_ns += ns_between(t4, t5);
  }
  r.wall_s = seconds_between(start, Clock::now());

  const double pkts = static_cast<double>(n);
  out.metric("distill.sip_ns", per(distill_sip_ns, sip));
  out.metric("distill.sip_allocs", per(distill_sip_allocs, sip));
  out.metric("distill.rtp_ns", per(distill_rtp_ns, rtp));
  out.metric("route.rtp_ns", per(route_rtp_ns, rtp));
  out.metric("route.sip_ns", per(route_sip_ns, sip));
  out.metric("route.allocs_per_pkt", per(route_allocs, pkts));
  out.metric("route.live_sessions", static_cast<double>(trails.session_count()));
  out.metric("route.arena_bytes_per_session",
             per(trails.arena_bytes_reserved(), trails.session_count()));
  out.metric("events.ns_per_pkt", per(events_ns, pkts));
  out.metric("events.per_pkt", per(event_count, pkts));
  out.metric("rules.ns_per_pkt", per(rules_ns, pkts));
  out.metric("rules.calls_per_pkt", per(rule_calls, pkts));
  out.metric("rules.allocs_per_pkt", per(rule_allocs, pkts));
  out.metric("enforce.ns_per_pkt", per(enforce_ns, pkts));
  r.alerts = sink.alerts();
  r.verdicts = verdicts.verdicts();
  return r;
}

bool same_alerts(const std::vector<core::Alert>& a, const std::vector<core::Alert>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rule != b[i].rule || a[i].session != b[i].session || a[i].time != b[i].time ||
        a[i].message != b[i].message) {
      return false;
    }
  }
  return true;
}

bool same_verdicts(const std::vector<core::Verdict>& a, const std::vector<core::Verdict>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rule != b[i].rule || a[i].action != b[i].action || a[i].session != b[i].session ||
        a[i].time != b[i].time || a[i].aor != b[i].aor) {
      return false;
    }
  }
  return true;
}

void engine_pass(Workload w, const Ruleset& rules, const std::vector<pkt::Packet>& stream,
                 const Replay& rp, RoundResult& out) {
  core::ScidiveEngine engine(engine_config(w));
  if (rules.custom()) engine.set_rules(rules.make());
  const size_t n = stream.size();
  std::vector<uint32_t> call_ns(n, 0);
  std::vector<uint8_t> bypassed(n, 0);
  Decisions nonpass;
  const auto start = Clock::now();
  auto t = start;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t before = engine.fastpath_bypassed();
    const core::VerdictAction d = engine.on_packet(stream[i]);
    const auto next = Clock::now();
    call_ns[i] = static_cast<uint32_t>(ns_between(t, next));
    t = next;
    bypassed[i] = engine.fastpath_bypassed() != before;
    if (d != core::VerdictAction::kPass) nonpass.emplace_back(static_cast<uint32_t>(i), d);
  }
  const double wall_s = seconds_between(start, Clock::now());

  if (!same_alerts(rp.alerts, engine.alerts().alerts())) {
    out.problems.push_back("traced replay alerts differ from the engine's");
  }
  if (!same_verdicts(rp.verdicts, engine.verdicts().verdicts())) {
    out.problems.push_back("traced replay verdicts differ from the engine's");
  }
  if (rp.nonpass != nonpass) {
    out.problems.push_back("traced replay decisions differ from the engine's");
  }

  // Engine time per packet, split by what the fast path did; the glue is the
  // engine's time on a full-pipeline packet beyond the replay's layers.
  uint64_t total = 0, hit_ns = 0, hits = 0, miss_ns = 0, misses = 0, slow = 0;
  int64_t glue_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    total += call_ns[i];
    if (bypassed[i]) {
      hit_ns += call_ns[i];
      ++hits;
      continue;
    }
    if (rp.protocol[i] == static_cast<uint8_t>(core::Protocol::kRtp)) {
      miss_ns += call_ns[i];
      ++misses;
    }
    glue_ns += static_cast<int64_t>(call_ns[i]) - static_cast<int64_t>(rp.layer_ns[i]);
    ++slow;
  }
  const obs::Snapshot snap = engine.metrics_snapshot();
  const double pkts = static_cast<double>(n);
  out.metric("engine.ns_per_pkt", per(total, pkts));
  out.metric("engine.glue_ns_per_pkt", per(static_cast<double>(glue_ns), static_cast<double>(slow)));
  out.metric("fastpath.hit_share",
             per(snap.counter_value("scidive_fastpath_hits_total"), pkts));
  out.metric("fastpath.hit_ns", per(hit_ns, hits));
  out.metric("fastpath.miss_ns", per(miss_ns, misses));
  out.metric("fastpath.invalidations",
             static_cast<double>(snap.counter_value("scidive_fastpath_invalidations_total")));
  // The replay loop against the engine's own timed feed: what tracing the
  // layers costs per packet (the replay also runs without the fast path).
  out.metric("trace.overhead_share", rp.wall_s / wall_s - 1.0);

  if (!is_fleet(w)) {
    const Census census = take_census(stream);
    check_engine(census, stream, engine, nonpass, out);
  }
}

void fleet_pass(Workload w, const Ruleset& rules, const std::vector<pkt::Packet>& stream,
                RoundResult& out) {
  std::unique_ptr<fleet::Fleet> fleet = make_fleet(w, rules);
  const fleet::FleetConfig defaults;
  const size_t cadence = defaults.pump_every_packets;
  const size_t n = stream.size();
  std::vector<uint32_t> call_ns(n, 0);
  const auto start = Clock::now();
  auto t = start;
  for (size_t i = 0; i < n; ++i) {
    fleet->on_packet(stream[i]);
    const auto next = Clock::now();
    call_ns[i] = static_cast<uint32_t>(ns_between(t, next));
    t = next;
  }
  fleet->flush();
  const auto end = Clock::now();
  const double wall_ns = static_cast<double>(ns_between(start, end));

  // Every dispatched packet counts toward the cadence; with nothing
  // filtered or held for reassembly, call i pumps when (i+1) % cadence == 0.
  const fleet::FleetStats fs = fleet->stats();
  if (fs.packets_filtered != 0 || fs.fragments_held != 0) {
    out.problems.push_back("fleet pump attribution assumes no filtered or held packets");
  }
  uint64_t pump_ns = 0, pumps = 0, enqueue_ns = 0, enqueues = 0;
  for (size_t i = 0; i < n; ++i) {
    if ((i + 1) % cadence == 0) {
      pump_ns += call_ns[i];
      ++pumps;
    } else {
      enqueue_ns += call_ns[i];
      ++enqueues;
    }
  }
  uint64_t busy = 0, idle = 0;
  int64_t hwm = 0;
  for (size_t i = 0; i < fleet->size(); ++i) {
    const obs::Snapshot snap = fleet->node_at(i).engine().metrics_snapshot();
    for (const obs::Sample& s : snap.samples()) {
      if (s.name == "scidive_shard_worker_busy_ns_total") busy += s.counter;
      if (s.name == "scidive_shard_worker_idle_ns_total") idle += s.counter;
      if (s.name == "scidive_shard_queue_depth_hwm") hwm = std::max(hwm, s.gauge);
    }
  }
  out.metric("shard.enqueue_ns", per(enqueue_ns, enqueues));
  out.metric("shard.worker_busy_share", per(busy, busy + idle));
  out.metric("shard.queue_depth_hwm", static_cast<double>(hwm));
  out.metric("fleet.pump_us", per(pump_ns, pumps) / 1e3);
  out.metric("fleet.pump_share", per(pump_ns, wall_ns));
  out.metric("fleet.flush_ms", static_cast<double>(ns_between(t, end)) / 1e6);
  out.metric("fleet.gossip_bytes_per_pkt",
             per(fleet->node_stats().gossip_bytes_built, static_cast<double>(n)));
  if (is_fleet(w)) check_fleet(*fleet, n, out);
}

}  // namespace

int traced_round(Workload w, uint64_t seed, const std::string& rulesets) {
  RoundResult out;
  const auto gen_start = Clock::now();
  const std::vector<pkt::Packet> stream = make_stream(w, seed);
  out.metric("capture.gen_ns_per_pkt", static_cast<double>(ns_between(gen_start, Clock::now())) /
                                           static_cast<double>(stream.size()));
  // The DSL layer's set-up cost: compiling the shipped packs.
  const auto compile_start = Clock::now();
  auto compiled = ruledsl::compile_ruleset_files(shipped_sdr_paths(rulesets));
  out.metric("ruledsl.compile_ms",
             static_cast<double>(ns_between(compile_start, Clock::now())) / 1e6);
  Ruleset rules;
  std::string err = compiled.ok() ? rules.load(w, rulesets) : compiled.error().to_string();
  if (!err.empty()) {
    std::fprintf(stderr, "carrierbench: cannot load rulesets: %s\n", err.c_str());
    return 2;
  }
  {
    const Replay rp = replay(w, rules, stream, out);
    engine_pass(w, rules, stream, rp, out);
  }
  fleet_pass(w, rules, stream, out);
  out.print();
  return 0;
}

}  // namespace carrierbench
