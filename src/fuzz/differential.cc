#include "fuzz/differential.h"

#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

#include "capture/pcap.h"
#include "common/strings.h"

namespace scidive::fuzz {
namespace {

/// (rule, session) -> count. The alert identity that must survive sharding.
using AlertMultiset = std::map<std::pair<std::string, std::string>, size_t>;

AlertMultiset alert_multiset(const std::vector<core::Alert>& alerts) {
  AlertMultiset out;
  for (const core::Alert& a : alerts) ++out[{a.rule, a.session}];
  return out;
}

/// (rule, session, action) -> count. The prevention identity: what a rule
/// decided to do about whom must survive sharding just like alerts do.
using VerdictMultiset = std::map<std::tuple<std::string, std::string, int>, size_t>;

VerdictMultiset verdict_multiset(const std::vector<core::Verdict>& verdicts) {
  VerdictMultiset out;
  for (const core::Verdict& v : verdicts) {
    ++out[{v.rule, v.session, static_cast<int>(v.action)}];
  }
  return out;
}

void compare_verdicts(const VerdictMultiset& single, const VerdictMultiset& sharded,
                      const std::string& who, std::vector<std::string>& mismatches) {
  if (sharded == single) return;
  for (const auto& [key, n] : single) {
    auto it = sharded.find(key);
    const size_t have = it == sharded.end() ? 0 : it->second;
    if (have != n) {
      mismatches.push_back(str::format(
          "%s: verdict (%s, %s, %s) x%zu, single has x%zu", who.c_str(),
          std::get<0>(key).c_str(), std::get<1>(key).c_str(),
          std::string(core::verdict_action_name(
                          static_cast<core::VerdictAction>(std::get<2>(key))))
              .c_str(),
          have, n));
    }
  }
  for (const auto& [key, n] : sharded) {
    if (single.find(key) == single.end()) {
      mismatches.push_back(str::format(
          "%s: extra verdict (%s, %s, %s) x%zu not emitted by single engine",
          who.c_str(), std::get<0>(key).c_str(), std::get<1>(key).c_str(),
          std::string(core::verdict_action_name(
                          static_cast<core::VerdictAction>(std::get<2>(key))))
              .c_str(),
          n));
    }
  }
}

/// Detection-side metric families that must be topology-invariant. Packet,
/// fragment and reassembly counters are deliberately absent: the single
/// engine reassembles in its distiller while the sharded engine reassembles
/// in the router, so those legitimately differ in placement.
bool comparable_family(std::string_view name) {
  return name == "scidive_events_total" || name == "scidive_events_by_type_total" ||
         name == "scidive_alerts_total" || name == "scidive_rule_alerts_total" ||
         name == "scidive_rule_events_total" || name == "scidive_parse_errors_total";
}

bool comparable_sample(const obs::Sample& s) {
  if (s.kind != obs::InstrumentKind::kCounter) return false;
  if (!comparable_family(s.name)) return false;
  if (s.name == "scidive_parse_errors_total") {
    // The ipv4 axis counts fragment-train failures, which land in the
    // router (uncounted by shard distillers) under sharding.
    for (const auto& [k, v] : s.labels) {
      if (k == "proto" && v == "ipv4") return false;
    }
  }
  return true;
}

/// The mirrors are compared between the two single engines only: under
/// sharding the distiller and reassembly counters legitimately move to the
/// router.
bool fastpath_comparable_sample(const obs::Sample& s) {
  return comparable_sample(s) || is_fastpath_mirror(s);
}

std::string label_string(const obs::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    out += k + "=" + v;
  }
  return out;
}

void compare_metrics(const obs::Snapshot& single, obs::Snapshot sharded,
                     const std::string& who, std::vector<std::string>& mismatches,
                     bool (*compared)(const obs::Sample&) = comparable_sample) {
  for (const obs::Sample& s : single.samples()) {
    if (!compared(s)) continue;
    uint64_t other = sharded.counter_value(s.name, s.labels);
    if (other != s.counter) {
      mismatches.push_back(str::format(
          "%s: %s{%s} = %llu, single = %llu", who.c_str(), s.name.c_str(),
          label_string(s.labels).c_str(), static_cast<unsigned long long>(other),
          static_cast<unsigned long long>(s.counter)));
    }
  }
  // Reverse direction: a lazily-registered cell present only under sharding
  // is itself a divergence.
  for (const obs::Sample& s : sharded.samples()) {
    if (!compared(s) || s.counter == 0) continue;
    if (single.find(s.name, s.labels) == nullptr) {
      mismatches.push_back(str::format(
          "%s: %s{%s} = %llu, absent from single engine", who.c_str(),
          s.name.c_str(), label_string(s.labels).c_str(),
          static_cast<unsigned long long>(s.counter)));
    }
  }
}

}  // namespace

bool is_fastpath_mirror(const obs::Sample& sample) {
  if (sample.kind != obs::InstrumentKind::kCounter) return false;
  for (std::string_view prefix : {"scidive_distiller_", "scidive_trail_", "scidive_trails_",
                                  "scidive_eventgen_", "scidive_monitors_"}) {
    if (sample.name.starts_with(prefix)) return true;
  }
  return false;
}

std::string DifferentialReport::to_string() const {
  if (ok()) {
    return str::format("differential oracle OK: %zu packets, %zu alerts", packets,
                       single_alerts);
  }
  std::string out = str::format("differential oracle FAILED (%zu mismatches):",
                                mismatches.size());
  for (const std::string& m : mismatches) {
    out += "\n  ";
    out += m;
  }
  return out;
}

DifferentialReport run_differential(const std::vector<pkt::Packet>& stream,
                                    const DifferentialConfig& config) {
  DifferentialReport report;
  report.packets = stream.size();

  core::EngineConfig engine_config = config.engine;
  engine_config.obs.time_stages = false;
  // Fastpath-differential mode: the reference engine runs with the bypass
  // disabled; everything compared against it runs with it enabled.
  core::EngineConfig baseline_config = engine_config;
  if (config.fastpath_differential) {
    baseline_config.fastpath.enabled = false;
    engine_config.fastpath.enabled = true;
  }

  core::ScidiveEngine single(baseline_config);
  if (config.make_rules) single.set_rules(config.make_rules());
  for (const pkt::Packet& packet : stream) single.on_packet(packet);
  const AlertMultiset single_alerts = alert_multiset(single.alerts().alerts());
  const VerdictMultiset single_verdicts =
      config.verdict_mode ? verdict_multiset(single.verdicts().verdicts())
                          : VerdictMultiset{};
  const obs::Snapshot single_snapshot = single.metrics_snapshot();
  report.single_alerts = single.alerts().alerts().size();
  report.single_verdicts = config.verdict_mode ? single.verdicts().count() : 0;
  const core::EngineStats single_stats = single.stats();

  if (config.fastpath_differential) {
    // A fastpath-on single engine against the fastpath-off baseline: the
    // purest form of the bypass-changes-nothing claim, with no sharding in
    // the mix.
    core::ScidiveEngine fast(engine_config);
    if (config.make_rules) fast.set_rules(config.make_rules());
    for (const pkt::Packet& packet : stream) fast.on_packet(packet);
    if (alert_multiset(fast.alerts().alerts()) != single_alerts) {
      report.mismatches.push_back(
          "fastpath-on single: alert multiset diverged from fastpath-off baseline");
    }
    if (config.verdict_mode) {
      compare_verdicts(single_verdicts, verdict_multiset(fast.verdicts().verdicts()),
                       "fastpath-on single", report.mismatches);
    }
    compare_metrics(single_snapshot, fast.metrics_snapshot(), "fastpath-on single",
                    report.mismatches, fastpath_comparable_sample);
  }

  // Pcap-replay mode: everything downstream consumes the stream after a
  // trip through the capture file format.
  std::vector<pkt::Packet> reimported;
  const std::vector<pkt::Packet>* replay_stream = &stream;
  if (config.pcap_roundtrip) {
    std::ostringstream exported(std::ios::binary);
    capture::PcapWriter writer(exported);
    for (const pkt::Packet& packet : stream) writer.write(packet);
    std::istringstream back(exported.str(), std::ios::binary);
    capture::PcapFileSource source(back);
    reimported = capture::read_all(source);
    if (!source.ok()) {
      report.mismatches.push_back("pcap roundtrip: reimport failed: " + source.error());
    }
    if (reimported.size() != stream.size()) {
      report.mismatches.push_back(
          str::format("pcap roundtrip: %zu packets in, %zu back", stream.size(),
                      reimported.size()));
    } else {
      for (size_t i = 0; i < stream.size(); ++i) {
        if (reimported[i].data != stream[i].data ||
            reimported[i].timestamp != stream[i].timestamp) {
          report.mismatches.push_back(
              str::format("pcap roundtrip: packet %zu differs after reimport", i));
          break;
        }
      }
    }
    // End-to-end: a fresh single engine over the reimported stream must
    // raise the identical alert multiset.
    core::ScidiveEngine replayed(engine_config);
    if (config.make_rules) replayed.set_rules(config.make_rules());
    for (const pkt::Packet& packet : reimported) replayed.on_packet(packet);
    if (alert_multiset(replayed.alerts().alerts()) != single_alerts) {
      report.mismatches.push_back(
          "pcap roundtrip: alert multiset diverged after capture-file replay");
    }
    if (config.verdict_mode &&
        verdict_multiset(replayed.verdicts().verdicts()) != single_verdicts) {
      report.mismatches.push_back(
          "pcap roundtrip: verdict multiset diverged after capture-file replay");
    }
    replay_stream = &reimported;
  }

  for (size_t shards : config.shard_counts) {
    core::ShardedEngineConfig sc;
    sc.engine = engine_config;
    sc.num_shards = shards;
    sc.queue_capacity = config.queue_capacity;
    sc.overflow = config.overflow;
    if (config.batch_size != 0) sc.batch_size = config.batch_size;
    sc.route_invite_by_caller = config.verdict_mode;
    core::ShardedEngine sharded(sc);
    if (config.make_rules) {
      sharded.set_rules([&](size_t) { return config.make_rules(); });
    }
    if (config.rebalance_interval != 0) {
      size_t since = 0;
      for (const pkt::Packet& packet : *replay_stream) {
        sharded.on_packet(packet);
        if (++since >= config.rebalance_interval) {
          since = 0;
          sharded.rebalance();
        }
      }
    } else {
      for (const pkt::Packet& packet : *replay_stream) sharded.on_packet(packet);
    }
    sharded.flush();

    const core::ShardedEngineStats stats = sharded.stats();
    if (stats.packets_seen != replay_stream->size()) {
      report.mismatches.push_back(str::format(
          "%zu shards: front-end saw %llu of %zu packets", shards,
          static_cast<unsigned long long>(stats.packets_seen), replay_stream->size()));
    }
    // Every packet offered to the front-end is filtered, dropped on a full
    // ring, held as an incomplete fragment in the router's reassembler, or
    // seen by exactly one shard engine. Nothing may vanish.
    const uint64_t held = sharded.router().stats().fragments_held;
    if (stats.packets_seen != stats.packets_filtered + stats.packets_dropped + held +
                                  stats.engine.packets_seen) {
      report.mismatches.push_back(str::format(
          "%zu shards: accounting identity broken: seen=%llu filtered=%llu "
          "dropped=%llu held=%llu shard-seen=%llu",
          shards, static_cast<unsigned long long>(stats.packets_seen),
          static_cast<unsigned long long>(stats.packets_filtered),
          static_cast<unsigned long long>(stats.packets_dropped),
          static_cast<unsigned long long>(held),
          static_cast<unsigned long long>(stats.engine.packets_seen)));
    }
    if (stats.packets_filtered != single_stats.packets_filtered) {
      report.mismatches.push_back(str::format(
          "%zu shards: filtered %llu packets, single filtered %llu", shards,
          static_cast<unsigned long long>(stats.packets_filtered),
          static_cast<unsigned long long>(single_stats.packets_filtered)));
    }

    // With drops in play (kDrop under saturation) the alert sets may
    // legitimately differ — the lost packets are counted, not hidden.
    if (stats.packets_dropped != 0) continue;

    const AlertMultiset sharded_alerts = alert_multiset(sharded.merged_alerts());
    if (sharded_alerts != single_alerts) {
      for (const auto& [key, n] : single_alerts) {
        auto it = sharded_alerts.find(key);
        size_t have = it == sharded_alerts.end() ? 0 : it->second;
        if (have != n) {
          report.mismatches.push_back(str::format(
              "%zu shards: alert (%s, %s) x%zu, single has x%zu", shards,
              key.first.c_str(), key.second.c_str(), have, n));
        }
      }
      for (const auto& [key, n] : sharded_alerts) {
        if (single_alerts.find(key) == single_alerts.end()) {
          report.mismatches.push_back(str::format(
              "%zu shards: extra alert (%s, %s) x%zu not raised by single engine",
              shards, key.first.c_str(), key.second.c_str(), n));
        }
      }
    }

    const std::string who = str::format("%zu shards", shards);
    if (config.verdict_mode) {
      compare_verdicts(single_verdicts, verdict_multiset(sharded.merged_verdicts()),
                       who, report.mismatches);
    }

    compare_metrics(single_snapshot, sharded.metrics_snapshot(), who,
                    report.mismatches);
  }
  return report;
}

}  // namespace scidive::fuzz
