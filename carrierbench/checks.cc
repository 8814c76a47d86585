#include <unordered_map>

#include "workload.h"

namespace carrierbench {

using namespace scidive;

void check_engine(const Census& census, const std::vector<pkt::Packet>& stream,
                  core::ScidiveEngine& engine, const Decisions& nonpass, RoundResult& out) {
  const uint64_t fed = stream.size();
  const core::EngineStats stats = engine.stats();
  out.attempted = fed;
  // A packet the engine did not inspect is a failed operation.
  if (stats.packets_inspected < fed) out.failed += fed - stats.packets_inspected;
  if (engine.alerts().dropped() != 0) out.problems.push_back("alert retention overflowed");

  // Expected alerts: one spit-graylist alert per threshold-crossing INVITE
  // (none on the benign carrier mix, which has no SPIT cohort).
  std::unordered_map<std::string, uint64_t> expected;
  for (const std::string& call_id : census.expected_spit_alerts) ++expected[call_id];
  uint64_t unexpected = 0;
  for (const core::Alert& alert : engine.alerts().alerts()) {
    auto it = expected.find(alert.session);
    if (alert.rule == "spit-graylist" && it != expected.end() && it->second > 0) {
      --it->second;
    } else {
      ++unexpected;
    }
  }
  uint64_t missing = 0;
  for (const auto& [call_id, left] : expected) missing += left;

  // A non-pass decision is expected only on a SIP packet whose caller the
  // ground truth flagged at or before that packet.
  uint64_t wrong_decisions = 0;
  for (const auto& [index, action] : nonpass) {
    auto it = census.flagged_at.find(sip_from_aor(stream[index]));
    if (it == census.flagged_at.end() || it->second > index) ++wrong_decisions;
  }
  out.failed += unexpected + missing + wrong_decisions;

  if (engine.enforcement_mode() != core::EnforcementMode::kOff) {
    uint64_t decided = 0;
    for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
      decided += engine.decisions(static_cast<core::VerdictAction>(a));
    }
    if (decided != stats.packets_inspected) {
      out.problems.push_back("sum of decisions differs from packets inspected");
    }
  }
  out.info("alerts", static_cast<double>(engine.alerts().total_raised()));
  out.info("alerts_expected", static_cast<double>(census.expected_spit_alerts.size()));
  out.info("alerts_unexpected", static_cast<double>(unexpected));
  out.info("alerts_missing", static_cast<double>(missing));
  out.info("nonpass_decisions", static_cast<double>(nonpass.size()));
  out.info("nonpass_unexpected", static_cast<double>(wrong_decisions));
}

void check_fleet(fleet::Fleet& fleet, uint64_t fed, RoundResult& out) {
  out.attempted = fed;
  const fleet::FleetStats stats = fleet.stats();
  uint64_t node_seen = stats.retired_engine_seen;
  uint64_t inspected = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const core::ShardedEngineStats s = fleet.node_at(i).engine().stats();
    node_seen += s.packets_seen;
    inspected += s.engine.packets_inspected;
  }
  if (stats.packets_seen != stats.packets_filtered + stats.fragments_held + node_seen) {
    out.problems.push_back("fleet seen != filtered + held + node-seen");
  }
  if (inspected < fed) out.failed += fed - inspected;

  // The carrier mix is benign: every alert is false. The digest-guess
  // alerts come from the correlator keying auth failures by the registrar.
  uint64_t digest_guess = 0;
  const std::vector<core::Alert> alerts = fleet.merged_alerts();
  for (const core::Alert& alert : alerts) {
    if (alert.rule == "fleet-digest-guess") ++digest_guess;
  }
  out.failed += alerts.size();
  const fleet::FleetNodeStats control = fleet.node_stats();
  if (control.gossip_records_dropped != 0) out.problems.push_back("gossip records dropped");
  out.info("alerts", static_cast<double>(alerts.size()));
  out.info("alerts_digest_guess", static_cast<double>(digest_guess));
  out.info("gossip_records_dropped", static_cast<double>(control.gossip_records_dropped));
}

}  // namespace carrierbench
