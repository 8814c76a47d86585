// The benchmark's three workloads: how each packet stream is made from the
// command-line seed, which engine configuration and ruleset it runs, and the
// ground truth the outputs are checked against. The ground truth is counted
// from the packet bytes by this file's own parsing, never read back from the
// engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.h"
#include "measure.h"
#include "pkt/packet.h"
#include "ruledsl/program.h"
#include "scidive/engine.h"

namespace carrierbench {

enum class Workload { kCarrierMix, kSignalingSpit, kFleetMix };

std::optional<Workload> parse_workload(std::string_view name);
bool is_fleet(Workload w);

/// The round's packet stream, generated from `seed`. carrier_mix and
/// fleet_mix share the seeded carrier stream; fleet_mix adds a fixed,
/// seed-independent burst of failed digest registrations (see workload.cc).
std::vector<scidive::pkt::Packet> make_stream(Workload w, uint64_t seed);

/// Engine configuration of the workload (also each fleet member's engine).
scidive::core::EngineConfig engine_config(Workload w);

/// The workload's ruleset. signaling_spit loads every shipped .sdr pack
/// through the ruledsl loader and keeps register flood, password guess and
/// RTCP-BYE in C++; the other workloads run the paper's C++ ruleset.
class Ruleset {
 public:
  /// Compiles the .sdr packs from `dir` when the workload needs them.
  /// Returns an error message, empty on success.
  std::string load(Workload w, const std::string& dir);
  /// True when the engine's built-in default ruleset must be replaced.
  bool custom() const { return custom_; }
  /// Fresh rule instances (per engine or per shard).
  std::vector<scidive::core::RulePtr> make() const;

 private:
  bool custom_ = false;
  scidive::ruledsl::CompiledRuleset compiled_;
};

/// A fleet of two members with one worker each; every other FleetConfig
/// setting at its default (1024-packet gossip cadence, lossless gossip).
std::unique_ptr<scidive::fleet::Fleet> make_fleet(Workload w, const Ruleset& rules);

/// The six .sdr packs shipped in the rulesets directory.
std::vector<std::string> shipped_sdr_paths(const std::string& dir);

/// Make-up of a stream and the ground truth derived from its bytes.
struct Census {
  uint64_t packets = 0;
  uint64_t sip = 0;
  uint64_t rtp = 0;
  uint64_t rtcp = 0;
  uint64_t other = 0;
  uint64_t sip_sessions = 0;  // distinct Call-IDs
  uint64_t spit_invites = 0;
  double span_s = 0;
  /// Call-IDs of the INVITEs that take a SPIT identity to 8 attempts within
  /// a tumbling 60 s window: one spit-graylist alert is expected on each.
  std::vector<std::string> expected_spit_alerts;
  /// SPIT AOR -> index of the packet that first flagged it.
  std::unordered_map<std::string, size_t> flagged_at;
};

Census take_census(const std::vector<scidive::pkt::Packet>& stream);

/// From-header AOR of a SIP packet ("user@host"), or empty.
std::string sip_from_aor(const scidive::pkt::Packet& packet);

/// Decisions other than pass returned by the engine, as (packet index,
/// action).
using Decisions = std::vector<std::pair<uint32_t, scidive::core::VerdictAction>>;

/// Counts the failed operations of a single-engine round against the ground
/// truth and records violated invariants as problems.
void check_engine(const Census& census, const std::vector<scidive::pkt::Packet>& stream,
                  scidive::core::ScidiveEngine& engine, const Decisions& nonpass,
                  RoundResult& out);

/// The same for a fleet round (after flush()).
void check_fleet(scidive::fleet::Fleet& fleet, uint64_t fed, RoundResult& out);

}  // namespace carrierbench
