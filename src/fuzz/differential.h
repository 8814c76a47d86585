// Single-vs-sharded differential oracle. The ShardedEngine's contract is
// that session-affinity routing changes *where* state lives, never *what*
// is detected — so for any packet stream, benign or adversarial, a sharded
// engine must raise the same (rule, session) alert multiset as a single
// ScidiveEngine, and (when nothing is dropped) agree on the detection-side
// metric families. run_differential() checks that contract across a set of
// shard counts and reports every divergence it finds.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "pkt/packet.h"
#include "scidive/sharded_engine.h"

namespace scidive::fuzz {

struct DifferentialConfig {
  std::vector<size_t> shard_counts = {1, 2, 4, 8};
  core::OverflowPolicy overflow = core::OverflowPolicy::kBlock;
  size_t queue_capacity = 4096;
  /// Worker drain batch size (0 keeps the ShardedEngine default).
  size_t batch_size = 0;
  /// Base per-engine configuration. time_stages is forced off (wall-clock
  /// histograms can never be equal) and the home scope is left as given.
  core::EngineConfig engine;
  /// Optional ruleset override, called once per engine instance (the single
  /// engine and every shard of every sharded engine) before any traffic.
  /// Leave empty to keep the built-in C++ ruleset. DSL parity tests use
  /// this to prove compiled rules are topology-invariant too.
  std::function<std::vector<core::RulePtr>()> make_rules;
  /// Pcap-replay mode: export the stream to an in-memory pcap file, read it
  /// back, and require (a) byte- and timestamp-identical packets, (b) an
  /// identical alert multiset from a second single engine fed the reimported
  /// stream. The sharded engines then consume the *reimported* stream, so
  /// the whole oracle also proves capture-file replay is losslessly
  /// detection-equivalent. Streams must have non-negative timestamps (the
  /// wire format cannot represent negatives).
  bool pcap_roundtrip = false;
  /// When non-zero, call ShardedEngine::rebalance() every this-many packets
  /// during replay. The rebalancer migrates whole sessions between shards;
  /// the oracle's identical-alert-multiset check then also proves migration
  /// loses no rule/event/trail state.
  size_t rebalance_interval = 0;
  /// Verdict-parity mode: additionally require every sharded engine to emit
  /// the identical (rule, session, action) verdict multiset as the single
  /// engine. Implies route_invite_by_caller on the sharded front-ends so
  /// principal-keyed prevention rules (SPIT graylisting) see a caller's
  /// whole INVITE stream on one shard, exactly as the single engine does.
  /// Pair with an EngineConfig whose enforce mode is kPassive or kInline
  /// and a make_rules that installs a prevention ruleset.
  bool verdict_mode = false;
  /// Fastpath-differential mode: the baseline single engine runs with the
  /// established-flow fast path disabled, an extra single engine and every
  /// sharded engine run with it enabled, and all of them must produce the
  /// identical alert/verdict multisets and detection metric families. This
  /// is the oracle for the fast path's core claim: bypassing steady-state
  /// media never changes what is detected. The two single engines must also
  /// agree on every component-stat mirror counter (is_fastpath_mirror).
  bool fastpath_differential = false;
};

struct DifferentialReport {
  size_t packets = 0;
  size_t single_alerts = 0;
  /// Verdicts the single engine emitted (0 unless verdict_mode).
  size_t single_verdicts = 0;
  /// Human-readable divergence descriptions; empty means the oracle holds.
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string to_string() const;
};

/// Feed `stream` through one single-threaded engine and one ShardedEngine
/// per configured shard count, all built from the same EngineConfig, and
/// compare:
///   - the (rule, session) alert multiset (always);
///   - the (rule, session, action) verdict multiset (verdict_mode);
///   - the accounting identity seen == filtered + dropped + shard-seen
///     (always);
///   - the detection metric families — events, events by type, alerts,
///     per-rule alerts, and parse errors excluding the ipv4 axis — when the
///     run was lossless (reassembly placement differs between the two
///     topologies, so packet/fragment counters are out of scope by design).
DifferentialReport run_differential(const std::vector<pkt::Packet>& stream,
                                    const DifferentialConfig& config = {});

/// A component-stat mirror counter (scidive_distiller_*, scidive_trail_*,
/// scidive_trails_*, scidive_eventgen_*, scidive_monitors_*). The engine adds
/// the packets its fast path bypassed back into these at snapshot time, as
/// the distilled, routed and processed packets they stand for, so they read
/// the same with the fast path on and off.
bool is_fastpath_mirror(const obs::Sample& sample);

}  // namespace scidive::fuzz
