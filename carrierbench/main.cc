// One round of the carrier-mix benchmark in a fresh process:
//
//   carrierbench --workload <carrier_mix|signaling_spit|fleet_mix> --seed <n>
//                [--trace] [--rulesets <dir>]
//
// Without --trace the round makes the workload's stream from the seed, sets
// up the engine (or fleet) and feeds the stream from memory in a closed loop
// on one thread, timing every call; it prints the end-to-end metrics. With
// --trace it replays the stream layer by layer instead (trace.cc) and prints
// the per-layer metrics. Either way the outputs are checked against the
// ground truth and the last line of standard output is one JSON object.
// run.py repeats rounds and reports their medians.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace.h"
#include "workload.h"

using namespace scidive;
using namespace carrierbench;

namespace {

struct Feed {
  std::vector<uint32_t> call_ns;  // per packet: time of the call
  double wall_s = 0;
  uint64_t cpu_ns = 0;
  double state_mb = 0;
};

// Times every call of `call(i)` over the stream, then `finish()` (inside the
// timed span, outside the per-call samples).
template <typename Call, typename Finish>
Feed feed(size_t n, Call&& call, Finish&& finish) {
  Feed f;
  f.call_ns.assign(n, 0);
  const double rss_before = rss_mb();
  const uint64_t cpu_before = process_cpu_ns();
  const auto start = Clock::now();
  auto t = start;
  for (size_t i = 0; i < n; ++i) {
    call(i);
    const auto next = Clock::now();
    f.call_ns[i] = static_cast<uint32_t>(ns_between(t, next));
    t = next;
  }
  finish();
  f.wall_s = seconds_between(start, Clock::now());
  f.cpu_ns = process_cpu_ns() - cpu_before;
  f.state_mb = rss_mb() - rss_before;
  return f;
}

void report_feed(Feed& f, double setup_s, RoundResult& out) {
  const double n = static_cast<double>(f.call_ns.size());
  out.metric("setup_s", setup_s);
  out.metric("pkts_per_s", n / f.wall_s);
  out.metric("cpu_ns_per_pkt", static_cast<double>(f.cpu_ns) / n);
  out.metric("latency_p50_us", quantile(f.call_ns, 0.50) / 1e3);
  out.metric("latency_p99_us", quantile(f.call_ns, 0.99) / 1e3);
  out.metric("peak_rss_mb", peak_rss_mb());
  out.metric("state_mb", f.state_mb);
  out.info("latency_samples", n);
}

void report_census(const Census& c, RoundResult& out) {
  out.info("packets", static_cast<double>(c.packets));
  out.info("sip_packets", static_cast<double>(c.sip));
  out.info("rtp_packets", static_cast<double>(c.rtp));
  out.info("rtcp_packets", static_cast<double>(c.rtcp));
  out.info("other_packets", static_cast<double>(c.other));
  out.info("sip_sessions", static_cast<double>(c.sip_sessions));
  out.info("spit_invites", static_cast<double>(c.spit_invites));
  out.info("span_s", c.span_s);
}

int untraced_round(Workload w, uint64_t seed, const std::string& rulesets) {
  RoundResult out;
  const auto setup_start = Clock::now();
  std::vector<pkt::Packet> stream = make_stream(w, seed);
  Ruleset rules;
  if (std::string err = rules.load(w, rulesets); !err.empty()) {
    std::fprintf(stderr, "carrierbench: cannot load rulesets: %s\n", err.c_str());
    return 2;
  }
  const size_t n = stream.size();
  if (is_fleet(w)) {
    std::unique_ptr<fleet::Fleet> fleet = make_fleet(w, rules);
    const double setup_s = seconds_between(setup_start, Clock::now());
    Feed f = feed(
        n, [&](size_t i) { fleet->on_packet(stream[i]); }, [&] { fleet->flush(); });
    report_feed(f, setup_s, out);
    check_fleet(*fleet, n, out);
  } else {
    core::ScidiveEngine engine(engine_config(w));
    if (rules.custom()) engine.set_rules(rules.make());
    const double setup_s = seconds_between(setup_start, Clock::now());
    Decisions nonpass;
    Feed f = feed(
        n,
        [&](size_t i) {
          const core::VerdictAction d = engine.on_packet(stream[i]);
          if (d != core::VerdictAction::kPass) nonpass.emplace_back(static_cast<uint32_t>(i), d);
        },
        [] {});
    report_feed(f, setup_s, out);
    const Census census = take_census(stream);
    check_engine(census, stream, engine, nonpass, out);
    report_census(census, out);
    out.info("live_sessions", static_cast<double>(engine.trails().session_count()));
  }
  out.print();
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: carrierbench --workload <carrier_mix|signaling_spit|fleet_mix> "
               "--seed <n> [--trace] [--rulesets <dir>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::optional<uint64_t> seed;
  bool trace = false;
  std::string rulesets = "examples/rulesets";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = parse_workload(argv[++i]);
      if (!workload) usage();
    } else if (i + 1 < argc && arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') usage();
    } else if (i + 1 < argc && arg == "--rulesets") {
      rulesets = argv[++i];
    } else {
      usage();
    }
  }
  if (!workload || !seed) usage();
  return trace ? traced_round(*workload, *seed, rulesets)
               : untraced_round(*workload, *seed, rulesets);
}
