// Fastpath-on vs fastpath-off differential oracle: the established-flow
// fast path bypasses the full pipeline for steady-state media, and this
// suite proves the bypass changes nothing observable — identical alert and
// verdict multisets and identical detection metric families, from a
// fastpath-off single engine, a fastpath-on single engine, and fastpath-on
// ShardedEngines at 1/2/4/8 workers, across every Table-1 attack scenario,
// billing fraud, SPIT and plain carrier-mix traffic.
#include <gtest/gtest.h>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "scidive/distiller.h"
#include "scidive/engine.h"
#include "scidive/rules.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::fuzz {
namespace {

using voip::testing::VoipFixture;

DifferentialConfig fastpath_config() {
  DifferentialConfig config;
  config.fastpath_differential = true;
  config.shard_counts = {1, 2, 4, 8};
  return config;
}

/// Run a scenario against a tapped VoipFixture and return the capture.
template <typename Scenario>
std::vector<pkt::Packet> captured(Scenario&& run) {
  VoipFixture f;
  std::vector<pkt::Packet> capture;
  f.net.add_tap([&](const pkt::Packet& p) { capture.push_back(p); });
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  run(f, sniffer);
  return capture;
}

/// Packets a fastpath-on single engine actually bypassed — used to prove a
/// scenario exercises the fast path (an oracle over a stream that never
/// bypasses is vacuous).
uint64_t bypassed_on(const std::vector<pkt::Packet>& stream) {
  core::EngineConfig config;
  config.obs.time_stages = false;
  core::ScidiveEngine engine(config);
  for (const pkt::Packet& p : stream) engine.on_packet(p);
  return engine.fastpath_bypassed();
}

/// Packets of the stream that distill as RTP: the traffic the fast path
/// exists to bypass.
uint64_t rtp_packets(const std::vector<pkt::Packet>& stream) {
  core::Distiller distiller;
  uint64_t rtp = 0;
  for (const pkt::Packet& p : stream) {
    auto fp = distiller.distill(p);
    if (fp && fp->protocol == core::Protocol::kRtp) ++rtp;
  }
  return rtp;
}

TEST(FastpathDifferential, ByeAttackStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer& sniffer) {
    f.establish_call(sec(3));
    voip::ByeAttacker attacker(f.attacker_host);
    attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
    f.sim.run_until(f.sim.now() + sec(1));
  });
  ASSERT_GT(stream.size(), 50u);
  EXPECT_GT(bypassed_on(stream), 0u) << "steady media should engage the fast path";
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_alerts, 1u) << "BYE attack should alert";
}

TEST(FastpathDifferential, FakeImStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer&) {
    f.register_both();
    f.b.add_contact(f.a.aor(), f.a.sip_endpoint());
    f.b.send_im("alice", "lunch at noon? - bob");
    f.sim.run_until(f.sim.now() + sec(1));
    voip::FakeImAttacker attacker(f.attacker_host);
    attacker.send(f.a.sip_endpoint(), f.b.aor(), "click this link immediately");
    f.sim.run_until(f.sim.now() + sec(1));
  });
  ASSERT_GT(stream.size(), 5u);
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_alerts, 1u) << "fake IM should alert";
}

TEST(FastpathDifferential, CallHijackStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer& sniffer) {
    f.establish_call(sec(3));
    voip::CallHijacker hijacker(f.attacker_host);
    hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 17000},
                    /*attack_caller=*/true);
    f.sim.run_until(f.sim.now() + sec(1));
  });
  ASSERT_GT(stream.size(), 50u);
  EXPECT_GT(bypassed_on(stream), 0u);
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_alerts, 1u) << "hijack should alert";
}

TEST(FastpathDifferential, RtpFloodStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer&) {
    f.establish_call(sec(3));
    voip::RtpInjector injector(f.attacker_host, /*seed=*/11);
    injector.start({f.a_host.address(), f.a.config().rtp_port}, {.count = 30});
    f.sim.run_until(f.sim.now() + sec(2));
  });
  ASSERT_GT(stream.size(), 50u);
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_alerts, 1u) << "RTP flood should alert";
}

TEST(FastpathDifferential, RtcpByeStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer& sniffer) {
    f.establish_call(sec(3));
    voip::RtcpByeForger forger(f.attacker_host);
    forger.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
    f.sim.run_until(f.sim.now() + sec(1));
  });
  ASSERT_GT(stream.size(), 50u);
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FastpathDifferential, BillingFraudStream) {
  const auto stream = captured([](VoipFixture& f, voip::CallSniffer&) {
    f.proxy.set_billing_identity_bug(true);
    f.register_both();
    voip::BillingFraudster fraudster(f.attacker_host, {f.proxy_host.address(), 5060},
                                     "lab.net");
    fraudster.place_fraudulent_call("bob", "alice@lab.net");
    f.sim.run_until(f.sim.now() + sec(3));
  });
  ASSERT_GT(stream.size(), 10u);
  // Shard count pinned to 1: the billing-fraud rule correlates ACC records
  // with SIP dialogs, and at higher shard counts those can hash to
  // different shards — a sharding property independent of (and unchanged
  // by) the fast path this oracle is about.
  DifferentialConfig config = fastpath_config();
  config.shard_counts = {1};
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_alerts, 1u) << "billing fraud should alert";
}

TEST(FastpathDifferential, SpitMixWithVerdictParity) {
  capture::CarrierMixConfig mix;
  mix.seed = 0xfa57;
  mix.provisioned_users = 200;
  mix.call_rate_hz = 3.0;
  mix.mean_call_hold_sec = 4.0;
  mix.rtp_interval = msec(40);
  mix.spit_callers = 2;
  mix.spit_call_rate_hz = 6.0;
  mix.spit_hold = msec(300);
  mix.max_packets = 3000;
  capture::CarrierMixSource source(mix);
  const std::vector<pkt::Packet> stream = capture::read_all(source);
  ASSERT_GT(stream.size(), 1000u);

  DifferentialConfig config = fastpath_config();
  config.verdict_mode = true;
  config.engine.enforce.mode = core::EnforcementMode::kPassive;
  config.make_rules = [] {
    core::RulesConfig rc;
    rc.spit_graylist = true;
    return core::make_prevention_ruleset(rc);
  };
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.single_verdicts, 2u) << "both spammers should be graylisted";
}

TEST(FastpathDifferential, CarrierMixStream) {
  capture::CarrierMixConfig mix;
  mix.seed = 0xca44;
  mix.provisioned_users = 300;
  mix.call_rate_hz = 4.0;
  mix.mean_call_hold_sec = 5.0;
  mix.rtp_interval = msec(30);
  mix.max_packets = 4000;
  capture::CarrierMixSource source(mix);
  const std::vector<pkt::Packet> stream = capture::read_all(source);
  ASSERT_GT(stream.size(), 1000u);
  // One call's SDP or BYE invalidates only that call's flows, so steady
  // carrier media stays cached while other calls come and go.
  EXPECT_GE(bypassed_on(stream) * 10, rtp_packets(stream) * 8)
      << "carrier media should mostly bypass";
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FastpathDifferential, AdversarialStream) {
  StreamConfig stream_config;
  const std::vector<pkt::Packet> stream = adversarial_stream(0xfa57d1ff, stream_config);
  ASSERT_GT(stream.size(), 100u);
  DifferentialReport report = run_differential(stream, fastpath_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FastpathDifferential, RebalancingMidReplay) {
  // Rebalance-driven session migration while flows are being bypassed:
  // extract/install flush the shard's cache, and the oracle proves the
  // written-back microstate is exact.
  capture::CarrierMixConfig mix;
  mix.seed = 0xfa58;
  mix.provisioned_users = 200;
  mix.call_rate_hz = 3.0;
  mix.mean_call_hold_sec = 4.0;
  mix.rtp_interval = msec(40);
  mix.max_packets = 3000;
  capture::CarrierMixSource source(mix);
  const std::vector<pkt::Packet> stream = capture::read_all(source);
  DifferentialConfig config = fastpath_config();
  config.shard_counts = {2, 4};
  config.rebalance_interval = 400;
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace scidive::fuzz
