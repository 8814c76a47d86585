// Fleet integration: FleetNodes gossiping SEP-v2 over real simulated UDP
// (vouch-or-flag attribution, fail-open on a severed control channel,
// legacy SEP1 compat), fleet-wide correlation across the slot partition,
// and cross-node verdict screening — a principal graylisted on one node is
// rate-limited on every other.
#include <gtest/gtest.h>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "fleet/fleet.h"
#include "fleet/udp_transport.h"
#include "pkt/ipv4.h"
#include "scidive/enforce.h"
#include "scidive/rules.h"
#include "sip/auth.h"
#include "sip/message.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::fleet {
namespace {

using voip::testing::VoipFixture;

FleetNodeConfig node_config(const std::string& name) {
  FleetNodeConfig config;
  config.name = name;
  config.engine.num_shards = 1;
  config.engine.engine.obs.time_stages = false;
  return config;
}

/// Deliver only the packets touching `watch` to the node — the per-client
/// deployment of Figure 4, one IDS beside each monitored host.
netsim::PacketTap node_tap(FleetNode& node, pkt::Ipv4Address watch) {
  return [&node, watch](const pkt::Packet& packet) {
    auto ip = pkt::parse_ipv4(packet.data);
    if (!ip.ok()) return;
    if (ip.value().header.src != watch && ip.value().header.dst != watch) return;
    pkt::Packet copy = packet;
    node.on_packet_to_slot(0, std::move(copy));
  };
}

size_t rule_count(const FleetNode& node, std::string_view rule) {
  size_t n = 0;
  for (const core::Alert& alert : node.engine().merged_alerts()) {
    if (alert.rule == rule) ++n;
  }
  return n;
}

/// Two-node fleet on the shared VoIP topology: ids-a watches alice's host,
/// ids-b watches bob's, gossip rides UDP datagrams on kFleetPort.
struct FleetNetFixture : VoipFixture {
  netsim::Host ids_a_host{"ids-a", pkt::Ipv4Address(10, 0, 0, 10), net};
  netsim::Host ids_b_host{"ids-b", pkt::Ipv4Address(10, 0, 0, 11), net};
  FleetNode node_a{node_config("ids-a")};
  FleetNode node_b{node_config("ids-b")};
  UdpGossipLink link_a{ids_a_host, node_a};
  UdpGossipLink link_b{ids_b_host, node_b};

  FleetNetFixture() {
    const netsim::LinkConfig link{.delay = DelayModel::fixed(msec(1))};
    net.attach(ids_a_host, link);
    net.attach(ids_b_host, link);
    net.add_tap(node_tap(node_a, a_host.address()));
    net.add_tap(node_tap(node_b, b_host.address()));
    node_a.add_peer("ids-b");
    node_b.add_peer("ids-a");
    node_a.add_peer_user("bob@lab.net");
    node_b.add_peer_user("alice@lab.net");
    node_a.attach_local_agent(a);
    node_b.attach_local_agent(b);
    link_a.add_peer("ids-b", {ids_b_host.address(), kFleetPort});
    link_b.add_peer("ids-a", {ids_a_host.address(), kFleetPort});
    link_a.start();
    link_b.start();
  }

  /// Quiesce both engines so merged_alerts()/stats() are safe to read.
  void settle() {
    node_a.pump(sim.now());
    node_b.pump(sim.now());
  }
};

TEST(FleetNet, GenuineHangupIsVouchedAndSilent) {
  FleetNetFixture f;
  const std::string call_id = f.establish_call(sec(2));
  f.b.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  // ids-a held bob's BYE for his own IDS's vouch; the vouch arrived.
  EXPECT_GE(f.node_a.stats().claims_held, 1u);
  EXPECT_GE(f.node_a.stats().claims_confirmed, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_GE(f.node_a.stats().vouches_received, 1u);
  EXPECT_GE(f.node_b.stats().vouches_sent, 1u);
  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 0u);
}

TEST(FleetNet, ForgedByeIsFlaggedBySpoofAttribution) {
  FleetNetFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));

  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  // The BYE claims bob, but bob's own IDS never vouched a hangup: forged.
  EXPECT_GE(f.node_a.stats().claims_flagged, 1u);
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 1u);
  EXPECT_EQ(rule_count(f.node_b, FleetNode::kFleetSpoofedByeRule), 0u);
}

TEST(FleetNet, GenuineMediaMigrationIsVouched) {
  FleetNetFixture f;
  const std::string call_id = f.establish_call(sec(2));
  f.b.migrate_media(call_id, {f.b_host.address(), 40000});
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_GE(f.node_a.stats().claims_confirmed, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedReinviteRule), 0u);
}

TEST(FleetNet, HijackReinviteIsFlagged) {
  FleetNetFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));

  voip::CallHijacker hijacker(f.attacker_host);
  hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 46000},
                  /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_GE(f.node_a.stats().claims_flagged, 1u);
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetSpoofedReinviteRule), 1u);
}

TEST(FleetNet, FailsOpenWhenGossipChannelIsSevered) {
  FleetNetFixture f;
  // The peer IDS's uplink loses everything: no heartbeat, no vouch ever
  // reaches ids-a. Held claims must be skipped (counted), not flagged — a
  // dead control channel must not convert every hangup into an alarm.
  f.net.set_link(f.ids_b_host, netsim::LinkConfig{.loss = 1.0});

  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 0u);
  EXPECT_GE(f.node_a.stats().claims_skipped_peer_down, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
}

TEST(FleetNet, GarbageAndLegacyDatagramsAreCounted) {
  FleetNetFixture f;
  // Garbage in both format families, plus one genuine SEP1 line from a
  // pre-fleet CooperativeIds peer: strict rejection for the former, compat
  // decode (with the deprecation meter ticking) for the latter.
  f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort},
                           std::string_view("SEP2 but truncated"));
  f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort},
                           std::string_view("not sep at all"));
  core::Event orphan;
  orphan.type = core::EventType::kRtpAfterBye;
  orphan.session = "legacy-call-1";
  orphan.time = msec(10);
  orphan.aor = "bob@lab.net";
  f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort},
                           serialize_event("ids-old", orphan));
  f.sim.run_until(sec(1));
  f.settle();

  const FleetNodeStats stats = f.node_a.stats();
  EXPECT_EQ(stats.parse_errors_sep2, 1u);
  EXPECT_EQ(stats.parse_errors_sep1, 1u);
  EXPECT_GE(stats.legacy_frames, 1u);
  EXPECT_GE(stats.events_received, 1u);
}

TEST(FleetCorrelation, RegisterFloodAggregatesAcrossNodes) {
  VoipFixture f;
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 64;
  Fleet fleet(fc, {"node-0", "node-1"});
  f.net.add_tap(fleet.tap());

  // Four flood identities from one source, six REGISTERs each: four
  // distinct Call-IDs scatter over the slot space, so no single node sees
  // the whole 24 — only the fleet-wide merge crosses the threshold of 20.
  std::vector<std::unique_ptr<voip::RegisterFlooder>> flooders;
  for (const char* user : {"eve-a", "eve-b", "eve-c", "eve-d"}) {
    flooders.push_back(std::make_unique<voip::RegisterFlooder>(
        f.attacker_host, pkt::Endpoint{f.proxy_host.address(), 5060}, user, "lab.net",
        static_cast<uint16_t>(5080 + flooders.size())));
  }
  for (auto& flooder : flooders) flooder->start(6, msec(40));
  f.sim.run_until(sec(2));
  fleet.flush();

  size_t fleet_alerts = 0;
  for (const core::Alert& alert : fleet.merged_alerts()) {
    if (alert.rule == kFleetRegisterFloodRule) ++fleet_alerts;
  }
  EXPECT_EQ(fleet_alerts, 1u) << "the ring owner of the key raises exactly once";

  // The aggregation was genuinely cross-node: both members saw a slice.
  size_t nodes_with_partials = 0;
  uint64_t partials_total = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const CorrelatorStats cs = fleet.node_at(i).correlator().stats();
    partials_total += cs.partials_updated;
    if (cs.partials_updated > 0) ++nodes_with_partials;
  }
  EXPECT_EQ(partials_total, 24u);
  EXPECT_EQ(nodes_with_partials, 2u);
}

TEST(FleetCorrelation, DigestGuessingAggregatesFleetWide) {
  VoipFixture f(/*require_auth=*/true);
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 64;
  Fleet fleet(fc, {"node-0", "node-1"});
  f.net.add_tap(fleet.tap());

  // Two guessing runs with distinct Call-IDs: each node sees one slice of
  // the auth failures; the merged count crosses the fleet threshold of 8.
  voip::PasswordGuesser g1(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                           "lab.net", 5090);
  voip::PasswordGuesser g2(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                           "lab.net", 5091);
  g1.start({"pw-1", "pw-2", "pw-3", "pw-4", "pw-5", "pw-6"}, msec(60));
  g2.start({"pw-7", "pw-8", "pw-9", "pw-10", "pw-11", "pw-12"}, msec(60));
  f.sim.run_until(sec(3));
  fleet.flush();

  size_t fleet_alerts = 0;
  for (const core::Alert& alert : fleet.merged_alerts()) {
    if (alert.rule == kFleetDigestGuessRule) ++fleet_alerts;
  }
  EXPECT_EQ(fleet_alerts, 1u);
}

/// One benign failed login: `user` REGISTERs from `client`, is challenged,
/// answers with a wrong password and is refused again — four packets, one
/// SipAuthFailure.
std::vector<pkt::Packet> failed_registration(const std::string& user, pkt::Endpoint client,
                                             SimTime at) {
  const pkt::Endpoint registrar{pkt::Ipv4Address(192, 168, 0, 1), 5060};
  const sip::DigestChallenge challenge{"carrier.example", "nonce-" + user};
  const std::string aor = "<sip:" + user + "@carrier.example>";
  auto message = [&](sip::SipMessage msg, uint32_t cseq) {
    msg.headers().add("Via", "SIP/2.0/UDP " + client.to_string() + ";branch=z9hG4bK-" + user +
                                 "-" + std::to_string(cseq));
    msg.headers().add("From", aor + ";tag=" + user);
    msg.headers().add("To", aor);
    msg.headers().add("Call-ID", "reg-" + user);
    msg.headers().add("CSeq", std::to_string(cseq) + " REGISTER");
    return msg;
  };
  auto packet = [&](pkt::Endpoint src, pkt::Endpoint dst, const sip::SipMessage& msg,
                    SimTime t) {
    const std::string text = msg.to_string();
    pkt::Packet p = pkt::make_udp_packet(src, dst, Bytes(text.begin(), text.end()));
    p.timestamp = t;
    return p;
  };
  auto challenged = [&](uint32_t cseq) {
    auto rsp = message(sip::SipMessage::response(401, "Unauthorized"), cseq);
    rsp.headers().add("WWW-Authenticate", challenge.to_header_value());
    return rsp;
  };
  auto retry = message(
      sip::SipMessage::request(sip::Method::kRegister, sip::SipUri("", "carrier.example")), 2);
  retry.headers().add(
      "Authorization",
      sip::answer_challenge(challenge, user, "wrong-password", "REGISTER", "sip:carrier.example")
          .to_header_value());
  return {packet(client, registrar,
                 message(sip::SipMessage::request(sip::Method::kRegister,
                                                  sip::SipUri("", "carrier.example")),
                         1),
                 at),
          packet(registrar, client, challenged(1), at + msec(5)),
          packet(client, registrar, retry, at + msec(10)),
          packet(registrar, client, challenged(2), at + msec(15))};
}

size_t fleet_digest_alerts(const std::vector<pkt::Packet>& stream) {
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  Fleet fleet(fc, {"node-0", "node-1"});
  for (const pkt::Packet& p : stream) fleet.on_packet(p);
  fleet.flush();
  size_t alerts = 0;
  for (const core::Alert& alert : fleet.merged_alerts()) {
    if (alert.rule == kFleetDigestGuessRule) ++alerts;
  }
  return alerts;
}

TEST(FleetCorrelation, BenignFailuresOfDistinctUsersDoNotSum) {
  // Eight users on eight hosts each fail one login within one window. The
  // registrar answered every failure, but digest guessing is keyed by the
  // client whose credentials failed, so no source reaches the threshold.
  std::vector<pkt::Packet> stream;
  for (uint8_t k = 1; k <= 8; ++k) {
    for (pkt::Packet& p : failed_registration("user" + std::to_string(k),
                                              {pkt::Ipv4Address(10, 255, 255, k), 5060},
                                              msec(100) * k)) {
      stream.push_back(std::move(p));
    }
  }
  EXPECT_EQ(fleet_digest_alerts(stream), 0u);

  // The same eight failures from one client are a guessing run.
  stream.clear();
  for (uint8_t k = 1; k <= 8; ++k) {
    for (pkt::Packet& p : failed_registration("user" + std::to_string(k),
                                              {pkt::Ipv4Address(10, 255, 255, 1), 5060},
                                              msec(100) * k)) {
      stream.push_back(std::move(p));
    }
  }
  EXPECT_EQ(fleet_digest_alerts(stream), 1u);
}

TEST(FleetScreening, VerdictOnOneNodeScreensThePrincipalOnAll) {
  // SPIT carrier mix through a two-node inline fleet: whichever node's
  // graylist rule convicts the spammer, the verdict gossips and every other
  // node's enforcer arms the same principal key — the spammer is screened
  // fleet-wide, not just where the evidence happened to land.
  capture::CarrierMixConfig mix;
  mix.seed = 0x5b17;
  mix.provisioned_users = 200;
  mix.call_rate_hz = 3.0;
  mix.im_rate_hz = 2.0;
  mix.register_rate_hz = 3.0;
  mix.mean_call_hold_sec = 4.0;
  mix.rtp_interval = msec(40);
  mix.spit_callers = 2;
  mix.spit_call_rate_hz = 6.0;
  mix.spit_hold = msec(300);
  mix.max_packets = 3000;
  capture::CarrierMixSource source(mix);

  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.route_invite_by_caller = true;
  fc.node.engine.engine.obs.time_stages = false;
  fc.node.engine.engine.enforce.mode = core::EnforcementMode::kInline;
  fc.pump_every_packets = 256;
  Fleet fleet(fc, {"node-0", "node-1"});
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet.node_at(i).engine().set_rules([](size_t) {
      core::RulesConfig rc;
      rc.spit_graylist = true;
      return core::make_prevention_ruleset(rc);
    });
  }
  fleet.run(source);

  size_t screened = 0;
  for (const core::Verdict& v : fleet.merged_verdicts()) {
    if (v.action != core::VerdictAction::kRateLimit || v.aor.empty()) continue;
    ++screened;
    for (size_t i = 0; i < fleet.size(); ++i) {
      core::Enforcer* enforcer = fleet.node_at(i).engine().shard(0).enforcer();
      ASSERT_NE(enforcer, nullptr);
      EXPECT_TRUE(enforcer->limiter().armed(core::aor_key(v.aor)))
          << fleet.node_at(i).name() << " never armed " << v.aor;
    }
  }
  EXPECT_GE(screened, 2u) << "both spammers should draw rate-limit verdicts";

  const FleetNodeStats stats = fleet.node_stats();
  EXPECT_GE(stats.verdicts_shared, 1u);
  EXPECT_GE(stats.verdicts_adopted, 1u);
  EXPECT_EQ(stats.gossip_records_dropped, 0u);
}

}  // namespace
}  // namespace scidive::fleet
