// Failure injection and awkward conditions for the full IDS pipeline.
#include <gtest/gtest.h>

#include "capture/carrier_mix.h"
#include "pkt/fragment.h"
#include "rtp/rtp.h"
#include "scidive/engine.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using voip::testing::VoipFixture;

struct EdgeFixture : VoipFixture {
  ScidiveEngine ids;
  explicit EdgeFixture() : ids(config()) { net.add_tap(ids.tap()); }
  static EngineConfig config() {
    EngineConfig c;
    c.home_addresses = {pkt::Ipv4Address(10, 0, 0, 1)};
    return c;
  }
};

TEST(EngineEdge, ColdStartMidCallStaysQuiet) {
  // IDS deployed while a call is already up: it sees RTP with no signaling
  // context. That must not produce alerts (unknown flows are unknown, not
  // hostile).
  VoipFixture f;
  std::string call_id = f.establish_call(sec(2));
  // Attach the IDS only now.
  EngineConfig config;
  config.home_addresses = {f.a_host.address()};
  ScidiveEngine late_ids(config);
  f.net.add_tap(late_ids.tap());
  f.sim.run_until(f.sim.now() + sec(3));
  EXPECT_GT(late_ids.stats().packets_inspected, 100u);
  EXPECT_EQ(late_ids.alerts().count(), 0u)
      << late_ids.alerts().alerts()[0].to_string();
  // The orphan-media machinery never armed (no BYE seen), legit teardown
  // after cold start is also clean.
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(late_ids.alerts().count(), 0u);
}

TEST(EngineEdge, FragmentedForgedByeStillDetected) {
  // The forged BYE is padded so it fragments at the attacker's 256-byte
  // MTU; the Distiller must reassemble and the rule must still fire.
  EdgeFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));
  auto call = sniffer.latest_active_call();
  ASSERT_TRUE(call.has_value());

  // Build the forged BYE by hand with a bulky body, fragment it, inject.
  auto bye = sip::SipMessage::request(
      sip::Method::kBye, sip::SipUri("alice", "10.0.0.1", 5060));
  bye.headers().add("Via", "SIP/2.0/UDP 10.0.0.2:5060;branch=z9hG4bK-frag");
  bye.headers().add("From", "<sip:bob@lab.net>;tag=" + call->callee_tag);
  bye.headers().add("To", "<sip:alice@lab.net>;tag=" + call->caller_tag);
  bye.headers().add("Call-ID", call->call_id);
  bye.headers().add("CSeq", str::format("%u BYE", call->last_caller_cseq + 100));
  bye.set_body(std::string(800, 'x'), "text/plain");  // force fragmentation
  auto packet = pkt::make_udp_packet(call->callee_sip, call->caller_sip,
                                     from_string(bye.to_string()));
  auto frags = pkt::fragment_ipv4(packet.data, 256).value();
  ASSERT_GT(frags.size(), 2u);
  for (auto& frag : frags) {
    pkt::Packet p;
    p.data = std::move(frag);
    f.net.inject(std::move(p), netsim::LinkConfig{});
  }
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_GE(f.ids.alerts().count_for_rule("bye-attack"), 1u);
  EXPECT_GT(f.ids.distiller().stats().fragments_held, 0u);
}

TEST(EngineEdge, DuplicatedPacketsNoFalseAlarms) {
  // A hub that duplicates every packet (broken NIC, monitoring span):
  // duplicates must not fabricate seq jumps or duplicate-session chaos.
  VoipFixture f;
  EngineConfig config;
  config.home_addresses = {f.a_host.address()};
  ScidiveEngine ids(config);
  f.net.add_tap([&ids](const pkt::Packet& p) {
    ids.on_packet(p);
    ids.on_packet(p);  // duplicate delivery
  });
  std::string call_id = f.establish_call(sec(3));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(ids.alerts().count(), 0u) << ids.alerts().alerts()[0].to_string();
}

TEST(EngineEdge, ReorderedCallSetupTolerated) {
  // Feed a 200 OK before its INVITE (extreme reordering): the engine must
  // not crash and must recover when the INVITE arrives.
  ScidiveEngine engine;
  auto invite = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
  invite.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-ooo");
  invite.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  invite.headers().add("To", "<sip:bob@lab.net>");
  invite.headers().add("Call-ID", "ooo-call");
  invite.headers().add("CSeq", "1 INVITE");
  invite.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  invite.set_body(sip::make_audio_sdp("10.0.0.1", 16384, 1).to_string(), "application/sdp");
  auto ok = sip::SipMessage::response(200, "OK");
  for (const char* h : {"Via", "From", "Call-ID", "CSeq"})
    ok.headers().add(h, std::string(*invite.headers().get(h)));
  ok.headers().add("To", "<sip:bob@lab.net>;tag=tb");
  ok.set_body(sip::make_audio_sdp("10.0.0.2", 16384, 2).to_string(), "application/sdp");

  pkt::Endpoint a{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint b{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  auto ok_pkt = pkt::make_udp_packet(b, a, from_string(ok.to_string()));
  ok_pkt.timestamp = msec(1);
  engine.on_packet(ok_pkt);
  auto invite_pkt = pkt::make_udp_packet(a, b, from_string(invite.to_string()));
  invite_pkt.timestamp = msec(2);
  engine.on_packet(invite_pkt);
  EXPECT_EQ(engine.alerts().count(), 0u);
  EXPECT_NE(engine.trails().find("ooo-call", Protocol::kSip), nullptr);
  EXPECT_EQ(engine.trails().find("ooo-call", Protocol::kSip)->size(), 2u);
}

TEST(EngineEdge, TruncatedAndOverlappingFragmentsSurvive) {
  ScidiveEngine engine;
  // Teardrop-style: overlapping fragments of a UDP datagram.
  pkt::Endpoint a{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint b{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  auto whole = pkt::make_udp_packet(a, b, Bytes(600, 0x41));
  auto frags = pkt::fragment_ipv4(whole.data, 256).value();
  ASSERT_GE(frags.size(), 3u);
  // Feed fragment 0 twice, skip 1, feed 2 -> never completes, never crashes.
  for (const Bytes* data : {&frags[0], &frags[0], &frags[2]}) {
    pkt::Packet p;
    p.data = *data;
    p.timestamp = msec(1);
    engine.on_packet(p);
  }
  EXPECT_EQ(engine.stats().packets_seen, 3u);
  EXPECT_EQ(engine.alerts().count(), 0u);
}

TEST(EngineEdge, ExpiredStateDoesNotResurrect) {
  EdgeFixture f;
  std::string call_id = f.establish_call(sec(2));
  f.ids.expire_idle(f.sim.now() + sec(100));  // nuke all IDS state mid-call
  EXPECT_EQ(f.ids.trails().trail_count(), 0u);
  // Traffic continues; the IDS rebuilds flow-level state without alarms.
  f.sim.run_until(f.sim.now() + sec(2));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.ids.alerts().count(), 0u);
  EXPECT_GT(f.ids.trails().trail_count(), 0u);
}

TEST(EngineEdge, ExpiryDropsMediaBindingsOfExpiredSessions) {
  ScidiveEngine engine;
  capture::CarrierMixConfig mix;
  mix.seed = 1;
  mix.max_packets = 500'000;
  capture::CarrierMixSource source(mix);
  engine.run(source);
  const SimTime end = source.now();

  // Remember one bound media endpoint and the call it belongs to.
  std::optional<pkt::Endpoint> stale;
  SessionId call;
  for (const SessionId& session : engine.trails().sessions()) {
    std::vector<pkt::Endpoint> media = engine.trails().media_endpoints(session);
    if (!media.empty()) {
      stale = media.front();
      call = session;
      break;
    }
  }
  ASSERT_TRUE(stale.has_value());
  ASSERT_GT(engine.trails().media_binding_count(), 0u);

  engine.expire_idle(end + sec(1));
  EXPECT_EQ(engine.trails().session_count(), 0u);
  EXPECT_EQ(engine.trails().media_binding_count(), 0u);
  EXPECT_EQ(engine.metrics_snapshot().gauge_value("scidive_media_bindings"), 0);

  // RTP to the stale endpoint now opens an unsignaled flow session; it
  // must not re-create the expired call.
  rtp::RtpHeader h;
  h.sequence = 1;
  h.ssrc = 0x57a1e;
  pkt::Packet p = pkt::make_udp_packet({pkt::Ipv4Address(10, 200, 0, 1), 20000}, *stale,
                                       rtp::serialize_rtp(h, Bytes(160, 0xd5)));
  p.timestamp = end + sec(2);
  engine.on_packet(p);
  const std::vector<SessionId> sessions = engine.trails().sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions.front().rfind("flow:", 0), 0u) << sessions.front();
  EXPECT_FALSE(engine.trails().has_session(call));
}

}  // namespace
}  // namespace scidive::core
