// Targeted fast-path invalidation: one call's signaling hands back only the
// cached flows it can affect. An SDP binding of endpoint E drops the flows
// from or to E, a BYE drops the flows of its own session, and every other
// cached flow keeps bypassing. Each test runs a fastpath-on engine beside a
// fastpath-off twin and checks that the microstate written back at the
// invalidation equals what the twin computed packet by packet.
#include <gtest/gtest.h>

#include <string>

#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "scidive/engine.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::core {
namespace {

pkt::Endpoint at(uint8_t host, uint16_t port) {
  return {pkt::Ipv4Address(10, 0, 0, host), port};
}

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// One SIP call between two hosts; the builders produce its packets.
struct Call {
  std::string id;
  pkt::Endpoint caller_sip, callee_sip;
  pkt::Endpoint caller_media, callee_media;
  uint32_t caller_ssrc = 0, callee_ssrc = 0;

  sip::SipMessage dialog(sip::SipMessage msg, const std::string& cseq, bool answered) const {
    msg.headers().add("Via", "SIP/2.0/UDP " + caller_sip.to_string() + ";branch=z9hG4bK-" + id);
    msg.headers().add("From", "<sip:alice-" + id + "@lab.net>;tag=a-" + id);
    msg.headers().add("To", "<sip:bob-" + id + "@lab.net>" + (answered ? ";tag=b-" + id : ""));
    msg.headers().add("Call-ID", id);
    msg.headers().add("CSeq", cseq);
    return msg;
  }
  pkt::Packet invite(SimTime t) const {
    auto msg = dialog(sip::SipMessage::request(sip::Method::kInvite,
                                               sip::SipUri("bob-" + id, "lab.net")),
                      "1 INVITE", false);
    msg.set_body(sip::make_audio_sdp(caller_media.addr.to_string(), caller_media.port, 1)
                     .to_string(),
                 "application/sdp");
    return stamp(pkt::make_udp_packet(caller_sip, callee_sip, to_bytes(msg.to_string())), t);
  }
  pkt::Packet ok(SimTime t) const {
    auto msg = dialog(sip::SipMessage::response(200, "OK"), "1 INVITE", true);
    msg.set_body(sip::make_audio_sdp(callee_media.addr.to_string(), callee_media.port, 2)
                     .to_string(),
                 "application/sdp");
    return stamp(pkt::make_udp_packet(callee_sip, caller_sip, to_bytes(msg.to_string())), t);
  }
  pkt::Packet bye(SimTime t) const {
    auto msg = dialog(sip::SipMessage::request(sip::Method::kBye,
                                               sip::SipUri("bob-" + id, "lab.net")),
                      "2 BYE", true);
    return stamp(pkt::make_udp_packet(caller_sip, callee_sip, to_bytes(msg.to_string())), t);
  }
  static pkt::Packet stamp(pkt::Packet p, SimTime t) {
    p.timestamp = t;
    return p;
  }
};

pkt::Packet rtp_packet(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc, uint16_t seq,
                       SimTime t) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * rtp::kSamplesPer20Ms;
  h.ssrc = ssrc;
  pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, Bytes(160, 0xd5)));
  p.timestamp = t;
  return p;
}

pkt::Packet rtcp_report(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc, SimTime t) {
  rtp::RtcpReceiverReport rr;
  rr.ssrc = ssrc;
  pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtcp(rr));
  p.timestamp = t;
  return p;
}

/// A fastpath-on engine and its fastpath-off twin fed the same packets.
struct Twin {
  ScidiveEngine on{config(true)};
  ScidiveEngine off{config(false)};
  SimTime now = 0;
  uint16_t seq = 0;

  static EngineConfig config(bool fastpath) {
    EngineConfig c;
    c.obs.time_stages = false;
    c.fastpath.enabled = fastpath;
    return c;
  }

  void feed(const pkt::Packet& p) {
    on.on_packet(p);
    off.on_packet(p);
  }
  SimTime tick() { return now += msec(20); }

  void establish(const Call& call) {
    feed(call.invite(tick()));
    feed(call.ok(tick()));
  }
  /// `n` in-order packets each way (each direction has its own SSRC).
  void media(const Call& call, int n) {
    for (int i = 0; i < n; ++i) {
      ++seq;
      const SimTime t = tick();
      feed(rtp_packet(call.caller_media, call.callee_media, call.caller_ssrc, seq, t));
      feed(rtp_packet(call.callee_media, call.caller_media, call.callee_ssrc, seq, t));
    }
  }
  /// Feed the next packet from `src` to `dst`; true when the on-engine
  /// bypassed it.
  bool next_bypassed(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc) {
    const uint64_t before = on.fastpath_bypassed();
    feed(rtp_packet(src, dst, ssrc, ++seq, tick()));
    return on.fastpath_bypassed() == before + 1;
  }

  uint64_t drops(const std::string& reason) {
    return on.metrics_snapshot().counter_value(
        "scidive_fastpath_invalidations_by_reason_total", {{"reason", reason}});
  }
};

/// The on-engine's written-back state for the flow src -> dst of `session`
/// equals the twin's: the RTP trail's footprint accounting and the event
/// generator's sequence and jitter microstate.
void expect_same_flow_state(const Twin& twin, const std::string& session, pkt::Endpoint src,
                            pkt::Endpoint dst) {
  SCOPED_TRACE(session + " " + src.to_string() + " -> " + dst.to_string());
  const Trail* on_trail = twin.on.trails().find(session, Protocol::kRtp);
  const Trail* off_trail = twin.off.trails().find(session, Protocol::kRtp);
  ASSERT_NE(on_trail, nullptr);
  ASSERT_NE(off_trail, nullptr);
  EXPECT_EQ(on_trail->total_appended(), off_trail->total_appended());
  EXPECT_EQ(on_trail->last_time(), off_trail->last_time());

  auto state_of = [&](const ScidiveEngine& engine) {
    auto sym = engine.trails().symbols().find(session);
    return sym ? engine.events().find_state(*sym) : nullptr;
  };
  const EventGenerator::SessionState* on_state = state_of(twin.on);
  const EventGenerator::SessionState* off_state = state_of(twin.off);
  ASSERT_NE(on_state, nullptr);
  ASSERT_NE(off_state, nullptr);
  EXPECT_EQ(on_state->last_touched, off_state->last_touched);
  const uint16_t* on_seq = on_state->last_seq_by_dst.find(dst);
  const uint16_t* off_seq = off_state->last_seq_by_dst.find(dst);
  ASSERT_NE(on_seq, nullptr);
  ASSERT_NE(off_seq, nullptr);
  EXPECT_EQ(*on_seq, *off_seq);
  const rtp::RtpStreamStats* on_stats = on_state->stats_by_src.find(src);
  const rtp::RtpStreamStats* off_stats = off_state->stats_by_src.find(src);
  ASSERT_NE(on_stats, nullptr);
  ASSERT_NE(off_stats, nullptr);
  EXPECT_EQ(on_stats->packets_received(), off_stats->packets_received());
  EXPECT_EQ(on_stats->extended_highest_seq(), off_stats->extended_highest_seq());
  EXPECT_EQ(on_stats->cumulative_lost(), off_stats->cumulative_lost());
  EXPECT_EQ(on_stats->jitter(), off_stats->jitter());
}

void expect_same_detection(const Twin& twin) {
  ASSERT_EQ(twin.on.alerts().count(), twin.off.alerts().count());
  for (size_t i = 0; i < twin.on.alerts().count(); ++i) {
    EXPECT_EQ(twin.on.alerts().alerts()[i].to_string(), twin.off.alerts().alerts()[i].to_string());
  }
  EXPECT_EQ(twin.on.stats().events, twin.off.stats().events);
}

// Call B's caller shares call A's caller host: scoping is per endpoint,
// not per address.
const Call kCallA{"call-A", at(1, 5060), at(2, 5060), at(1, 20000), at(2, 20000), 0xa1, 0xa2};
const Call kCallB{"call-B", at(1, 5062), at(3, 5060), at(1, 20002), at(3, 20000), 0xb1, 0xb2};

TEST(FastpathInvalidation, AnotherCallsSdpLeavesCachedFlowCached) {
  Twin twin;
  twin.establish(kCallA);
  twin.media(kCallA, 10);
  ASSERT_EQ(twin.on.fastpath_entries(), 2u) << "both directions of call A are cached";
  const uint64_t invalidations = twin.on.metrics_snapshot().counter_value(
      "scidive_fastpath_invalidations_total", {});

  twin.establish(kCallB);  // binds call B's two media endpoints
  EXPECT_EQ(twin.on.fastpath_entries(), 2u);
  EXPECT_EQ(twin.drops("rebind"), 0u);
  EXPECT_EQ(twin.on.metrics_snapshot().counter_value("scidive_fastpath_invalidations_total", {}),
            invalidations);
  EXPECT_TRUE(twin.next_bypassed(kCallA.caller_media, kCallA.callee_media, kCallA.caller_ssrc));

  // Hand everything back (nothing is old enough to expire) and compare.
  twin.on.expire_idle(0);
  twin.off.expire_idle(0);
  expect_same_flow_state(twin, kCallA.id, kCallA.caller_media, kCallA.callee_media);
  expect_same_flow_state(twin, kCallA.id, kCallA.callee_media, kCallA.caller_media);
  expect_same_detection(twin);
}

TEST(FastpathInvalidation, ByeDropsOnlyItsOwnCallsFlows) {
  Twin twin;
  twin.establish(kCallA);
  twin.establish(kCallB);
  twin.media(kCallA, 10);
  twin.media(kCallB, 10);
  ASSERT_EQ(twin.on.fastpath_entries(), 4u);

  twin.feed(kCallA.bye(twin.tick()));  // arms call A's orphan-media monitor
  EXPECT_EQ(twin.on.fastpath_entries(), 2u);
  EXPECT_EQ(twin.drops("monitor"), 2u);
  // Written back at the BYE, before either engine sees another packet.
  expect_same_flow_state(twin, kCallA.id, kCallA.caller_media, kCallA.callee_media);
  expect_same_flow_state(twin, kCallA.id, kCallA.callee_media, kCallA.caller_media);

  EXPECT_TRUE(twin.next_bypassed(kCallB.caller_media, kCallB.callee_media, kCallB.caller_ssrc));
  // Media from the party that hung up is now evidence: full pipeline, and
  // the same orphan-media alert as the twin.
  EXPECT_FALSE(twin.next_bypassed(kCallA.caller_media, kCallA.callee_media, kCallA.caller_ssrc));
  EXPECT_GE(twin.on.alerts().count_for_rule("bye-attack"), 1u);
  expect_same_detection(twin);
}

TEST(FastpathInvalidation, BindingReroutesCachedUnboundFlowIntoSession) {
  // Media that arrives before its signaling is cached under a synthetic
  // flow session; the SDP that claims its destination must hand it back,
  // and the next packet belongs to the call.
  const Call call{"call-C", at(5, 5060), at(6, 5060), at(5, 40000), at(6, 40000), 0xc1, 0xc2};
  const std::string flow_session = "flow:10.0.0.5:40000->10.0.0.6:40000";
  Twin twin;
  twin.establish(kCallA);
  twin.media(kCallA, 5);
  for (int i = 0; i < 10; ++i) {
    twin.next_bypassed(call.caller_media, call.callee_media, call.caller_ssrc);
  }
  ASSERT_EQ(twin.on.fastpath_entries(), 3u);
  ASSERT_NE(twin.on.trails().find(flow_session, Protocol::kRtp), nullptr);

  twin.feed(call.invite(twin.tick()));  // binds 10.0.0.5:40000, the flow's source
  EXPECT_EQ(twin.drops("rebind"), 1u);
  EXPECT_EQ(twin.on.fastpath_entries(), 2u) << "call A's flows stay cached";
  expect_same_flow_state(twin, flow_session, call.caller_media, call.callee_media);

  EXPECT_FALSE(twin.next_bypassed(call.caller_media, call.callee_media, call.caller_ssrc));
  for (const ScidiveEngine* engine : {&twin.on, &twin.off}) {
    const Trail* in_call = engine->trails().find(call.id, Protocol::kRtp);
    ASSERT_NE(in_call, nullptr) << "the packet must be attributed to the call";
    EXPECT_EQ(in_call->total_appended(), 1u);
  }
  expect_same_flow_state(twin, flow_session, call.caller_media, call.callee_media);
  EXPECT_TRUE(twin.next_bypassed(kCallA.callee_media, kCallA.caller_media, kCallA.callee_ssrc));
  expect_same_detection(twin);
}

TEST(FastpathInvalidation, RtcpOnOddPortFollowsBindingOfEvenPort) {
  // RTCP on E+1 is routed through the binding of E: a flow cached before
  // the binding must re-route into the call once E is bound.
  const Call call{"call-D", at(7, 5060), at(8, 5060), at(7, 50000), at(8, 50000), 0xd1, 0xd2};
  const pkt::Endpoint rtcp_src{call.caller_media.addr, 50001};
  const pkt::Endpoint rtcp_dst{call.callee_media.addr, 50001};
  Twin twin;
  twin.establish(kCallA);
  twin.media(kCallA, 5);
  for (int i = 0; i < 3; ++i) {
    twin.feed(rtcp_report(rtcp_src, rtcp_dst, call.caller_ssrc, twin.tick()));
  }
  ASSERT_EQ(twin.on.trails().find(call.id, Protocol::kRtcp), nullptr);
  const uint64_t route_hits = twin.on.trails().stats().flow_cache_hits;

  twin.feed(call.invite(twin.tick()));  // binds 10.0.0.7:50000
  twin.feed(rtcp_report(rtcp_src, rtcp_dst, call.caller_ssrc, twin.tick()));
  EXPECT_EQ(twin.on.trails().stats().flow_cache_hits, route_hits)
      << "the RTCP route through the new binding must re-classify";
  for (const ScidiveEngine* engine : {&twin.on, &twin.off}) {
    const Trail* rtcp = engine->trails().find(call.id, Protocol::kRtcp);
    ASSERT_NE(rtcp, nullptr) << "RTCP on E+1 must follow the binding of E";
    EXPECT_EQ(rtcp->total_appended(), 1u);
  }
  EXPECT_EQ(twin.on.fastpath_entries(), 2u) << "call A's flows stay cached";

  EXPECT_TRUE(twin.next_bypassed(kCallA.caller_media, kCallA.callee_media, kCallA.caller_ssrc));
  twin.on.expire_idle(0);
  twin.off.expire_idle(0);
  expect_same_flow_state(twin, kCallA.id, kCallA.caller_media, kCallA.callee_media);
  expect_same_flow_state(twin, kCallA.id, kCallA.callee_media, kCallA.caller_media);
  expect_same_detection(twin);
}

}  // namespace
}  // namespace scidive::core
