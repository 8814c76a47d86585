#include "scidive/event_generator.h"

#include <gtest/gtest.h>

#include "scidive/scidive_test_util.h"

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

const pkt::Endpoint kASip = ep(1, 5060);
const pkt::Endpoint kBSip = ep(2, 5060);
const pkt::Endpoint kAMedia = ep(1, 16384);
const pkt::Endpoint kBMedia = ep(2, 16384);
const pkt::Endpoint kAttacker = ep(66, 40000);

/// Drive a full call setup into the harness: INVITE(+SDP) then 200(+SDP).
void setup_call(GeneratorHarness& h, const std::string& call_id, SimTime t0 = 0) {
  h.feed(sip_request("INVITE", call_id, "alice@lab.net", "ta", "bob@lab.net", "", t0, kASip,
                     kBSip, kAMedia));
  h.feed(sip_response(200, "INVITE", call_id, "alice@lab.net", "ta", "bob@lab.net", "tb",
                      t0 + msec(100), kBSip, kASip, kBMedia));
}

TEST(EventGenerator, CallSetupEmitsMilestones) {
  GeneratorHarness h;
  setup_call(h, "c1");
  EXPECT_EQ(h.count(EventType::kSipInviteSeen), 1u);
  EXPECT_EQ(h.count(EventType::kSipSessionEstablished), 1u);
  // Media endpoints learned from SDP are bound for cross-protocol lookup.
  EXPECT_EQ(h.trails.session_for_media(kAMedia), "c1");
  EXPECT_EQ(h.trails.session_for_media(kBMedia), "c1");
}

TEST(EventGenerator, ByeEmitsAndArmsMonitor) {
  GeneratorHarness h;
  setup_call(h, "c1");
  auto events = h.feed(sip_request("BYE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta",
                                   msec(500), kBSip, kASip));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kSipByeSeen);
  EXPECT_EQ(events[0].aor, "bob@lab.net");
  EXPECT_EQ(h.generator.stats().monitors_started, 1u);
}

TEST(EventGenerator, OrphanRtpAfterByeFiresWithinWindow) {
  GeneratorHarness h(EventGeneratorConfig{.monitor_window = msec(200)});
  setup_call(h, "c1");
  h.feed(sip_request("BYE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta", msec(500), kBSip,
                     kASip));
  // RTP keeps arriving *from bob's media endpoint* — the orphan flow.
  auto events = h.feed(rtp_packet(100, 7, msec(520), kBMedia, kAMedia));
  bool fired = false;
  for (const auto& e : events) fired |= (e.type == EventType::kRtpAfterBye);
  EXPECT_TRUE(fired);
  const Event* e = h.find(EventType::kRtpAfterBye);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->aor, "bob@lab.net");
  EXPECT_EQ(e->endpoint, kBMedia);
  EXPECT_EQ(e->value, msec(20));  // detection delay carried on the event
}

TEST(EventGenerator, OrphanFiresOnlyOncePerMonitor) {
  GeneratorHarness h;
  setup_call(h, "c1");
  h.feed(sip_request("BYE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta", msec(500), kBSip,
                     kASip));
  h.feed(rtp_packet(100, 7, msec(520), kBMedia, kAMedia));
  h.feed(rtp_packet(101, 7, msec(540), kBMedia, kAMedia));
  h.feed(rtp_packet(102, 7, msec(560), kBMedia, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterBye), 1u);
}

TEST(EventGenerator, NoOrphanEventAfterWindowExpires) {
  GeneratorHarness h(EventGeneratorConfig{.monitor_window = msec(200)});
  setup_call(h, "c1");
  h.feed(sip_request("BYE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta", msec(500), kBSip,
                     kASip));
  // First RTP only arrives 300ms later: outside m — missed (the P_m case).
  h.feed(rtp_packet(100, 7, msec(810), kBMedia, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterBye), 0u);
  EXPECT_EQ(h.generator.stats().monitors_expired, 1u);
}

TEST(EventGenerator, LegitTeardownProducesNoOrphan) {
  GeneratorHarness h;
  setup_call(h, "c1");
  // Media flows during the call.
  for (int i = 0; i < 10; ++i) {
    h.feed(rtp_packet(static_cast<uint16_t>(i), 7, msec(200 + i * 20), kBMedia, kAMedia));
  }
  // Bob hangs up and stops sending: no more RTP from bob.
  h.feed(sip_request("BYE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta", msec(500), kBSip,
                     kASip));
  EXPECT_EQ(h.count(EventType::kRtpAfterBye), 0u);
}

TEST(EventGenerator, ByeWatchesTheClaimedSenderOnly) {
  GeneratorHarness h;
  setup_call(h, "c1");
  // Alice (caller) hangs up; bob's RTP may still be in flight — but the
  // monitor watches *alice's* media, so bob's packets don't fire it.
  h.feed(sip_request("BYE", "c1", "alice@lab.net", "ta", "bob@lab.net", "tb", msec(500), kASip,
                     kBSip));
  h.feed(rtp_packet(50, 7, msec(510), kBMedia, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterBye), 0u);
  // Alice's own RTP continuing, though, is the orphan.
  h.feed(rtp_packet(51, 8, msec(520), kAMedia, kBMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterBye), 1u);
}

TEST(EventGenerator, ReinviteEmitsAndWatchesOldEndpoint) {
  GeneratorHarness h;
  setup_call(h, "c1");
  // "bob" claims to move his media to a new endpoint (hijack pattern).
  pkt::Endpoint hijack_media = ep(66, 17000);
  auto events = h.feed(sip_request("INVITE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta",
                                   msec(600), kBSip, kASip, hijack_media));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kSipReinviteSeen);
  EXPECT_EQ(events[0].endpoint, hijack_media);
  // New endpoint bound to the session: redirected media still correlates.
  EXPECT_EQ(h.trails.session_for_media(hijack_media), "c1");
  // RTP still flowing from bob's *old* endpoint betrays the forgery.
  h.feed(rtp_packet(200, 7, msec(620), kBMedia, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterReinvite), 1u);
}

TEST(EventGenerator, LegitMigrationNoOrphan) {
  GeneratorHarness h;
  setup_call(h, "c1");
  pkt::Endpoint new_media = ep(55, 18000);
  h.feed(sip_request("INVITE", "c1", "bob@lab.net", "tb", "alice@lab.net", "ta", msec(600),
                     kBSip, kASip, new_media));
  // Bob really moved: old endpoint silent; new endpoint streams.
  h.feed(rtp_packet(300, 9, msec(620), new_media, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpAfterReinvite), 0u);
}

TEST(EventGenerator, SeqJumpDetected) {
  GeneratorHarness h;
  setup_call(h, "c1");
  h.feed(rtp_packet(100, 7, msec(200), kBMedia, kAMedia));
  h.feed(rtp_packet(101, 7, msec(220), kBMedia, kAMedia));
  EXPECT_EQ(h.count(EventType::kRtpSeqJump), 0u);
  auto events = h.feed(rtp_packet(5000, 666, msec(230), kAttacker, kAMedia));
  // The attacker's first packet also triggers unexpected-source.
  EXPECT_EQ(h.count(EventType::kRtpUnexpectedSource), 1u);
  const Event* jump = h.find(EventType::kRtpSeqJump);
  ASSERT_NE(jump, nullptr);
  EXPECT_GT(jump->value, 100);
  (void)events;
}

TEST(EventGenerator, SmallGapIsNotAJump) {
  GeneratorHarness h;
  setup_call(h, "c1");
  h.feed(rtp_packet(100, 7, msec(200), kBMedia, kAMedia));
  h.feed(rtp_packet(150, 7, msec(220), kBMedia, kAMedia));  // 50 lost: under bound
  EXPECT_EQ(h.count(EventType::kRtpSeqJump), 0u);
}

TEST(EventGenerator, ExpectedSourcesDoNotAlarm) {
  GeneratorHarness h;
  setup_call(h, "c1");
  h.feed(rtp_packet(1, 7, msec(200), kBMedia, kAMedia));
  h.feed(rtp_packet(1, 8, msec(200), kAMedia, kBMedia));
  EXPECT_EQ(h.count(EventType::kRtpUnexpectedSource), 0u);
  EXPECT_EQ(h.count(EventType::kRtpStreamStarted), 2u);
}

TEST(EventGenerator, RegisterChallengeSequence) {
  GeneratorHarness h;
  // Normal flow: unauthenticated REGISTER, 401, authenticated REGISTER, 200.
  h.feed(sip_request("REGISTER", "r1", "alice@lab.net", "t", "alice@lab.net", "", 0, kASip,
                     ep(100, 5060)));
  h.feed(sip_response(401, "REGISTER", "r1", "alice@lab.net", "t", "alice@lab.net", "",
                      msec(10), ep(100, 5060), kASip));
  EXPECT_EQ(h.count(EventType::kSipRegisterSeen), 1u);
  EXPECT_EQ(h.count(EventType::kSip4xxSeen), 1u);
  EXPECT_EQ(h.count(EventType::kSipAuthChallenge), 1u);
  EXPECT_EQ(h.count(EventType::kSipAuthFailure), 0u);  // no credentials yet

  // Now a REGISTER carrying (wrong) credentials, answered 401 again.
  Footprint with_auth = sip_request("REGISTER", "r1", "alice@lab.net", "t", "alice@lab.net",
                                    "", msec(20), kASip, ep(100, 5060));
  with_auth.mutable_sip()->has_auth = true;
  with_auth.mutable_sip()->auth_response = "deadbeef";
  h.feed(std::move(with_auth));
  h.feed(sip_response(401, "REGISTER", "r1", "alice@lab.net", "t", "alice@lab.net", "",
                      msec(30), ep(100, 5060), kASip));
  EXPECT_EQ(h.count(EventType::kSipAuthFailure), 1u);
  const Event* failure = h.find(EventType::kSipAuthFailure);
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->detail, "deadbeef");
  EXPECT_EQ(failure->endpoint, kASip) << "the refused client, not the registrar";
}

TEST(EventGenerator, ImMessageEvent) {
  GeneratorHarness h;
  h.feed(sip_request("MESSAGE", "im1", "bob@lab.net", "t", "alice@lab.net", "", msec(5),
                     kAttacker, kASip));
  const Event* e = h.find(EventType::kImMessageSeen);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->aor, "bob@lab.net");
  EXPECT_EQ(e->endpoint, kAttacker);
}

TEST(EventGenerator, MalformedSipEvent) {
  GeneratorHarness h;
  Footprint fp;
  fp.protocol = Protocol::kSip;
  fp.time = msec(1);
  fp.src = kAttacker;
  fp.dst = ep(100, 5060);
  SipFootprint s;
  s.well_formed = false;
  s.is_request = true;
  s.method = "<unparseable>";
  fp.data = s;
  h.feed(std::move(fp));
  EXPECT_EQ(h.count(EventType::kSipMalformed), 1u);
}

TEST(EventGenerator, AccMatchedWhenInviteExists) {
  GeneratorHarness h;
  setup_call(h, "c1");
  h.feed(acc_start("c1", "alice@lab.net", "bob@lab.net", msec(300), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccStartSeen), 1u);
  EXPECT_EQ(h.count(EventType::kAccUnmatched), 0u);
}

TEST(EventGenerator, AccUnmatchedWhenBilledUserNeverCalled) {
  GeneratorHarness h;
  setup_call(h, "c1");  // alice called bob
  // The CDR claims victim@lab.net initiated this call — no such INVITE.
  h.feed(acc_start("c1", "victim@lab.net", "bob@lab.net", msec(300), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccUnmatched), 1u);
  const Event* e = h.find(EventType::kAccUnmatched);
  EXPECT_EQ(e->aor, "victim@lab.net");
}

void feed_confirmed_registration(GeneratorHarness& h, const std::string& aor,
                                 pkt::Endpoint contact, SimTime t = 0) {
  Footprint reg = sip_request("REGISTER", "reg-" + aor, aor, "t", aor, "", t, contact,
                              ep(100, 5060));
  reg.mutable_sip()->contact = contact;
  h.feed(std::move(reg));
  h.feed(sip_response(200, "REGISTER", "reg-" + aor, aor, "t", aor, "", t + msec(5),
                      ep(100, 5060), contact));
}

TEST(EventGenerator, AccBilledPartyAbsentWhenLocationElsewhere) {
  GeneratorHarness h;
  // The IDS saw alice REGISTER from 10.0.0.1, confirmed by the registrar.
  feed_confirmed_registration(h, "alice@lab.net", kASip);
  // A call between mallory (10.0.0.66) and bob gets billed to alice.
  h.feed(sip_request("INVITE", "fraud1", "mallory@lab.net", "tm", "bob@lab.net", "", msec(10),
                     ep(66, 5082), ep(100, 5060), ep(66, 17000)));
  h.feed(sip_response(200, "INVITE", "fraud1", "mallory@lab.net", "tm", "bob@lab.net", "tb",
                      msec(100), kBSip, ep(66, 5082), kBMedia));
  h.feed(acc_start("fraud1", "alice@lab.net", "bob@lab.net", msec(150), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccUnmatched), 1u);
  EXPECT_EQ(h.count(EventType::kAccBilledPartyAbsent), 1u);
}

TEST(EventGenerator, AccBilledPartyPresentNoAbsenceEvent) {
  GeneratorHarness h;
  feed_confirmed_registration(h, "alice@lab.net", kASip);
  setup_call(h, "c1", msec(10));  // alice's media at 10.0.0.1 appears in session
  h.feed(acc_start("c1", "alice@lab.net", "bob@lab.net", msec(300), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccBilledPartyAbsent), 0u);
}

TEST(EventGenerator, UnconfirmedRegisterDoesNotPoisonLocationMirror) {
  // An attacker spraying REGISTERs for alice (never answered 200) must not
  // teach the IDS that alice lives at the attacker's address — otherwise a
  // later billing fraud from that address would evade the billed-party
  // check.
  GeneratorHarness h;
  feed_confirmed_registration(h, "alice@lab.net", kASip);
  // Unconfirmed REGISTER claiming alice from the attacker (401 answered).
  Footprint rogue = sip_request("REGISTER", "rogue-reg", "alice@lab.net", "t",
                                "alice@lab.net", "", msec(50), kAttacker, ep(100, 5060));
  rogue.mutable_sip()->contact = kAttacker;
  h.feed(std::move(rogue));
  h.feed(sip_response(401, "REGISTER", "rogue-reg", "alice@lab.net", "t", "alice@lab.net", "",
                      msec(55), ep(100, 5060), kAttacker));
  // Fraudulent call from the attacker's address, billed to alice.
  h.feed(sip_request("INVITE", "fraud2", "mallory@lab.net", "tm", "bob@lab.net", "", msec(100),
                     kAttacker, ep(100, 5060), pkt::Endpoint{kAttacker.addr, 17000}));
  h.feed(acc_start("fraud2", "alice@lab.net", "bob@lab.net", msec(200), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccBilledPartyAbsent), 1u);  // not fooled
}

TEST(EventGenerator, AccUnmatchedWhenNoSipTrailAtAll) {
  GeneratorHarness h;
  h.feed(acc_start("ghost-call", "victim@lab.net", "bob@lab.net", msec(300), ep(100, 9010),
                   ep(200, 9009)));
  EXPECT_EQ(h.count(EventType::kAccUnmatched), 1u);
}

TEST(EventGenerator, JitterEventAfterWarmup) {
  GeneratorHarness h(EventGeneratorConfig{.jitter_alarm_ms = 5.0, .jitter_warmup_packets = 20});
  setup_call(h, "c1");
  // Wildly irregular arrivals: jitter climbs.
  for (int i = 0; i < 100; ++i) {
    SimTime noise = (i % 2 == 0) ? msec(15) : 0;
    h.feed(rtp_packet(static_cast<uint16_t>(i), 7, msec(200) + i * msec(20) + noise, kBMedia,
                      kAMedia));
  }
  EXPECT_EQ(h.count(EventType::kRtpJitter), 1u);  // once per flow
}

TEST(EventGenerator, ExpireIdleSessions) {
  GeneratorHarness h;
  setup_call(h, "c1");
  EXPECT_EQ(h.generator.tracked_sessions(), 1u);
  EXPECT_EQ(h.generator.expire_idle(sec(1000)), 1u);
  EXPECT_EQ(h.generator.tracked_sessions(), 0u);
}

}  // namespace
}  // namespace scidive::core
