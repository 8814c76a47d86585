// The Distiller reads SIP as views in one pass (core::distill_sip). These
// tests hold it to the reference oracle built on the owning parser and
// accessors (fuzz/sip_oracle.h): every footprint field and the parse-error
// cell must match, unparseable packets included, on the carrier-mix and
// SIP-majority streams, the four-attack capture, every SIP corpus seed and
// mutator-derived variants of each.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "capture/pcap.h"
#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "fuzz/sip_oracle.h"
#include "scidive/distiller.h"

namespace scidive {
namespace {

/// Footprints the Distiller produced for SIP packets and how many of them
/// were checked, so a test cannot pass by seeing no SIP at all.
struct Checked {
  size_t sip = 0;
  size_t unparseable = 0;
};

uint64_t sip_parse_errors(const core::Distiller& d, Errc reason) {
  return d.stats().parse_errors.count(core::ParseProto::kSip, reason);
}

/// Distill `packet` and compare its SIP footprint and error cell with the
/// oracle's. Fragments that complete a reassembly are skipped (the record
/// itself carries no whole payload).
void check_packet(core::Distiller& distiller, const pkt::Packet& packet, Checked& checked) {
  uint64_t before[core::kParseReasonCount];
  for (size_t r = 0; r < core::kParseReasonCount; ++r)
    before[r] = sip_parse_errors(distiller, static_cast<Errc>(r));
  auto fp = distiller.distill(packet);
  if (!fp || fp->protocol != core::Protocol::kSip) return;
  auto udp = pkt::parse_udp_packet(packet.data);
  if (!udp.ok()) return;
  std::string_view payload(reinterpret_cast<const char*>(udp.value().payload.data()),
                           udp.value().payload.size());
  Errc error = Errc::kOk;
  const core::SipFootprint reference = fuzz::reference_sip_distill(payload, error);
  ASSERT_EQ(fuzz::sip_footprint_diff(*fp->sip(), reference), "") << payload;
  for (size_t r = 0; r < core::kParseReasonCount; ++r) {
    const uint64_t charged = sip_parse_errors(distiller, static_cast<Errc>(r)) - before[r];
    ASSERT_EQ(charged, error != Errc::kOk && static_cast<size_t>(error) == r ? 1u : 0u)
        << "cell " << errc_name(static_cast<Errc>(r)) << " for " << payload;
  }
  ++checked.sip;
  if (error != Errc::kOk) ++checked.unparseable;
}

/// A raw SIP text: through distill_sip directly and, wrapped in a UDP
/// datagram to 5060, through a Distiller.
void check_text(core::Distiller& distiller, std::string_view text, Checked& checked) {
  ASSERT_EQ(fuzz::check_sip_distill(text), "") << text;
  pkt::Packet p = pkt::make_udp_packet({pkt::Ipv4Address(10, 0, 0, 1), 5060},
                                       {pkt::Ipv4Address(10, 0, 0, 2), 5060},
                                       Bytes(text.begin(), text.end()));
  check_packet(distiller, p, checked);
}

capture::CarrierMixConfig signaling_spit_shape(uint64_t seed, uint64_t packets) {
  // The SIP-majority reshaping of the carrierbench signaling_spit workload.
  capture::CarrierMixConfig c;
  c.seed = seed;
  c.register_rate_hz = 2000;
  c.im_rate_hz = 1000;
  c.call_rate_hz = 300;
  c.mean_call_hold_sec = 0.4;
  c.spit_callers = 16;
  c.spit_call_rate_hz = 40;
  c.max_packets = packets;
  return c;
}

Checked check_stream(capture::PacketSource& source) {
  core::Distiller distiller;
  Checked checked;
  pkt::Packet p;
  while (source.next(&p)) {
    check_packet(distiller, p, checked);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return checked;
}

TEST(SipDistillEquivalence, CarrierMixStreams) {
  for (uint64_t seed : {1u, 7u}) {
    capture::CarrierMixConfig c;
    c.seed = seed;
    c.max_packets = 60'000;
    capture::CarrierMixSource source(c);
    const Checked checked = check_stream(source);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    EXPECT_GT(checked.sip, 300u) << "seed " << seed;
  }
}

TEST(SipDistillEquivalence, SignalingSpitStreams) {
  for (uint64_t seed : {1u, 5u}) {
    capture::CarrierMixSource source(signaling_spit_shape(seed, 20'000));
    const Checked checked = check_stream(source);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    EXPECT_GT(checked.sip, 10'000u) << "seed " << seed;
  }
}

TEST(SipDistillEquivalence, FourAttackCapture) {
  capture::PcapFileSource source(std::string(SCIDIVE_CAPTURE_DATA_DIR) + "/four_attacks.pcap");
  const Checked checked = check_stream(source);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(checked.sip, 20u);
}

/// Every SIP-text seed: the built-in ones and the checked-in corpus files.
std::vector<std::string> sip_texts() {
  std::vector<std::string> texts = fuzz::sip_seeds();
  for (const Bytes& file : fuzz::load_corpus_dir(SCIDIVE_FUZZ_CORPUS_DIR)) {
    const std::string text(file.begin(), file.end());
    if (text.find("SIP/2.0") != std::string::npos) texts.push_back(text);
  }
  return texts;
}

TEST(SipDistillEquivalence, CorpusSeedsAndMutatedVariants) {
  const std::vector<std::string> seeds = sip_texts();
  ASSERT_GT(seeds.size(), 15u);
  core::Distiller distiller;
  Checked checked;
  fuzz::Mutator m(0x5d15711);
  for (const std::string& seed : seeds) {
    check_text(distiller, seed, checked);
    ASSERT_FALSE(HasFatalFailure());
    for (int i = 0; i < 300; ++i) {
      std::string variant = m.mutate_sip(seed);
      if (i % 4 == 3) {
        Bytes raw(variant.begin(), variant.end());
        m.mutate_bytes(raw, 1 + i % 3);
        variant.assign(raw.begin(), raw.end());
      }
      check_text(distiller, variant, checked);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
  // Both outcomes are exercised: most variants still parse, some do not.
  EXPECT_GT(checked.unparseable, 100u);
  EXPECT_GT(checked.sip - checked.unparseable, 1000u);
}

TEST(SipDistillEquivalence, CompactFoldedAndDuplicateHeadersPinned) {
  // The corpus shapes the view scan must get right, pinned to their values
  // (not only to the oracle), so an oracle change cannot mask a regression.
  sip::MessageView scan;
  core::SipFootprint fp;
  const std::string text =
      "INVITE sip:bob@lab.net SIP/2.0\r\n"
      "v: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-1\r\n"
      "f: \"Alice\"\r\n <sip:alice@lab.net>\r\n\t;tag=folded\r\n"
      "t: <sip:bob@lab.net>\r\n"
      "i: first-id\r\n"
      "Call-ID: second-id\r\n"
      "CSeq: 1 INVITE\r\n"
      "CSeq: 2 BYE\r\n"
      "m: <sip:alice@10.0.0.1>\r\n"
      "l: 0\r\n\r\n";
  ASSERT_TRUE(core::distill_sip(text, scan, fp).ok());
  EXPECT_EQ(fp.from_aor, "alice@lab.net");
  EXPECT_EQ(fp.from_tag, "folded");
  EXPECT_EQ(fp.call_id, "first-id");
  EXPECT_EQ(fp.cseq, 1u);
  EXPECT_EQ(fp.cseq_method, "INVITE");
  EXPECT_TRUE(fp.well_formed);
  ASSERT_TRUE(fp.contact.has_value());
  EXPECT_EQ(fp.contact->port, 5060);
  EXPECT_EQ(fp.body_len, 0u);
  EXPECT_EQ(fuzz::check_sip_distill(text), "");
}

TEST(SipDistillEquivalence, FirstAudioLineAndIncompleteCredentialsPinned) {
  // Two m=audio lines: the first one's port is the media endpoint. A digest
  // with a response but no uri is not credentials: has_auth, no response.
  const std::string sdp =
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\nt=0 0\r\n"
      "m=audio 4000 RTP/AVP 0\r\nm=audio 4002 RTP/AVP 8\r\n";
  const std::string text =
      "INVITE sip:bob@lab.net SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-2\r\n"
      "From: <sip:alice@lab.net>;tag=ta\r\n"
      "To: <sip:bob@lab.net>\r\n"
      "Call-ID: two-audio\r\n"
      "CSeq: 1 INVITE\r\n"
      "Authorization: Digest username=\"alice\", realm=\"lab.net\", nonce=\"n\", "
      "response=\"0123456789abcdef0123456789abcdef\"\r\n"
      "Content-Length: " +
      std::to_string(sdp.size()) + "\r\n\r\n" + sdp;
  sip::MessageView scan;
  core::SipFootprint fp;
  ASSERT_TRUE(core::distill_sip(text, scan, fp).ok());
  ASSERT_TRUE(fp.sdp_media.has_value());
  EXPECT_EQ(fp.sdp_media->port, 4000);
  EXPECT_TRUE(fp.has_auth);
  EXPECT_EQ(fp.auth_response, "");
  EXPECT_EQ(fuzz::check_sip_distill(text), "");
}

}  // namespace
}  // namespace scidive
