#include "fuzz/fuzz_targets.h"

#include <span>
#include <sstream>
#include <string_view>

#include "capture/pcap.h"
#include "fleet/sep_wire.h"
#include "fuzz/differential.h"
#include "pkt/fragment.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "ruledsl/loader.h"
#include "scidive/distiller.h"
#include "scidive/engine.h"
#include "scidive/rules.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::fuzz {
namespace {

/// Iterate [u16 be length][bytes] records; a final short record is taken
/// as-is (fuzzers routinely truncate, and the tail bytes are still input).
template <typename Fn>
void for_each_record(const uint8_t* data, size_t size, Fn&& fn) {
  size_t pos = 0;
  while (pos + 2 <= size) {
    size_t len = static_cast<size_t>(data[pos]) << 8 | data[pos + 1];
    pos += 2;
    len = std::min(len, size - pos);
    fn(std::span<const uint8_t>(data + pos, len));
    pos += len;
    if (len == 0) break;  // zero-length records would loop forever
  }
}

}  // namespace

int fuzz_sip_message(const uint8_t* data, size_t size) {
  auto parsed = sip::SipMessage::parse(std::span<const uint8_t>(data, size));
  if (!parsed.ok()) return 0;
  const sip::SipMessage& msg = parsed.value();
  // Touch every lazy accessor; none may crash on a parsed message.
  (void)msg.call_id();
  (void)msg.cseq();
  (void)msg.from();
  (void)msg.to();
  (void)msg.contact();
  (void)msg.top_via();
  (void)msg.expires();
  (void)msg.max_forwards();
  (void)msg.well_formed();
  // Round trip: the serializer must accept anything the parser produced.
  (void)sip::SipMessage::parse(msg.to_string());
  return 0;
}

int fuzz_sdp(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto parsed = sip::Sdp::parse(text);
  if (parsed.ok()) {
    (void)parsed.value().audio();
    (void)sip::Sdp::parse(parsed.value().to_string());
  }
  return 0;
}

int fuzz_rtp(const uint8_t* data, size_t size) {
  auto parsed = rtp::parse_rtp(std::span<const uint8_t>(data, size));
  if (parsed.ok()) {
    Bytes wire = rtp::serialize_rtp(parsed.value().header, parsed.value().payload);
    (void)rtp::parse_rtp(wire);
  }
  return 0;
}

int fuzz_rtcp(const uint8_t* data, size_t size) {
  auto parsed = rtp::parse_rtcp(std::span<const uint8_t>(data, size));
  if (parsed.ok()) {
    const rtp::RtcpPacket& p = parsed.value();
    if (p.sr) (void)rtp::serialize_rtcp(*p.sr);
    if (p.rr) (void)rtp::serialize_rtcp(*p.rr);
    if (p.bye) (void)rtp::serialize_rtcp(*p.bye);
  }
  return 0;
}

int fuzz_fragment_reassembly(const uint8_t* data, size_t size) {
  pkt::Ipv4Reassembler reassembler;
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    (void)reassembler.push(record, now);
  });
  // Jump past the timeout so every pending assembly expires (leak check).
  (void)reassembler.expire(now + sec(60));
  return 0;
}

int fuzz_distiller(const uint8_t* data, size_t size) {
  core::Distiller distiller;
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    (void)distiller.distill(packet);
  });
  return 0;
}

int fuzz_engine(const uint8_t* data, size_t size) {
  core::EngineConfig config;
  config.obs.time_stages = false;  // determinism; wall clock is irrelevant here
  core::ScidiveEngine engine(config);
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    engine.on_packet(packet);
  });
  engine.expire_idle(now + sec(120));
  (void)engine.metrics_snapshot();
  return 0;
}

int fuzz_ruledsl(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto ruleset = ruledsl::compile_ruleset_text(text, "<fuzz>");
  if (!ruleset.ok()) return 0;  // rejected with a diagnostic — the contract
  (void)ruleset.value().dump();

  // A ruleset that compiles must also *run*: sweep every subscribed event
  // type through each rule twice (first-touch and revisit paths) across two
  // sessions, so slot updates, branches and alert rendering all execute on
  // whatever programs the fuzzer evolved.
  std::vector<core::RulePtr> rules = ruledsl::make_rules(ruleset.value());
  core::TrailManager trails;
  core::AlertSink sink;
  core::RuleContext ctx(trails, sink);
  for (const core::RulePtr& rule : rules) {
    for (int round = 0; round < 2; ++round) {
      for (size_t t = 0; t < core::kEventTypeCount; ++t) {
        if ((rule->subscriptions() >> t & 1) == 0) continue;
        core::Event event;
        event.type = static_cast<core::EventType>(t);
        event.session = round == 0 ? "fuzz-session" : "fuzz-session-2";
        event.time = sec(static_cast<int64_t>(t) + 1) * (round + 1);
        event.aor = "fuzz@lab.net";
        event.endpoint = {pkt::Ipv4Address(0x0a000002u + static_cast<uint32_t>(round)), 16384};
        event.value = static_cast<int64_t>(t) * 101 - 50;
        event.detail = "fuzz";
        rule->on_event(event, ctx);
      }
    }
    (void)rule->state_entries();
  }
  return 0;
}

int fuzz_verdict(const uint8_t* data, size_t size) {
  core::EngineConfig config;
  config.obs.time_stages = false;
  config.enforce.mode = core::EnforcementMode::kInline;
  // Hair-trigger prevention thresholds: two INVITEs from one caller inside
  // the window already graylist, so mutated SIP streams reach the verdict
  // and enforcement paths instead of dying in the parser.
  core::RulesConfig rules;
  rules.spit_graylist = true;
  rules.spit_call_threshold = 2;
  core::ScidiveEngine engine(config);
  engine.set_rules(core::make_prevention_ruleset(rules));

  uint64_t counted[core::kVerdictActionCount] = {};
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    // The non-mutating preview must be total and must not charge buckets:
    // any counter drift it caused would break the identity checked below.
    (void)engine.peek_packet(packet);
    ++counted[static_cast<size_t>(engine.on_packet(packet))];
  });
  engine.expire_idle(now + sec(120));
  (void)engine.metrics_snapshot();
  (void)engine.verdicts().verdicts();

  // Accounting identity: every inspected packet got exactly one decision,
  // and the engine's counters agree with the actions on_packet returned.
  uint64_t decided = 0;
  for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
    if (engine.decisions(static_cast<core::VerdictAction>(a)) != counted[a]) {
      __builtin_trap();
    }
    decided += counted[a];
  }
  if (engine.stats().packets_inspected != decided) __builtin_trap();
  return 0;
}

namespace {

/// One call of the fast-path prelude: INVITE/200 with SDP between fixed
/// endpoints. Both calls place their caller on 10.0.0.1, so the host's two
/// media ports are cached side by side.
struct PreludeCall {
  const char* call_id;
  const char* callee;
  pkt::Endpoint caller_sip, callee_sip;
  pkt::Endpoint caller_media, callee_media;
  uint32_t ssrc;  // caller -> callee; the reverse direction uses ssrc + 1
};

constexpr PreludeCall kPreludeCalls[] = {
    {"fastpath-call-1", "bob", {pkt::Ipv4Address(10, 0, 0, 1), 5060},
     {pkt::Ipv4Address(10, 0, 0, 2), 5060}, {pkt::Ipv4Address(10, 0, 0, 1), 16384},
     {pkt::Ipv4Address(10, 0, 0, 2), 16384}, 0xfa57},
    {"fastpath-call-2", "carol", {pkt::Ipv4Address(10, 0, 0, 1), 5060},
     {pkt::Ipv4Address(10, 0, 0, 3), 5060}, {pkt::Ipv4Address(10, 0, 0, 1), 16386},
     {pkt::Ipv4Address(10, 0, 0, 3), 16384}, 0xca11},
};

void signal_call(core::ScidiveEngine& engine, const PreludeCall& call, SimTime at) {
  auto to_bytes = [](const std::string& s) { return Bytes(s.begin(), s.end()); };
  const std::string via = "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-" + std::string(call.call_id);
  const std::string to = "<sip:" + std::string(call.callee) + "@lab.net>";
  auto invite =
      sip::SipMessage::request(sip::Method::kInvite, sip::SipUri(call.callee, "lab.net"));
  invite.headers().add("Via", via);
  invite.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  invite.headers().add("To", to);
  invite.headers().add("Call-ID", call.call_id);
  invite.headers().add("CSeq", "1 INVITE");
  invite.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  invite.set_body(sip::make_audio_sdp(call.caller_media.addr.to_string(),
                                      call.caller_media.port, 1)
                      .to_string(),
                  "application/sdp");
  pkt::Packet invite_pkt =
      pkt::make_udp_packet(call.caller_sip, call.callee_sip, to_bytes(invite.to_string()));
  invite_pkt.timestamp = at;
  engine.on_packet(invite_pkt);

  auto ok = sip::SipMessage::response(200, "OK");
  ok.headers().add("Via", via);
  ok.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  ok.headers().add("To", to + ";tag=tb");
  ok.headers().add("Call-ID", call.call_id);
  ok.headers().add("CSeq", "1 INVITE");
  ok.headers().add("Contact", "<sip:" + std::string(call.callee) + "@" +
                                  call.callee_sip.addr.to_string() + ":5060>");
  ok.set_body(sip::make_audio_sdp(call.callee_media.addr.to_string(),
                                  call.callee_media.port, 2)
                  .to_string(),
              "application/sdp");
  pkt::Packet ok_pkt =
      pkt::make_udp_packet(call.callee_sip, call.caller_sip, to_bytes(ok.to_string()));
  ok_pkt.timestamp = at + msec(4);
  engine.on_packet(ok_pkt);
}

/// Two concurrent calls from the same host plus a short steady RTP train in
/// both directions of each, so the established-flow fast path holds four
/// populated, actively bypassing flow-cache entries before the fuzzer's
/// records arrive: one call's signaling must leave the other's flows alone.
void establish_cached_flows(core::ScidiveEngine& engine, SimTime upto) {
  signal_call(engine, kPreludeCalls[0], msec(1));
  signal_call(engine, kPreludeCalls[1], msec(10));

  const Bytes frame(160, 0xd5);
  auto send = [&](pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc, uint16_t seq,
                  SimTime t) {
    rtp::RtpHeader h;
    h.sequence = seq;
    h.timestamp = static_cast<uint32_t>(seq) * rtp::kSamplesPer20Ms;
    h.ssrc = ssrc;
    pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, frame));
    p.timestamp = t;
    engine.on_packet(p);
  };
  SimTime now = msec(20);
  for (uint16_t i = 1; now < upto; ++i) {
    now += msec(20);
    for (const PreludeCall& call : kPreludeCalls) {
      send(call.callee_media, call.caller_media, call.ssrc + 1, i, now);
      send(call.caller_media, call.callee_media, call.ssrc, i, now);
    }
  }
}

}  // namespace

int fuzz_fastpath(const uint8_t* data, size_t size) {
  core::EngineConfig with_config;
  with_config.obs.time_stages = false;
  core::EngineConfig without_config = with_config;
  without_config.fastpath.enabled = false;
  core::ScidiveEngine with(with_config);
  core::ScidiveEngine without(without_config);

  // The deterministic prelude runs on both engines; by its end the
  // fastpath-on engine is mid-bypass on both calls' media flows, so the
  // fuzzer's records land on a warm cache and every mutation that matters
  // (SSRC flips, sequence jumps, BYEs, re-INVITEs, garbage) exercises an
  // invalidation or write-back edge — and one call's signaling must leave
  // the other call's flows bypassing with exact microstate.
  establish_cached_flows(with, msec(200));
  establish_cached_flows(without, msec(200));

  SimTime now = msec(300);
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    with.on_packet(packet);
    without.on_packet(packet);
  });
  // Mirror counters are compared before expiry (which writes everything
  // back anyway) so a stale cached flow shows as a divergence.
  const obs::Snapshot with_live = with.metrics_snapshot();
  const obs::Snapshot without_live = without.metrics_snapshot();
  with.expire_idle(now + sec(120));
  without.expire_idle(now + sec(120));
  const obs::Snapshot with_expired = with.metrics_snapshot();
  const obs::Snapshot without_expired = without.metrics_snapshot();

  // The fast path's core claim: bypassing steady-state media never changes
  // what is detected. Any divergence in the rendered alert sequence, the
  // packet accounting or the component-stat mirrors is a bug, not an
  // interesting input.
  for (const auto& [with_snap, without_snap] :
       {std::pair(&with_live, &without_live), std::pair(&with_expired, &without_expired)}) {
    for (const obs::Sample& s : without_snap->samples()) {
      if (is_fastpath_mirror(s) && with_snap->counter_value(s.name, s.labels) != s.counter) {
        __builtin_trap();
      }
    }
  }
  const std::vector<core::Alert>& got = with.alerts().alerts();
  const std::vector<core::Alert>& want = without.alerts().alerts();
  if (got.size() != want.size()) __builtin_trap();
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].to_string() != want[i].to_string()) __builtin_trap();
  }
  if (with.stats().packets_inspected != without.stats().packets_inspected) __builtin_trap();
  return 0;
}

namespace {

bool same_event(const core::Event& a, const core::Event& b) {
  return a.type == b.type && a.session == b.session && a.time == b.time && a.aor == b.aor &&
         a.endpoint == b.endpoint && a.value == b.value && a.detail == b.detail;
}

bool same_record(const fleet::SepRecord& a, const fleet::SepRecord& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&](const auto& ra) {
        using T = std::decay_t<decltype(ra)>;
        const T& rb = std::get<T>(b);
        if constexpr (std::is_same_v<T, core::Event>) {
          return same_event(ra, rb);
        } else {
          return ra == rb;
        }
      },
      a);
}

}  // namespace

int fuzz_sep_wire(const uint8_t* data, size_t size) {
  auto decoded = fleet::decode_frame_any(std::span<const uint8_t>(data, size));
  if (!decoded.ok()) return 0;
  const fleet::SepFrame& frame = decoded.value();

  // The round-trip invariant only covers frames this build fully owns: a
  // legacy SEP1 line re-encodes as SEP-v2 by design, and unknown record
  // types were skipped, not captured.
  if (frame.legacy_sep1 || frame.unknown_skipped != 0) return 0;
  if (frame.node.empty() || frame.node.size() > fleet::kMaxNodeNameBytes) __builtin_trap();

  for (bool compress : {false, true}) {
    fleet::SepEncoder enc(frame.node, frame.epoch);
    for (const fleet::SepRecord& rec : frame.records) {
      std::visit(
          [&](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, core::Event>) {
              enc.add_event(r);
            } else if constexpr (std::is_same_v<T, fleet::SepVerdict>) {
              enc.add_verdict(r);
            } else if constexpr (std::is_same_v<T, fleet::SepCounter>) {
              enc.add_counter(r);
            } else if constexpr (std::is_same_v<T, fleet::SepVouch>) {
              enc.add_vouch(r);
            } else {
              enc.add_handoff(r);
            }
          },
          rec);
    }
    auto again = fleet::decode_frame(enc.finish(compress));
    // The encoder's output is always a valid frame, and it must decode to
    // exactly the records that went in.
    if (!again.ok()) __builtin_trap();
    const fleet::SepFrame& back = again.value();
    if (back.node != frame.node || back.epoch != frame.epoch ||
        back.unknown_skipped != 0 || back.legacy_sep1 ||
        back.records.size() != frame.records.size()) {
      __builtin_trap();
    }
    for (size_t i = 0; i < frame.records.size(); ++i) {
      if (!same_record(frame.records[i], back.records[i])) __builtin_trap();
    }
  }
  return 0;
}

int fuzz_pcap(const uint8_t* data, size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size),
                        std::ios::binary);
  capture::PcapFileSource source(in);

  // Bounded drain: packets are kept only up to a byte budget so oversized
  // (but in-bounds) captures cannot balloon memory.
  std::vector<pkt::Packet> kept;
  size_t kept_bytes = 0;
  pkt::Packet packet;
  while (source.next(&packet)) {
    if (kept_bytes + packet.data.size() <= (1u << 21)) {
      kept_bytes += packet.data.size();
      kept.push_back(std::move(packet));
    }
  }
  (void)source.error();
  if (!source.ok() || kept.empty()) return 0;

  // The stream decoded cleanly: re-export the packets under both link types
  // and re-read each. The writer is total over any decoded packet, and the
  // reader must accept everything the writer emits.
  for (capture::PcapLinkType link :
       {capture::PcapLinkType::kRaw, capture::PcapLinkType::kEthernet}) {
    std::ostringstream out(std::ios::binary);
    capture::PcapWriter writer(out, {.link = link});
    for (const pkt::Packet& p : kept) writer.write(p);
    std::istringstream back(out.str(), std::ios::binary);
    capture::PcapReader reader(back);
    pkt::Packet again;
    uint64_t reread = 0;
    while (reader.next(&again)) ++reread;
    if (!reader.error().empty() || reread != kept.size()) __builtin_trap();
  }
  return 0;
}

}  // namespace scidive::fuzz
