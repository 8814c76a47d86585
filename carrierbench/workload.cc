#include "workload.h"

#include <algorithm>
#include <unordered_set>

#include "capture/carrier_mix.h"
#include "common/bytes.h"
#include "common/strings.h"
#include "ruledsl/loader.h"
#include "scidive/rules.h"
#include "sip/auth.h"
#include "sip/message.h"

namespace carrierbench {

using namespace scidive;

namespace {

// Packets per round. carrier_mix at 500k packets spans about 23 s of
// simulated time, below the fleet correlator's first 30 s window (see
// digest_failure_burst); signaling_spit at 200k packets spans about 14 s,
// inside one 60 s SPIT window, and holds about 45k sessions.
constexpr uint64_t kCarrierPackets = 500'000;
constexpr uint64_t kSpitPackets = 200'000;
constexpr size_t kSpitCallers = 16;
constexpr uint64_t kSpitThreshold = 8;
constexpr SimDuration kSpitWindow = sec(60);

capture::CarrierMixConfig source_config(Workload w, uint64_t seed) {
  capture::CarrierMixConfig c;
  c.seed = seed;
  c.max_packets = kCarrierPackets;
  if (w == Workload::kSignalingSpit) {
    // SIP-majority reshaping: registration and IM churn, short calls and a
    // SPIT cohort ringing and abandoning.
    c.register_rate_hz = 2000;
    c.im_rate_hz = 1000;
    c.call_rate_hz = 300;
    c.mean_call_hold_sec = 0.4;
    c.spit_callers = kSpitCallers;
    c.spit_call_rate_hz = 40;
    c.max_packets = kSpitPackets;
  }
  return c;
}

// fleet_mix only: eight subscribers fail digest authentication against the
// registrar in the first second of the capture (REGISTER, 401, REGISTER
// with credentials, 401 again). The fleet correlator keys these failures by
// the 401's sender, the registrar, so they sum into one false
// fleet-digest-guess alert in the first 30 s window. The burst does not
// depend on the seed, so that fault shows exactly once per round on every
// seed; the seeded carrier failures alone reach the threshold on some
// seeds and not on others.
std::vector<pkt::Packet> digest_failure_burst() {
  constexpr uint16_t kSipPort = 5060;
  const pkt::Endpoint registrar{pkt::Ipv4Address(192, 168, 0, 1), kSipPort};
  const std::string domain = "carrier.example";
  std::vector<pkt::Packet> burst;
  for (uint32_t k = 0; k < 8; ++k) {
    const std::string user = str::format("burst%u", k);
    const std::string aor = user + "@" + domain;
    const pkt::Endpoint ep{pkt::Ipv4Address(10, 255, 255, static_cast<uint8_t>(k + 1)),
                           kSipPort};
    const std::string call_id = str::format("burst-reg-%u", k);
    const sip::DigestChallenge challenge{domain, str::format("burst-n%u", k)};
    auto add_dialog = [&](sip::SipMessage& m, int cseq, bool to_tag) {
      m.headers().add("Via", str::format("SIP/2.0/UDP %s:%u;branch=z9hG4bK-burst%u-%d",
                                         ep.addr.to_string().c_str(), kSipPort, k, cseq));
      m.headers().add("From", str::format("<sip:%s>;tag=b%u", aor.c_str(), k));
      m.headers().add("To", to_tag ? str::format("<sip:%s>;tag=rb%u", aor.c_str(), k)
                                   : str::format("<sip:%s>", aor.c_str()));
      m.headers().add("Call-ID", call_id);
      m.headers().add("CSeq", str::format("%d REGISTER", cseq));
    };
    auto request = [&](int cseq, bool with_credentials) {
      auto m = sip::SipMessage::request(sip::Method::kRegister, sip::SipUri("", domain));
      add_dialog(m, cseq, false);
      m.headers().add("Contact", str::format("<sip:%s@%s:%u>", user.c_str(),
                                             ep.addr.to_string().c_str(), kSipPort));
      m.headers().add("Expires", "3600");
      if (with_credentials) {
        m.headers().add("Authorization",
                        sip::answer_challenge(challenge, user, "wrong-password", "REGISTER",
                                              "sip:" + domain)
                            .to_header_value());
      }
      return m;
    };
    auto unauthorized = [&](int cseq) {
      auto m = sip::SipMessage::response(401, "Unauthorized");
      add_dialog(m, cseq, true);
      m.headers().add("WWW-Authenticate", challenge.to_header_value());
      return m;
    };
    const SimTime start = msec(100) + msec(50) * k;
    auto push = [&](const sip::SipMessage& m, bool from_user, SimTime at) {
      pkt::Packet p = pkt::make_udp_packet(from_user ? ep : registrar, from_user ? registrar : ep,
                                           from_string(m.to_string()));
      p.timestamp = at;
      burst.push_back(std::move(p));
    };
    push(request(1, false), true, start);
    push(unauthorized(1), false, start + msec(20));
    push(request(2, true), true, start + msec(50));
    push(unauthorized(2), false, start + msec(70));
  }
  std::stable_sort(burst.begin(), burst.end(),
                   [](const pkt::Packet& a, const pkt::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return burst;
}

// UDP payload of one of the benchmark's own (unfragmented IPv4) packets.
std::optional<std::string_view> udp_payload(const pkt::Packet& p) {
  const auto& d = p.data;
  if (d.size() < 28 || (d[0] >> 4) != 4 || d[9] != 17) return std::nullopt;
  const size_t ihl = static_cast<size_t>(d[0] & 0x0f) * 4;
  if (d.size() < ihl + 8) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(d.data()) + ihl + 8, d.size() - ihl - 8);
}

bool is_sip(std::string_view payload) {
  static constexpr std::string_view kStarts[] = {"SIP/2.0 ", "INVITE ", "ACK ",    "BYE ",
                                                 "CANCEL ",  "REGISTER ", "OPTIONS ",
                                                 "MESSAGE ", "INFO ",     "UPDATE "};
  for (std::string_view s : kStarts) {
    if (payload.starts_with(s)) return true;
  }
  return false;
}

// Value of the first header named `name` (full form, case-sensitive as the
// carrier mix writes it).
std::string_view header(std::string_view msg, std::string_view name) {
  size_t pos = 0;
  while (pos < msg.size()) {
    size_t eol = msg.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = msg.size();
    std::string_view line = msg.substr(pos, eol - pos);
    if (line.empty()) break;  // end of headers
    if (line.size() > name.size() && line.starts_with(name) && line[name.size()] == ':') {
      std::string_view v = line.substr(name.size() + 1);
      while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
      return v;
    }
    pos = eol + 2;
  }
  return {};
}

std::string aor_of(std::string_view from) {
  const size_t s = from.find("sip:");
  if (s == std::string_view::npos) return {};
  std::string_view rest = from.substr(s + 4);
  const size_t e = rest.find_first_of(">;");
  return std::string(rest.substr(0, e));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "carrier_mix") return Workload::kCarrierMix;
  if (name == "signaling_spit") return Workload::kSignalingSpit;
  if (name == "fleet_mix") return Workload::kFleetMix;
  return std::nullopt;
}

bool is_fleet(Workload w) { return w == Workload::kFleetMix; }

std::vector<pkt::Packet> make_stream(Workload w, uint64_t seed) {
  capture::CarrierMixSource source(source_config(w, seed));
  std::vector<pkt::Packet> stream = capture::read_all(source);
  if (w == Workload::kFleetMix) {
    std::vector<pkt::Packet> burst = digest_failure_burst();
    std::vector<pkt::Packet> merged;
    merged.reserve(stream.size() + burst.size());
    std::merge(std::make_move_iterator(stream.begin()), std::make_move_iterator(stream.end()),
               std::make_move_iterator(burst.begin()), std::make_move_iterator(burst.end()),
               std::back_inserter(merged), [](const pkt::Packet& a, const pkt::Packet& b) {
                 return a.timestamp < b.timestamp;
               });
    stream = std::move(merged);
  }
  return stream;
}

core::EngineConfig engine_config(Workload w) {
  core::EngineConfig config;
  if (w == Workload::kSignalingSpit) config.enforce.mode = core::EnforcementMode::kInline;
  return config;
}

std::unique_ptr<fleet::Fleet> make_fleet(Workload w, const Ruleset& rules) {
  fleet::FleetConfig config;
  config.node.engine.num_shards = 1;
  config.node.engine.engine = engine_config(w);
  auto f = std::make_unique<fleet::Fleet>(config, std::vector<std::string>{"ids-a", "ids-b"});
  if (rules.custom()) {
    for (size_t i = 0; i < f->size(); ++i) {
      f->node_at(i).engine().set_rules([&rules](size_t) { return rules.make(); });
    }
  }
  return f;
}

std::vector<std::string> shipped_sdr_paths(const std::string& dir) {
  return {dir + "/bye_attack.sdr",  dir + "/call_hijack.sdr",   dir + "/fake_im.sdr",
          dir + "/rtp_attack.sdr",  dir + "/billing_fraud.sdr", dir + "/spit_graylist.sdr"};
}

std::string Ruleset::load(Workload w, const std::string& dir) {
  custom_ = w == Workload::kSignalingSpit;
  if (!custom_) return {};
  auto compiled = ruledsl::compile_ruleset_files(shipped_sdr_paths(dir));
  if (!compiled.ok()) return compiled.error().to_string();
  compiled_ = std::move(compiled.value());
  return {};
}

std::vector<core::RulePtr> Ruleset::make() const {
  const core::RulesConfig config;
  if (!custom_) return core::make_default_ruleset(config);
  std::vector<core::RulePtr> rules = ruledsl::make_rules(compiled_);
  rules.push_back(std::make_unique<core::RtcpByeRule>());
  rules.push_back(std::make_unique<core::RegisterFloodRule>(config));
  rules.push_back(std::make_unique<core::PasswordGuessRule>(config));
  return rules;
}

std::string sip_from_aor(const pkt::Packet& packet) {
  auto payload = udp_payload(packet);
  if (!payload || !is_sip(*payload)) return {};
  return aor_of(header(*payload, "From"));
}

Census take_census(const std::vector<pkt::Packet>& stream) {
  Census c;
  c.packets = stream.size();
  if (!stream.empty()) c.span_s = to_sec(stream.back().timestamp - stream.front().timestamp);
  std::unordered_set<std::string> spit_aors;
  for (uint32_t k = 0; k < kSpitCallers; ++k) {
    spit_aors.insert(capture::CarrierMixSource::spit_aor(k));
  }
  struct Window {
    SimTime start = 0;
    uint64_t attempts = 0;
    bool flagged = false;
  };
  std::unordered_map<std::string, Window> windows;
  std::unordered_set<std::string_view> call_ids;
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto udp = udp_payload(stream[i]);
    if (!udp) {
      ++c.other;
      continue;
    }
    const std::string_view payload = *udp;
    if (is_sip(payload)) {
      ++c.sip;
      call_ids.insert(header(payload, "Call-ID"));
      if (!payload.starts_with("INVITE ")) continue;
      const std::string aor = aor_of(header(payload, "From"));
      if (!spit_aors.contains(aor)) continue;
      ++c.spit_invites;
      // The SPIT graylisting window: the first attempt, or the first after
      // the window lapsed, opens a fresh 60 s window; the 8th attempt
      // inside it flags the caller once.
      const SimTime t = stream[i].timestamp;
      Window& w = windows[aor];
      if (w.attempts == 0 || t - w.start > kSpitWindow) w = Window{t, 0, false};
      if (++w.attempts >= kSpitThreshold && !w.flagged) {
        w.flagged = true;
        c.expected_spit_alerts.emplace_back(header(payload, "Call-ID"));
        c.flagged_at.try_emplace(aor, i);
      }
    } else if (payload.size() >= 2 && (static_cast<uint8_t>(payload[0]) >> 6) == 2) {
      const uint8_t pt = static_cast<uint8_t>(payload[1]);
      if (pt >= 200 && pt <= 204) {
        ++c.rtcp;
      } else {
        ++c.rtp;
      }
    } else {
      ++c.other;
    }
  }
  c.sip_sessions = call_ids.size();
  return c;
}

}  // namespace carrierbench
