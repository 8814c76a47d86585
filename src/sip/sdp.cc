#include "sip/sdp.h"

#include "common/strings.h"

namespace scidive::sip {

Parsed<SdpView> parse_sdp_view(std::string_view text, std::vector<SdpMedia>* media) {
  SdpView sdp;
  bool saw_version = false;
  str::Fields lines(text, '\n');
  std::string_view raw_line;
  while (lines.next(raw_line)) {
    std::string_view line = str::trim(raw_line);
    if (line.empty()) continue;
    if (line.size() < 2 || line[1] != '=')
      return ParseStatus{Errc::kMalformed, "SDP line without '='"};
    char type = line[0];
    std::string_view value = line.substr(2);
    switch (type) {
      case 'v':
        if (str::trim(value) != "0") return ParseStatus{Errc::kUnsupported, "SDP version != 0"};
        saw_version = true;
        break;
      case 'o': {
        // o=<user> <sess-id> <sess-version> IN IP4 <addr>
        str::Fields parts(value, ' ');
        std::string_view part[6];
        size_t n = 0;
        while (n < 6 && parts.next(part[n])) ++n;
        if (n < 6) return ParseStatus{Errc::kMalformed, "short o= line"};
        auto sid = str::parse_u64(part[1]);
        auto sver = str::parse_u64(part[2]);
        if (!sid || !sver) return ParseStatus{Errc::kMalformed, "bad o= ids"};
        sdp.origin_user = part[0];
        sdp.session_id = *sid;
        sdp.session_version = *sver;
        sdp.origin_addr = part[5];
        break;
      }
      case 's':
        sdp.session_name = value;
        break;
      case 'c': {
        // c=IN IP4 <addr>
        str::Fields parts(value, ' ');
        std::string_view part[4];
        size_t n = 0;
        while (n < 4 && parts.next(part[n])) ++n;
        if (n != 3 || part[0] != "IN" || part[1] != "IP4")
          return ParseStatus{Errc::kMalformed, "unsupported c= line"};
        sdp.connection_addr = part[2];
        break;
      }
      case 'm': {
        // m=audio <port> RTP/AVP <pt...>
        str::Fields parts(value, ' ');
        std::string_view media_type, port_text, proto;
        if (!parts.next(media_type) || !parts.next(port_text) || !parts.next(proto))
          return ParseStatus{Errc::kMalformed, "short m= line"};
        auto port = str::parse_u16(port_text);
        if (!port) return ParseStatus{Errc::kMalformed, "bad m= port"};
        SdpMedia* m = nullptr;
        if (media != nullptr) {
          m = &media->emplace_back();
          m->type = std::string(media_type);
          m->port = *port;
          m->proto = std::string(proto);
        }
        std::string_view pt_text;
        while (parts.next(pt_text)) {
          auto pt = str::parse_u32(pt_text);
          if (!pt || *pt > 127) return ParseStatus{Errc::kMalformed, "bad payload type"};
          if (m != nullptr) m->payload_types.push_back(static_cast<uint8_t>(*pt));
        }
        if (media_type == "audio" && !sdp.audio_port) sdp.audio_port = *port;
        break;
      }
      default:
        break;  // a=, t=, b= etc.: tolerated, ignored
    }
  }
  if (!saw_version) return ParseStatus{Errc::kMalformed, "missing v=0"};
  return sdp;
}

Result<Sdp> Sdp::parse(std::string_view text) {
  Sdp sdp;
  auto view = parse_sdp_view(text, &sdp.media);
  if (!view.ok()) return view.error();
  const SdpView& v = view.value();
  sdp.origin_user = std::string(v.origin_user);
  sdp.session_id = v.session_id;
  sdp.session_version = v.session_version;
  sdp.origin_addr = std::string(v.origin_addr);
  sdp.session_name = std::string(v.session_name);
  sdp.connection_addr = std::string(v.connection_addr);
  return sdp;
}

std::string Sdp::to_string() const {
  std::string out;
  out += "v=0\r\n";
  out += str::format("o=%s %llu %llu IN IP4 %s\r\n", origin_user.c_str(),
                     static_cast<unsigned long long>(session_id),
                     static_cast<unsigned long long>(session_version), origin_addr.c_str());
  out += "s=" + session_name + "\r\n";
  if (!connection_addr.empty()) out += "c=IN IP4 " + connection_addr + "\r\n";
  out += "t=0 0\r\n";
  for (const auto& m : media) {
    out += str::format("m=%s %u %s", m.type.c_str(), m.port, m.proto.c_str());
    for (uint8_t pt : m.payload_types) out += str::format(" %u", pt);
    out += "\r\n";
  }
  return out;
}

Sdp make_audio_sdp(std::string addr, uint16_t rtp_port, uint64_t session_id, uint64_t version) {
  Sdp sdp;
  sdp.session_id = session_id;
  sdp.session_version = version;
  sdp.origin_addr = addr;
  sdp.connection_addr = std::move(addr);
  SdpMedia m;
  m.port = rtp_port;
  m.payload_types = {0};  // PCMU
  sdp.media.push_back(std::move(m));
  return sdp;
}

}  // namespace scidive::sip
