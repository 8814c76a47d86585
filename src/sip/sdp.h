// Minimal SDP (RFC 2327 subset): exactly what a 2004 softphone offers —
// origin, session name, one connection line, one audio media line. The IDS
// uses SDP to learn where a call's RTP is supposed to flow (cross-protocol
// session correlation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sip/parsed.h"

namespace scidive::sip {

struct SdpMedia {
  std::string type = "audio";      // m= media type
  uint16_t port = 0;               // RTP port
  std::string proto = "RTP/AVP";   // transport
  std::vector<uint8_t> payload_types;  // e.g. {0} == PCMU
};

/// A validated SDP body located in the caller's buffer (the view core of
/// Sdp::parse): the scalar fields plus what the IDS reads of the media.
struct SdpView {
  std::string_view origin_user = "-";
  uint64_t session_id = 0;
  uint64_t session_version = 0;
  std::string_view origin_addr;
  std::string_view session_name = "-";
  std::string_view connection_addr;   // the last c= line's address
  std::optional<uint16_t> audio_port;  // port of the first m=audio line
};

/// Validate `text` line by line exactly as Sdp::parse does; nothing is
/// allocated unless `media` is given, which then receives every m= line.
Parsed<SdpView> parse_sdp_view(std::string_view text, std::vector<SdpMedia>* media = nullptr);

struct Sdp {
  std::string origin_user = "-";
  uint64_t session_id = 0;
  uint64_t session_version = 0;
  std::string origin_addr;      // o= address
  std::string session_name = "-";
  std::string connection_addr;  // c= address: where to send media
  std::vector<SdpMedia> media;

  static Result<Sdp> parse(std::string_view text);
  std::string to_string() const;

  /// First audio media entry, if any.
  const SdpMedia* audio() const {
    for (const auto& m : media) {
      if (m.type == "audio") return &m;
    }
    return nullptr;
  }
};

/// Convenience: one-audio-stream offer/answer body.
Sdp make_audio_sdp(std::string addr, uint16_t rtp_port, uint64_t session_id,
                   uint64_t version = 1);

}  // namespace scidive::sip
