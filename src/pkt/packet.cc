#include "pkt/packet.h"

namespace scidive::pkt {

Packet make_udp_packet(Endpoint src, Endpoint dst, std::span<const uint8_t> payload,
                       uint16_t ip_id, uint8_t ttl) {
  Bytes udp = serialize_udp(src.port, dst.port, payload, src.addr, dst.addr);
  Ipv4Header h;
  h.identification = ip_id;
  h.ttl = ttl;
  h.protocol = kProtoUdp;
  h.src = src.addr;
  h.dst = dst.addr;
  Packet p;
  p.data = serialize_ipv4(h, udp);
  return p;
}

Packet make_udp_packet(Endpoint src, Endpoint dst, const Bytes& payload, uint16_t ip_id,
                       uint8_t ttl) {
  return make_udp_packet(src, dst, std::span<const uint8_t>(payload), ip_id, ttl);
}

Result<UdpPacketView> parse_udp_packet(std::span<const uint8_t> datagram) {
  auto ip = parse_ipv4(datagram);
  if (!ip) return ip.error();
  return parse_udp_packet(ip.value());
}

Result<UdpPacketView> parse_udp_packet(const Ipv4View& ip) {
  if (ip.header.is_fragment())
    return Error{Errc::kState, "fragment: reassemble before transport parse"};
  if (ip.header.protocol != kProtoUdp) return Error{Errc::kUnsupported, "not UDP"};
  auto udp = parse_udp(ip.payload, ip.header.src, ip.header.dst);
  if (!udp) return udp.error();
  UdpPacketView v;
  v.ip = ip.header;
  v.src_port = udp.value().src_port;
  v.dst_port = udp.value().dst_port;
  v.payload = udp.value().payload;
  return v;
}

}  // namespace scidive::pkt
