// Packet: an on-the-wire IPv4 datagram plus capture metadata. This is the
// unit the simulated network carries and the unit the IDS tap hands to the
// Distiller — the IDS always re-parses from raw bytes.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/clock.h"
#include "pkt/addr.h"
#include "pkt/ipv4.h"
#include "pkt/udp.h"

namespace scidive::pkt {

struct Packet {
  Bytes data;            // complete IPv4 datagram
  SimTime timestamp = 0; // capture/arrival time

  std::span<const uint8_t> bytes() const { return data; }
};

/// Build a UDP/IPv4 packet around an application payload.
Packet make_udp_packet(Endpoint src, Endpoint dst, std::span<const uint8_t> payload,
                       uint16_t ip_id = 0, uint8_t ttl = 64);
Packet make_udp_packet(Endpoint src, Endpoint dst, const Bytes& payload, uint16_t ip_id = 0,
                       uint8_t ttl = 64);

/// Fully decoded UDP packet: IP header + ports + borrowed payload.
struct UdpPacketView {
  Ipv4Header ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::span<const uint8_t> payload;

  Endpoint source() const { return {ip.src, src_port}; }
  Endpoint destination() const { return {ip.dst, dst_port}; }
  FlowKey flow() const { return {ip.src, ip.dst, src_port, dst_port, kProtoUdp}; }
};

/// Parse IPv4+UDP in one step (checksums verified). Fails on fragments;
/// callers must reassemble first (see pkt/fragment.h).
Result<UdpPacketView> parse_udp_packet(std::span<const uint8_t> datagram);
/// The UDP half of the above, for a datagram whose IPv4 header the caller
/// already parsed and validated.
Result<UdpPacketView> parse_udp_packet(const Ipv4View& ip);

}  // namespace scidive::pkt
