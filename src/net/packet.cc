#include "net/packet.h"

#include "sim/bytes.h"

namespace exo::net {

using sim::AppendLe16;
using sim::AppendLe32;
using sim::LoadLe16;
using sim::LoadLe32;

uint32_t Checksum(std::span<const uint8_t> data) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint16_t>(data[i] | (data[i + 1] << 8));
  }
  if (i < data.size()) {
    sum += data[i];
  }
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

uint32_t ChecksumCombine(uint32_t even_prefix_sum, uint32_t suffix_sum) {
  uint64_t sum = static_cast<uint64_t>(even_prefix_sum) + suffix_sum;
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

hw::Packet EncodeTcp(const TcpSegment& seg, std::span<const uint8_t> head,
                     std::span<const uint8_t> tail) {
  hw::Packet p;
  p.bytes.reserve(kIpHeaderBytes + kTcpHeaderBytes + head.size() + tail.size());
  p.bytes.push_back(kProtoTcp);
  AppendLe32(p.bytes, seg.src_ip);
  AppendLe32(p.bytes, seg.dst_ip);
  AppendLe16(p.bytes, 0);  // pad to kIpHeaderBytes
  p.bytes.push_back(0);
  AppendLe16(p.bytes, seg.src_port);
  AppendLe16(p.bytes, seg.dst_port);
  AppendLe32(p.bytes, seg.seq);
  AppendLe32(p.bytes, seg.ack);
  p.bytes.push_back(seg.flags);
  p.bytes.push_back(0);
  AppendLe16(p.bytes, seg.window);
  AppendLe32(p.bytes, seg.checksum);
  p.bytes.insert(p.bytes.end(), head.begin(), head.end());
  p.bytes.insert(p.bytes.end(), tail.begin(), tail.end());
  return p;
}

std::optional<TcpSegment> DecodeTcp(const hw::Packet& p) {
  if (p.bytes.size() < kIpHeaderBytes + kTcpHeaderBytes || p.bytes[0] != kProtoTcp) {
    return std::nullopt;
  }
  TcpSegment s;
  std::span<const uint8_t> b = p.bytes;
  s.src_ip = LoadLe32(b, 1);
  s.dst_ip = LoadLe32(b, 5);
  size_t t = kIpHeaderBytes;
  s.src_port = LoadLe16(b, t);
  s.dst_port = LoadLe16(b, t + 2);
  s.seq = LoadLe32(b, t + 4);
  s.ack = LoadLe32(b, t + 8);
  s.flags = b[t + 12];
  s.window = LoadLe16(b, t + 14);
  s.checksum = LoadLe32(b, t + 16);
  s.payload.assign(b.begin() + kIpHeaderBytes + kTcpHeaderBytes, b.end());
  return s;
}

bool IsFullTcp(const hw::Packet& p) {
  return p.bytes.size() >= kIpHeaderBytes + kTcpHeaderBytes && p.bytes[kOffProto] == kProtoTcp;
}

IpAddr PeekDstIp(const hw::Packet& p) { return LoadLe32(p.bytes, kOffDstIp); }

uint64_t PeekFlowKey(const hw::Packet& p) {
  const Port port = LoadLe16(p.bytes, IsFullTcp(p) ? kIpHeaderBytes : kOffSrcPort);
  return (static_cast<uint64_t>(LoadLe32(p.bytes, kOffSrcIp)) << 16) | port;
}

std::optional<uint8_t> PeekTcpFlags(const hw::Packet& p) {
  if (!IsFullTcp(p)) {
    return std::nullopt;
  }
  return p.bytes[kIpHeaderBytes + 12];
}

}  // namespace exo::net
