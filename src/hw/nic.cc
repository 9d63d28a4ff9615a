#include "hw/nic.h"

#include <algorithm>
#include <utility>

#include "sim/bytes.h"

namespace exo::hw {

Packet MakeProbeFrame(uint32_t dst_ip, uint64_t seq) {
  Packet p;
  p.bytes.reserve(kProbeFrameBytes);
  p.bytes.push_back(kProbeProto);
  sim::AppendLe32(p.bytes, 0);
  sim::AppendLe32(p.bytes, dst_ip);
  sim::AppendLe32(p.bytes, static_cast<uint32_t>(seq));
  sim::AppendLe32(p.bytes, static_cast<uint32_t>(seq >> 32));
  return p;
}

bool IsProbeFrame(const Packet& p) {
  return p.bytes.size() >= kProbeFrameBytes && p.bytes[0] == kProbeProto;
}

uint64_t ProbeSeq(const Packet& p) {
  return sim::LoadLe32(p.bytes, 9) | (static_cast<uint64_t>(sim::LoadLe32(p.bytes, 13)) << 32);
}

bool Nic::Transmit(Packet p) {
  EXO_CHECK(link_ != nullptr);
  EXO_CHECK_LE(p.bytes.size(), kMaxFrameBytes);
  if (!up_) {
    ++stats_.tx_rejected;
    if (rejected_counter_ != nullptr) {
      ++*rejected_counter_;
    }
    return false;
  }
  ++stats_.tx_packets;
  stats_.tx_bytes += p.bytes.size();
  link_->Send(this, std::move(p));
  return true;
}

void Nic::Deliver(Packet p) {
  if (!up_) {
    // The host is dead: frames already on the wire arrive at silicon nobody
    // powers. The sender paid for the wire, so this is loss, not backpressure.
    ++stats_.dropped;
    if (dropped_counter_ != nullptr) {
      ++*dropped_counter_;
    }
    return;
  }
  if (probe_responder_ && IsProbeFrame(p)) {
    // Firmware echo: account the rx, swap prober/destination ips, and send the
    // same frame back. Runs before the host handler — liveness needs no stack.
    ++stats_.rx_packets;
    stats_.rx_bytes += p.bytes.size();
    for (size_t i = 1; i <= 4; ++i) {
      std::swap(p.bytes[i], p.bytes[i + 4]);
    }
    Transmit(std::move(p));
    return;
  }
  ++stats_.rx_packets;
  stats_.rx_bytes += p.bytes.size();
  if (rx_handler_) {
    rx_handler_(std::move(p));
  } else {
    ++stats_.dropped;
    if (dropped_counter_ != nullptr) {
      ++*dropped_counter_;
    }
  }
}

void Link::SetFaultInjectorFor(const Nic* sender, sim::FaultInjector* faults) {
  Direction& dir = direction_from(sender);
  dir.faults = faults;
  if (dir.faults != nullptr && dir.tracer != nullptr) {
    dir.faults->AttachTracer(dir.tracer, engine_for(sender));
  }
}

void Link::AttachTracerFor(const Nic* sender, trace::Tracer* tracer, const std::string& name) {
  Direction& dir = direction_from(sender);
  dir.tracer = tracer;
  if (dir.tracer != nullptr) {
    dir.track = dir.tracer->NewTrack(name);
    if (dir.faults != nullptr) {
      dir.faults->AttachTracer(dir.tracer, engine_for(sender));
    }
  }
}

void Link::Send(Nic* from, Packet p) {
  Direction& dir = direction_from(from);
  Nic* to = from == a_ ? b_ : a_;

  const uint64_t wire_bytes =
      std::max<uint64_t>(p.bytes.size(), kMinFrameBytes) + kFrameWireOverhead;
  const sim::Cycles serialize =
      static_cast<sim::Cycles>(static_cast<double>(wire_bytes) * cycles_per_byte_);

  const sim::Cycles start = std::max(engine_for(from)->now(), dir.busy_until);
  dir.busy_until = start + serialize;
  const sim::Cycles arrival = dir.busy_until + latency_cycles_;

  trace::Tracer* tracer = dir.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled(trace::Category::kNet);
  if (tracing) {
    // Serialization windows per direction never overlap (start >= prior busy_until).
    tracer->Begin(trace::Category::kNet, dir.track, "wire", start, wire_bytes);
    tracer->End(trace::Category::kNet, dir.track, "wire", dir.busy_until, wire_bytes);
  }

  if (dir.faults != nullptr) {
    switch (dir.faults->NextWireFate(p.bytes.size())) {
      case sim::FaultInjector::WireFate::kDrop:
        return;  // wire time was consumed, but the frame never arrives
      case sim::FaultInjector::WireFate::kCorrupt:
        p.bytes[dir.faults->CorruptionOffset()] ^= 0xff;
        break;
      case sim::FaultInjector::WireFate::kDuplicate: {
        // The duplicate trails the original by one serialization slot, as if the
        // sender's retransmit logic fired spuriously.
        dir.busy_until += serialize;
        if (tracing) {
          tracer->Begin(trace::Category::kNet, dir.track, "wire_dup",
                        dir.busy_until - serialize, wire_bytes);
          tracer->End(trace::Category::kNet, dir.track, "wire_dup", dir.busy_until,
                      wire_bytes);
        }
        Arrive(to, dir.busy_until + latency_cycles_, p);
        break;
      }
      case sim::FaultInjector::WireFate::kDeliver:
        break;
    }
  }

  if (tracing) {
    tracer->Instant(trace::Category::kNet, dir.track, "arrive", arrival, wire_bytes);
  }
  Arrive(to, arrival, std::move(p));
}

void Link::Arrive(Nic* to, sim::Cycles when, Packet p) {
  engine_->ScheduleAt(when, [to, p = std::move(p)]() mutable { to->Deliver(std::move(p)); });
}

}  // namespace exo::hw
