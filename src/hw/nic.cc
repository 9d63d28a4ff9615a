#include "hw/nic.h"

#include <algorithm>
#include <utility>

namespace exo::hw {

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
  if (probe_responder_ && !p.bytes.empty() && p.bytes[0] == kProbeProto &&
      p.bytes.size() >= kProbeFrameBytes) {
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

void Link::Send(Nic* from, Packet p) {
  EXO_CHECK(from == a_ || from == b_);
  Nic* to = from == a_ ? b_ : a_;
  Direction& dir = from == a_ ? dir_ab_ : dir_ba_;

  const uint64_t wire_bytes =
      std::max<uint64_t>(p.bytes.size(), kMinFrameBytes) + kFrameWireOverhead;
  const sim::Cycles serialize =
      static_cast<sim::Cycles>(static_cast<double>(wire_bytes) * cycles_per_byte_);

  const sim::Cycles start = std::max(engine_->now(), dir.busy_until);
  dir.busy_until = start + serialize;
  const sim::Cycles arrival = dir.busy_until + latency_cycles_;

  const bool tracing = tracer_ != nullptr && tracer_->enabled(trace::Category::kNet);
  if (tracing) {
    // Serialization windows per direction never overlap (start >= prior busy_until).
    tracer_->Begin(trace::Category::kNet, dir.track, "wire", start, wire_bytes);
    tracer_->End(trace::Category::kNet, dir.track, "wire", dir.busy_until, wire_bytes);
  }

  if (faults_ != nullptr) {
    switch (faults_->NextWireFate(p.bytes.size())) {
      case sim::FaultInjector::WireFate::kDrop:
        return;  // wire time was consumed, but the frame never arrives
      case sim::FaultInjector::WireFate::kCorrupt:
        p.bytes[faults_->CorruptionOffset()] ^= 0xff;
        break;
      case sim::FaultInjector::WireFate::kDuplicate: {
        // The duplicate trails the original by one serialization slot, as if the
        // sender's retransmit logic fired spuriously.
        Packet copy = p;
        dir.busy_until += serialize;
        if (tracing) {
          tracer_->Begin(trace::Category::kNet, dir.track, "wire_dup",
                         dir.busy_until - serialize, wire_bytes);
          tracer_->End(trace::Category::kNet, dir.track, "wire_dup", dir.busy_until,
                       wire_bytes);
        }
        engine_->ScheduleAt(dir.busy_until + latency_cycles_,
                            [to, copy = std::move(copy)]() mutable {
          to->Deliver(std::move(copy));
        });
        break;
      }
      case sim::FaultInjector::WireFate::kDeliver:
        break;
    }
  }

  if (tracing) {
    tracer_->Instant(trace::Category::kNet, dir.track, "arrive", arrival, wire_bytes);
  }
  engine_->ScheduleAt(arrival, [to, p = std::move(p)]() mutable { to->Deliver(std::move(p)); });
}

}  // namespace exo::hw
