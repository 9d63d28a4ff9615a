// Minimal user-level UDP library (Sec. 5.2.1 mentions ExOS's UDP/TCP network
// libraries built on Xok's timers, upcalls, and packet rings).
#ifndef EXO_NET_UDP_H_
#define EXO_NET_UDP_H_

#include <functional>
#include <map>

#include "net/packet.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "sim/engine.h"

namespace exo::net {

class UdpStack {
 public:
  struct Hooks {
    sim::Engine* engine = nullptr;
    const sim::CostModel* cost = nullptr;
    sim::CpuMeter* cpu = nullptr;  // nullptr => free CPU
    std::function<void(hw::Packet, sim::Cycles when)> transmit;
  };

  UdpStack(const Hooks& hooks, IpAddr ip) : hooks_(hooks), ip_(ip) {}

  Status Bind(Port port, std::function<void(const UdpDatagram&)> on_datagram) {
    if (handlers_.count(port) != 0) {
      return Status::kAlreadyExists;
    }
    handlers_[port] = std::move(on_datagram);
    return Status::kOk;
  }

  Status SendTo(Port src_port, IpAddr dst_ip, Port dst_port, std::span<const uint8_t> data) {
    if (data.size() > kMss) {
      return Status::kInvalidArgument;  // no fragmentation support
    }
    sim::Cycles cost = 250 + hooks_.cost->CopyCost(data.size());
    sim::Cycles when = hooks_.cpu != nullptr ? hooks_.cpu->Occupy(cost) : hooks_.engine->now();
    UdpDatagram d;
    d.src_ip = ip_;
    d.dst_ip = dst_ip;
    d.src_port = src_port;
    d.dst_port = dst_port;
    d.payload.assign(data.begin(), data.end());
    hooks_.transmit(EncodeUdp(d), when);
    return Status::kOk;
  }

  void Input(const hw::Packet& p) {
    auto d = DecodeUdp(p);
    if (!d.has_value()) {
      return;
    }
    auto it = handlers_.find(d->dst_port);
    if (it == handlers_.end()) {
      return;
    }
    sim::Cycles cost = 250 + hooks_.cost->CopyCost(d->payload.size());
    sim::Cycles when = hooks_.cpu != nullptr ? hooks_.cpu->Occupy(cost) : hooks_.engine->now();
    hooks_.engine->ScheduleAt(when, [cb = it->second, dg = std::move(*d)] { cb(dg); });
  }

 private:
  Hooks hooks_;
  IpAddr ip_;
  std::map<Port, std::function<void(const UdpDatagram&)>> handlers_;
};

}  // namespace exo::net

#endif  // EXO_NET_UDP_H_
