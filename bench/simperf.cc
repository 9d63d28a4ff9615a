// Simulator hot-path performance harness (wall-clock, not simulated time).
//
// Every other bench in this directory reports *simulated* seconds; this one reports
// how fast the simulator itself chews through its hot loops, so engine/scheduler/
// disk-queue optimizations (and regressions) are visible. Seven workloads, run in
// this order:
//
//   event_churn      raw sim::Engine schedule/cancel/fire churn shaped like the TCP
//                    timer pattern (arm, re-arm, cancel-after-fire)
//   trace_overhead   the event_churn loop with a tracer attached but disabled, so
//                    every dispatch pays the instrumentation branch and no more
//   predicate_storm  N blocked envs with downloaded wakeup predicates; a producer
//                    pokes one region at a time, so almost every predicate the
//                    scheduler could evaluate per decision is a waste
//   disk_deep_queue  thousands of queued requests exercising merge lookup and
//                    C-LOOK dispatch
//   global_fig4      a scaled-down Figure 4 job pool (grep, wc, cksum, sor; 16 jobs
//                    at concurrency 4) on one Xok/ExOS machine: the app kernels
//                    and the exos compute path
//   cluster_scale    an 8-machine balancer fleet on the cluster engine, run at 1
//                    and 4 threads: events per second and the parallel speedup
//   machine_build    construct and destroy paper machines (64 MB RAM, 512 MB
//                    disk): machines per second and host page faults per machine
//
// Results go to BENCH_simperf.json (override with --out FILE); `--check FILE`
// gates them against bench/simperf_baseline.json (bench/report.h). See
// docs/PERFORMANCE.md for how to read the numbers.
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include <thread>

#include "bench/global_common.h"
#include "bench/report.h"
#include "cluster/topology.h"
#include "hw/disk.h"
#include "hw/machine.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "udf/insn.h"
#include "xok/kernel.h"

namespace {

using namespace exo;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadResult {
  std::string name;
  uint64_t ops = 0;        // workload-defined unit (events, wakeups, requests, ...)
  double wall_s = 0;
  double sim_s = 0;        // simulated seconds the workload advanced
  uint64_t predicate_evals = 0;
  uint64_t predicate_skips = 0;
  double minflt_per_machine = 0;  // host minor page faults (machine_build)
};

// ---- Workload 1: event churn ----
//
// The TCP stack's timer pattern: every connection arms an RTO/ack timer, most are
// cancelled — often after an intervening event already fired them. The old engine
// kept every stale cancellation forever and scanned the list on each pop.
WorkloadResult EventChurn(uint64_t n) {
  sim::Engine eng;
  uint64_t fired = 0;
  std::deque<sim::Engine::EventId> armed;

  const double t0 = WallNow();
  for (uint64_t i = 0; i < n; ++i) {
    armed.push_back(eng.ScheduleAfter(20 + (i * 7) % 400, [&fired] { ++fired; }));
    if ((i & 7) < 6) {
      eng.RunNextEvent();
    }
    if (armed.size() >= 64) {
      // Cancel the oldest half: a mix of still-pending and long-fired ids.
      for (int k = 0; k < 32; ++k) {
        eng.Cancel(armed.front());
        armed.pop_front();
      }
    }
  }
  eng.RunUntilIdle();
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "event_churn";
  r.ops = n + n / 2;  // schedules + cancels
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  return r;
}

// ---- Workload 1b: trace overhead ----
//
// The event_churn loop with a Tracer attached but *disabled*: every dispatch pays
// the instrumentation site's predicted branch and nothing else. Compare ops/s
// against event_churn — the two should be within noise of each other.
WorkloadResult TraceOverhead(uint64_t n) {
  sim::Engine eng;
  trace::Tracer tracer;  // attached, never enabled
  eng.set_tracer(&tracer, 0);
  uint64_t fired = 0;
  std::deque<sim::Engine::EventId> armed;

  const double t0 = WallNow();
  for (uint64_t i = 0; i < n; ++i) {
    armed.push_back(eng.ScheduleAfter(20 + (i * 7) % 400, [&fired] { ++fired; }));
    if ((i & 7) < 6) {
      eng.RunNextEvent();
    }
    if (armed.size() >= 64) {
      for (int k = 0; k < 32; ++k) {
        eng.Cancel(armed.front());
        armed.pop_front();
      }
    }
  }
  eng.RunUntilIdle();
  const double t1 = WallNow();
  EXO_CHECK_EQ(tracer.emitted(), 0u);  // disabled tracing stored nothing

  WorkloadResult r;
  r.name = "trace_overhead";
  r.ops = n + n / 2;
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  return r;
}

// ---- Workload 2: predicate storm ----

// Wake when the 32-bit little-endian word at window[0] equals `round`.
udf::Program EqProgram(uint32_t round) {
  using udf::Insn;
  using udf::Op;
  udf::Program p;
  p.push_back(Insn{Op::kLdi, 1, 0, 0, 0});
  p.push_back(Insn{Op::kLd4, 2, 1, udf::kBufMeta, 0});
  p.push_back(Insn{Op::kLdi, 3, 0, 0, static_cast<int32_t>(round)});
  p.push_back(Insn{Op::kCeq, 4, 2, 3, 0});
  p.push_back(Insn{Op::kRet, 0, 4, 0, 0});
  return p;
}

WorkloadResult PredicateStorm(uint32_t n_envs, uint32_t rounds) {
  sim::Engine eng;
  hw::MachineConfig cfg;
  cfg.mem_frames = 256;
  cfg.disks.clear();
  hw::Machine machine(&eng, cfg);
  xok::XokKernel kernel(&machine);

  std::vector<xok::RegionId> rids(n_envs);
  for (uint32_t i = 0; i < n_envs; ++i) {
    auto rid = kernel.SysRegionCreate(8, {}, xok::kCredAny);
    EXO_CHECK(rid.ok());
    rids[i] = *rid;
  }

  const uint64_t evals0 = machine.counters().Get("xok.predicate_evals");
  const uint64_t skips0 = machine.counters().Get("xok.predicate_skips");

  for (uint32_t i = 0; i < n_envs; ++i) {
    kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&kernel, &rids, i,
                                                                   rounds] {
      for (uint32_t r = 1; r <= rounds; ++r) {
        xok::WakeupPredicate p;
        p.program = EqProgram(r);
        p.live_window = kernel.RegionBytes(rids[i]);
        p.watches.push_back(xok::WatchSpec{xok::WatchKind::kRegion, rids[i]});
        kernel.SysSleep(std::move(p));
      }
    });
  }
  kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&kernel, &rids,
                                                                 n_envs, rounds] {
    for (uint32_t r = 1; r <= rounds; ++r) {
      for (uint32_t i = 0; i < n_envs; ++i) {
        uint8_t buf[4];
        std::memcpy(buf, &r, 4);
        EXO_CHECK_EQ(kernel.SysRegionWrite(rids[i], 0, buf, 0), Status::kOk);
        kernel.SysYield();
      }
    }
  });

  const double t0 = WallNow();
  kernel.Run();
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "predicate_storm";
  r.ops = static_cast<uint64_t>(n_envs) * rounds;  // wakeups delivered
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  r.predicate_evals = machine.counters().Get("xok.predicate_evals") - evals0;
  r.predicate_skips = machine.counters().Get("xok.predicate_skips") - skips0;
  return r;
}

// ---- Workload 3: deep disk queues ----
WorkloadResult DiskDeepQueue(uint32_t bursts, uint32_t burst_size) {
  sim::Engine eng;
  hw::PhysMem mem(8);
  hw::DiskGeometry geom;
  geom.num_blocks = 1u << 16;
  hw::Disk disk(&eng, &mem, geom, 200);
  auto frame = mem.Alloc();
  EXO_CHECK(frame.ok());

  sim::Rng rng(7);
  uint64_t completed = 0;
  uint64_t submitted = 0;

  const double t0 = WallNow();
  for (uint32_t b = 0; b < bursts; ++b) {
    for (uint32_t j = 0; j < burst_size; ++j) {
      const hw::BlockId start = static_cast<hw::BlockId>(rng.Below(geom.num_blocks - 4));
      const bool write = (j & 1) != 0;
      disk.Submit({.write = write,
                   .start = start,
                   .nblocks = 1,
                   .frames = {*frame},
                   .done = [&completed](Status) { ++completed; }});
      ++submitted;
      if (j % 5 == 0) {
        // A contiguous follow-on: exercises the merge lookup.
        disk.Submit({.write = write,
                     .start = start + 1,
                     .nblocks = 1,
                     .frames = {*frame},
                     .done = [&completed](Status) { ++completed; }});
        ++submitted;
      }
    }
    eng.RunUntilIdle();
  }
  const double t1 = WallNow();
  EXO_CHECK_EQ(completed, submitted);

  WorkloadResult r;
  r.name = "disk_deep_queue";
  r.ops = submitted;
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  return r;
}

// ---- Workload 5: cluster_scale — the parallel conservative engine ----
//
// An 8-machine Topology (front-end balancer, 3 servers, 4 clients), one shard
// per machine. Clients run a closed loop of raw request frames through the
// balancer; each request triggers a PHOLD-style local event chain on its
// server (kChainEvents events, 50 cycles apart) before the reply goes back.
// The chains are the parallelizable CPU meat: at a 20 us rack lookahead every
// server shard advances ~a chain per window independently.
//
// The workload runs once at threads=1 and once at threads=N and EXO_CHECKs the
// merged per-machine counters are byte-identical — the determinism contract —
// then reports wall-clock speedup. ops counts server chain events (the
// dominant event population), so events_per_sec gates the serial lane exactly
// like the other workloads.

struct ClusterScaleRun {
  double wall_s = 0;
  double sim_s = 0;
  uint64_t ops = 0;
  uint64_t cross_messages = 0;
  uint64_t rounds = 0;
  std::string counters;  // merged dump: the equivalence witness
};

void ClusterChainStep(sim::Engine* eng, sim::Counters::Slot* work, uint32_t left,
                      hw::Nic* nic, hw::Packet reply) {
  ++*work;
  if (left == 0) {
    nic->Transmit(std::move(reply));
    return;
  }
  eng->ScheduleAfter(50, [eng, work, left, nic, reply = std::move(reply)]() mutable {
    ClusterChainStep(eng, work, left - 1, nic, std::move(reply));
  });
}

ClusterScaleRun RunClusterScaleOnce(uint32_t threads, uint32_t chain_events,
                                    sim::Cycles sim_cycles) {
  constexpr uint32_t kOutstanding = 32;  // closed-loop requests per client
  cluster::TopologyConfig tc;
  tc.servers = 3;
  tc.clients = 4;
  tc.front_end_lb = true;
  tc.threads = threads;
  tc.seed = 7;
  // Generous wire latencies widen the conservative window (the lookahead) so
  // each shard advances a meaty batch of chain events per round — the window
  // work must dwarf the barrier cost for parallelism to pay.
  tc.rack_latency_us = 100.0;
  tc.client_latency_us = 200.0;
  tc.lb_forward_cost = 100;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);

  for (uint32_t k = 0; k < tc.servers; ++k) {
    hw::Machine& srv = topo.server(k);
    sim::Engine* eng = &topo.engine_of(topo.server_id(k));
    auto* work = srv.counters().Handle("srv.chain_events");
    auto* rx = srv.counters().Handle("srv.rx");
    hw::Nic* nic = &srv.nic(0);
    nic->SetReceiveHandler([eng, work, rx, nic, chain_events](hw::Packet p) {
      ++*rx;
      // Echo becomes the reply once the chain drains: swap src/dst in place.
      for (int i = 0; i < 4; ++i) {
        std::swap(p.bytes[net::kOffSrcIp + i], p.bytes[net::kOffDstIp + i]);
      }
      std::swap(p.bytes[net::kOffSrcPort], p.bytes[net::kOffDstPort]);
      std::swap(p.bytes[net::kOffSrcPort + 1], p.bytes[net::kOffDstPort + 1]);
      ClusterChainStep(eng, work, chain_events, nic, std::move(p));
    });
  }
  for (uint32_t j = 0; j < tc.clients; ++j) {
    hw::Machine& cli = topo.client(j);
    auto* rx = cli.counters().Handle("cli.rx");
    hw::Nic* nic = &cli.nic(0);
    nic->SetReceiveHandler([rx, nic](hw::Packet p) {
      ++*rx;
      // Closed loop: the reply bounces straight back as the next request.
      for (int i = 0; i < 4; ++i) {
        std::swap(p.bytes[net::kOffSrcIp + i], p.bytes[net::kOffDstIp + i]);
      }
      std::swap(p.bytes[net::kOffSrcPort], p.bytes[net::kOffDstPort]);
      std::swap(p.bytes[net::kOffSrcPort + 1], p.bytes[net::kOffDstPort + 1]);
      nic->Transmit(std::move(p));
    });
    for (uint32_t o = 0; o < kOutstanding; ++o) {
      hw::Packet req;
      req.bytes.assign(64, 0);
      req.bytes[net::kOffProto] = net::kProtoUdp;
      const uint32_t src_ip = topo.client_ip(j);
      for (int i = 0; i < 4; ++i) {
        req.bytes[net::kOffSrcIp + i] = static_cast<uint8_t>(src_ip >> (8 * i));
        req.bytes[net::kOffDstIp + i] =
            static_cast<uint8_t>(cluster::Topology::kVip >> (8 * i));
      }
      const uint16_t port = static_cast<uint16_t>(3000 + j * 16 + o);
      req.bytes[net::kOffSrcPort] = static_cast<uint8_t>(port);
      req.bytes[net::kOffSrcPort + 1] = static_cast<uint8_t>(port >> 8);
      req.bytes[net::kOffDstPort] = 80;
      nic->Transmit(std::move(req));
    }
  }

  const double t0 = WallNow();
  topo.RunUntil(sim_cycles);
  const double t1 = WallNow();

  ClusterScaleRun r;
  r.wall_s = t1 - t0;
  r.sim_s = static_cast<double>(sim_cycles) / 200e6;
  for (uint32_t k = 0; k < tc.servers; ++k) {
    r.ops += topo.server(k).counters().Get("srv.chain_events");
  }
  r.cross_messages = topo.cluster().cross_messages();
  r.rounds = topo.cluster().rounds();
  r.counters = topo.MergedCountersDump();
  return r;
}

struct ClusterScaleResult {
  WorkloadResult serial;  // the threads=1 lane: gated like every workload
  double speedup = 0;     // t1 wall / tN wall
  uint32_t parallel_threads = 0;
  uint64_t cross_messages = 0;
  uint64_t rounds = 0;
};

ClusterScaleResult ClusterScale() {
  constexpr uint32_t kChain = 64;
  const sim::Cycles sim_cycles = 20'000'000;  // 100 ms simulated
  const uint32_t hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t par = std::min(4u, hw_threads);

  ClusterScaleRun t1 = RunClusterScaleOnce(1, kChain, sim_cycles);
  ClusterScaleRun tn = RunClusterScaleOnce(par, kChain, sim_cycles);
  EXO_CHECK_EQ(t1.ops, tn.ops);
  EXO_CHECK(t1.counters == tn.counters);  // determinism contract, enforced

  ClusterScaleResult r;
  r.serial.name = "cluster_scale";
  r.serial.ops = t1.ops;
  r.serial.wall_s = t1.wall_s;
  r.serial.sim_s = t1.sim_s;
  r.speedup = tn.wall_s > 0 ? t1.wall_s / tn.wall_s : 0;
  r.parallel_threads = par;
  r.cross_messages = t1.cross_messages;
  r.rounds = t1.rounds;
  return r;
}

// ---- Workload 4: scaled-down Figure 4 global load ----
WorkloadResult GlobalFig4(int jobs, int conc) {
  using namespace exo::bench;
  auto setup_shared = [](os::UnixEnv& env, int) { MakeSharedInputs(env, false); };
  std::vector<GlobalJob> pool = {
      {"grep",
       [](os::UnixEnv& e, int) {
         for (int r = 0; r < 3; ++r) {
           EXO_CHECK(apps::Grep(e, "symbol", "/shared/big.txt").ok());
         }
       },
       setup_shared},
      {"wc",
       [](os::UnixEnv& e, int) {
         for (int r = 0; r < 4; ++r) {
           EXO_CHECK(apps::Wc(e, "/shared/big.txt").ok());
         }
       },
       setup_shared},
      {"cksum",
       [](os::UnixEnv& e, int) { EXO_CHECK(apps::Cksum(e, "/shared/t", 20).ok()); },
       setup_shared},
      {"sor", [](os::UnixEnv& e, int) { EXO_CHECK(apps::Sor(e, 150, 30).ok()); }, {}},
  };

  const double t0 = WallNow();
  GlobalResult g = RunGlobal(os::Flavor::kXokExos, pool, jobs, conc, 11);
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "global_fig4";
  r.ops = static_cast<uint64_t>(jobs);
  r.wall_s = t1 - t0;
  r.sim_s = g.total;
  return r;
}

// ---- Workload 6: machine construction ----
//
// What every paper bench pays before its first simulated cycle. Only pages the
// machine touches should cost host time and memory, so the fault count per
// machine is gated alongside the rate.
WorkloadResult MachineBuild(uint32_t machines) {
  auto minflt = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
  };
  sim::Engine eng;
  const hw::MachineConfig cfg{.mem_frames = 16384,
                              .disks = {hw::DiskGeometry{.num_blocks = 131072}}};
  const long faults0 = minflt();
  const double t0 = WallNow();
  for (uint32_t i = 0; i < machines; ++i) {
    hw::Machine machine(&eng, cfg);
  }
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "machine_build";
  r.ops = machines;
  r.wall_s = t1 - t0;
  r.minflt_per_machine = static_cast<double>(minflt() - faults0) / machines;
  return r;
}

void PrintResult(const WorkloadResult& r) {
  std::printf("%-18s %12llu ops %9.3f s wall %12.0f ops/s %10.3f sim-s %8.2f sim-s/wall-s\n",
              r.name.c_str(), static_cast<unsigned long long>(r.ops), r.wall_s,
              static_cast<double>(r.ops) / r.wall_s, r.sim_s, r.sim_s / r.wall_s);
  if (r.predicate_evals + r.predicate_skips > 0) {
    std::printf("%-18s %12s evals=%llu skips=%llu\n", "", "",
                static_cast<unsigned long long>(r.predicate_evals),
                static_cast<unsigned long long>(r.predicate_skips));
  }
  if (r.name == "machine_build") {
    std::printf("%-18s %12s minflt_per_machine=%.1f\n", "", "", r.minflt_per_machine);
  }
}

}  // namespace

int main(int argc, char** argv) {
  exo::bench::Report report("simperf", "BENCH_simperf.json", argc, argv);
  exo::bench::PrintHeader("simperf: simulator hot-path wall-clock throughput");

  std::vector<WorkloadResult> results;
  results.push_back(EventChurn(150000));
  PrintResult(results.back());
  results.push_back(TraceOverhead(150000));
  PrintResult(results.back());
  results.push_back(PredicateStorm(1000, 10));
  PrintResult(results.back());
  results.push_back(DiskDeepQueue(8, 3000));
  PrintResult(results.back());
  results.push_back(GlobalFig4(16, 4));
  PrintResult(results.back());
  const ClusterScaleResult cs = ClusterScale();
  results.push_back(cs.serial);
  PrintResult(results.back());
  const uint32_t hw_threads = std::thread::hardware_concurrency();
  std::printf("%-18s %12s threads=%u speedup=%.2fx rounds=%llu cross_msgs=%llu "
              "hw_threads=%u\n",
              "", "", cs.parallel_threads, cs.speedup,
              static_cast<unsigned long long>(cs.rounds),
              static_cast<unsigned long long>(cs.cross_messages), hw_threads);
  const WorkloadResult build = MachineBuild(2000);
  results.push_back(build);
  PrintResult(build);

  for (const WorkloadResult& r : results) {
    const double ops = static_cast<double>(r.ops);
    report.Set(r.name + ".ops", ops);
    report.Set(r.name + ".wall_s", r.wall_s);
    report.Set(r.name + ".events_per_sec", ops / r.wall_s);
    report.Set(r.name + ".sim_s", r.sim_s);
    report.Set(r.name + ".sim_s_per_wall_s", r.sim_s / r.wall_s);
    report.Set(r.name + ".predicate_evals", static_cast<double>(r.predicate_evals));
    report.Set(r.name + ".predicate_skips", static_cast<double>(r.predicate_skips));
  }
  report.Set("machine_build.minflt_per_machine", build.minflt_per_machine);
  // threads=1 vs N equivalence is not a metric: ClusterScale EXO_CHECKs it.
  report.Set("hw_threads", hw_threads);
  report.Set("cluster.threads", cs.parallel_threads);
  report.Set("cluster.speedup", cs.speedup);
  report.Set("cluster.rounds", static_cast<double>(cs.rounds));
  report.Set("cluster.cross_messages", static_cast<double>(cs.cross_messages));
  // The speedup floor needs 4 threads on 4 hardware threads to mean anything.
  if (cs.parallel_threads >= 4 && hw_threads >= 4) {
    report.Set("cluster.speedup_at_4_threads", cs.speedup);
  } else {
    report.NotMeasured("cluster.speedup_at_4_threads",
                       "hw_threads=" + std::to_string(hw_threads));
  }
  return report.Finish();
}
