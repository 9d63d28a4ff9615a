// Unit tests for the simulation core: event engine, fibers, RNG, counters, cost
// model, and the fault-schedule codec/injector surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/disk.h"
#include "hw/nic.h"
#include "hw/phys_mem.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/fiber.h"
#include "sim/rng.h"
#include "sim/status.h"
#include "trace/trace.h"

namespace exo::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_FALSE(e.HasPendingEvents());
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(30, [&] { order.push_back(3); });
  e.ScheduleAt(10, [&] { order.push_back(1); });
  e.ScheduleAt(20, [&] { order.push_back(2); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(EngineTest, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(5, [&] { order.push_back(1); });
  e.ScheduleAt(5, [&] { order.push_back(2); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, AdvanceFiresDueEvents) {
  Engine e;
  bool fired = false;
  e.ScheduleAt(100, [&] { fired = true; });
  e.Advance(50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 50u);
  e.Advance(50);
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineTest, AdvancePastEventStillEndsAtTarget) {
  Engine e;
  Cycles when_fired = 0;
  e.ScheduleAt(10, [&] { when_fired = e.now(); });
  e.Advance(100);
  EXPECT_EQ(when_fired, 10u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto id = e.ScheduleAt(10, [&] { fired = true; });
  e.Cancel(id);
  e.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      e.ScheduleAfter(10, chain);
    }
  };
  e.ScheduleAfter(10, chain);
  e.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(EngineTest, NextEventTimeSkipsCancelled) {
  Engine e;
  auto id = e.ScheduleAt(5, [] {});
  e.ScheduleAt(9, [] {});
  e.Cancel(id);
  EXPECT_EQ(e.NextEventTime(), 9u);
}

TEST(EngineTest, SameTimestampOrderSurvivesInterleavedCancels) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(e.ScheduleAt(5, [&order, i] { order.push_back(i); }));
  }
  e.Cancel(ids[1]);
  e.Cancel(ids[4]);
  e.Cancel(ids[7]);
  // Late arrivals at the same timestamp still fire after the survivors.
  e.ScheduleAt(5, [&order] { order.push_back(8); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 8}));
}

TEST(EngineTest, CancelAfterFireIsNoOp) {
  Engine e;
  auto id = e.ScheduleAt(10, [] {});
  e.RunUntilIdle();
  e.Cancel(id);  // must not disturb anything, including a reuse of the same slot
  bool fired = false;
  auto id2 = e.ScheduleAt(20, [&] { fired = true; });
  e.Cancel(id);  // stale id again, now that the slot is re-armed for id2
  e.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_NE(id, id2);
}

TEST(EngineTest, RunUntilLandsExactlyOnTargetWithNoEvents) {
  Engine e;
  e.RunUntil(1234);
  EXPECT_EQ(e.now(), 1234u);
  EXPECT_FALSE(e.HasPendingEvents());
  // And with an event strictly before the target: clock still ends at t.
  Cycles fired_at = 0;
  e.ScheduleAt(2000, [&] { fired_at = e.now(); });
  e.RunUntil(3000);
  EXPECT_EQ(fired_at, 2000u);
  EXPECT_EQ(e.now(), 3000u);
}

TEST(EngineTest, EventIdsAreNeverZero) {
  // Callers (TCP timers) use 0 as the "no event armed" sentinel.
  Engine e;
  for (int i = 0; i < 100; ++i) {
    auto id = e.ScheduleAfter(1, [] {});
    EXPECT_NE(id, 0u);
    e.RunUntilIdle();
  }
}

TEST(EngineTest, AcceptsMoveOnlyCallables) {
  Engine e;
  auto big = std::make_unique<int>(41);
  int got = 0;
  e.ScheduleAt(1, [p = std::move(big), &got] { got = *p + 1; });
  e.RunUntilIdle();
  EXPECT_EQ(got, 42);
}

TEST(EngineTest, SlotsAreRecycledAcrossChurn) {
  Engine e;
  for (int round = 0; round < 10'000; ++round) {
    e.ScheduleAfter(1, [] {});
    e.ScheduleAfter(2, [] {});
    e.RunUntilIdle();
  }
  // The slab never grows past the peak concurrency (2), not the total churn.
  EXPECT_LE(e.event_slot_count(), 2u);
}

// Regression: ids of already-fired events used to accumulate forever in a
// cancelled-id vector that every pop scanned linearly, so a long-running sim
// leaked memory and went quadratic. Cancelling 1M fired ids must be O(1) each
// and leave no residue (with the old representation this test would not finish).
TEST(EngineTest, CancellingAMillionFiredIdsStaysBounded) {
  Engine e;
  std::vector<Engine::EventId> fired;
  fired.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    fired.push_back(e.ScheduleAfter(1, [] {}));
    e.RunUntilIdle();
  }
  for (auto id : fired) {
    e.Cancel(id);
  }
  EXPECT_LE(e.event_slot_count(), 1u);   // one slot, reused a million times
  EXPECT_EQ(e.queued_entry_count(), 0u);  // stale cancels queue no corpses
  bool sentinel = false;
  e.ScheduleAfter(1, [&] { sentinel = true; });
  e.RunUntilIdle();
  EXPECT_TRUE(sentinel);
}

TEST(FiberTest, RunsBodyToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.done());
  f.Resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(FiberTest, SuspendAndResumeRoundTrips) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::Suspend();
    order.push_back(3);
    Fiber::Suspend();
    order.push_back(5);
  });
  f.Resume();
  order.push_back(2);
  f.Resume();
  order.push_back(4);
  f.Resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::Current(); });
  f.Resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

TEST(FiberTest, ManyFibersInterleave) {
  std::vector<int> order;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < 4; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&order, i] {
      order.push_back(i);
      Fiber::Suspend();
      order.push_back(i + 10);
    }));
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng r(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = r.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(CountersTest, HandleIsStableAndShared) {
  Counters c;
  auto* h1 = c.Handle("syscalls");
  auto* h2 = c.Handle("syscalls");
  EXPECT_EQ(h1, h2);
  *h1 += 5;
  EXPECT_EQ(c.Get("syscalls"), 5u);
}

TEST(CountersTest, ResetZeroesAll) {
  Counters c;
  c.Add("a", 3);
  c.Add("b", 4);
  c.Reset();
  EXPECT_EQ(c.Get("a"), 0u);
  EXPECT_EQ(c.Get("b"), 0u);
}

TEST(CostModelTest, MicrosecondRoundTrip) {
  CostModel m = CostModel::PentiumPro200();
  EXPECT_EQ(m.FromMicros(1.0), 200u);
  EXPECT_DOUBLE_EQ(m.ToMicros(200), 1.0);
  EXPECT_DOUBLE_EQ(m.ToSeconds(200'000'000), 1.0);
}

TEST(CostModelTest, GetpidCalibration) {
  // Sec. 7.1: getpid is 270 cycles on OpenBSD, 100 as a rerouted procedure call.
  CostModel m = CostModel::PentiumPro200();
  EXPECT_EQ(m.trap_round_trip + m.unix_syscall_dispatch + m.getpid_body, 270u);
  EXPECT_EQ(m.libos_procedure_call + m.getpid_body, 100u);
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_EQ(ok.status(), Status::kOk);

  Result<int> err(Status::kNotFound);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status(), Status::kNotFound);
}

TEST(StatusTest, NamesAreDistinct) {
  EXPECT_STREQ(StatusName(Status::kOk), "OK");
  EXPECT_STREQ(StatusName(Status::kTainted), "TAINTED");
  EXPECT_STRNE(StatusName(Status::kBusy), StatusName(Status::kWouldBlock));
}

// ---- Fault-schedule codec hardening ----
//
// The parsers are the trust boundary for replayed reproducers (CI artifacts,
// bug reports, hand-edited seed lines): any malformed token must yield an
// empty schedule plus a diagnostic — never a silent best-effort misparse that
// would replay the WRONG schedule and "not reproduce".

TEST(FaultCodecTest, MalformedInputsRejectLoudly) {
  const char* bad[] = {
      "x@1",           // unknown kind
      "d@0",           // indices are 1-based
      "w@0",
      "d@",            // missing index
      "@3",            // missing kind
      "d3",            // missing '@'
      "c@5",           // 'c' requires :arg (the byte to flip)
      "m@4",           // 'm' requires :arg (the victim LBA)
      "r@4",           // 'r' requires :arg (the byte offset)
      "d@3:1",         // 'd' forbids :arg
      "w@2:7",         // 'w' forbids :arg
      "l@2:7",         // 'l' forbids :arg
      "c@5:",          // empty arg
      "c@5:9x",        // trailing garbage in arg
      "d@18446744073709551616",  // 2^64: overflow
      "d@3 d@3",       // duplicate consultation index
      "d@3 c@3:7",     // duplicate index across kinds of the wire stream
      "w@3 m@3:9",     // duplicate within the disk write stream
      "l@2 r@2:1",     // duplicate within the disk read stream
      "d@1 oops",      // valid token then garbage
      "k@1000:2,b@2000:2",  // tokens are space-separated, never comma-separated
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_TRUE(ParseFaultSchedule(text, &err).empty()) << text;
    EXPECT_NE(err.find("token"), std::string::npos) << text << " -> " << err;
  }

  // Duplicates are per stream: wire, disk write and disk read are three
  // streams, so d@3/w@3/l@3 all coexist.
  std::string err;
  EXPECT_EQ(ParseFaultSchedule("d@3 w@3 l@3", &err).size(), 3u) << err;

  // Whitespace-only input is a valid empty schedule, not an error: the
  // diagnostic out-param is cleared, not populated.
  err = "sentinel";
  EXPECT_TRUE(ParseFaultSchedule("   ", &err).empty());
  EXPECT_EQ(err, "");
}

// Fuzz the round-trip: any valid schedule survives Format -> Parse unchanged.
// Indices are strictly increasing per stream (that is what real recordings
// look like and what the duplicate check demands).
TEST(FaultCodecTest, FuzzedSchedulesRoundTrip) {
  Rng rng(20260809);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<FaultEvent> events;
    uint64_t wire_idx = 0;
    uint64_t write_idx = 0;
    uint64_t read_idx = 0;
    uint64_t time = 0;
    const uint32_t n = rng.Below(12);
    for (uint32_t i = 0; i < n; ++i) {
      static constexpr char kKinds[] = {'d', 'c', 'u', 'w', 'm', 'l', 'r', 'k', 'b'};
      const char kind = kKinds[rng.Below(9)];
      uint64_t* stream = IsWireFaultKind(kind)           ? &wire_idx
                         : IsMachineFaultKind(kind)      ? &time
                         : (kind == 'w' || kind == 'm') ? &write_idx
                                                        : &read_idx;
      *stream += 1 + rng.Below(1000);
      const bool has_arg = kind == 'c' || kind == 'm' || kind == 'r' ||
                           IsMachineFaultKind(kind);
      events.push_back(FaultEvent{kind, *stream, has_arg ? rng.Below(1 << 20) : 0});
    }
    const std::string line = FormatFaultSchedule(events);
    std::string err;
    const auto parsed = ParseFaultSchedule(line, &err);
    ASSERT_TRUE(parsed == events) << "iter " << iter << ": \"" << line << "\" -> " << err;
  }
}

// Machine kill/reboot events: k@<cycle>:<machine> / b@<cycle>:<machine>,
// keyed by absolute time rather than consultation index.
TEST(FaultCodecTest, MachineScheduleRoundTripAndDuplicateRules) {
  std::string err;
  const auto sched = ParseFaultSchedule("k@1000:2 b@6000:2 k@6000:3", &err);
  ASSERT_EQ(sched.size(), 3u) << err;
  EXPECT_EQ(sched[0].kind, 'k');
  EXPECT_EQ(sched[0].index, 1000u);
  EXPECT_EQ(sched[0].arg, 2u);
  EXPECT_EQ(sched[2].kind, 'k');
  EXPECT_EQ(sched[2].arg, 3u);
  EXPECT_TRUE(ParseFaultSchedule(FormatFaultSchedule(sched), &err) == sched);

  // Same machine, same cycle: ambiguous order, rejected. Different machines
  // may share a cycle (the arg disambiguates the shared stream).
  EXPECT_TRUE(ParseFaultSchedule("k@5:1 b@5:1", &err).empty());
  EXPECT_NE(err.find("token"), std::string::npos);
  EXPECT_EQ(ParseFaultSchedule("k@5:1 k@5:2", &err).size(), 2u) << err;
  // The :machine arg is mandatory for both kinds.
  EXPECT_TRUE(ParseFaultSchedule("k@5", &err).empty());
  EXPECT_TRUE(ParseFaultSchedule("b@5", &err).empty());

  // Machine events mix with the other layers in one line; a machine time
  // never clashes with a consultation index of another stream.
  const auto combined = ParseFaultSchedule("d@100 w@3 k@100:0 b@200:0", &err);
  ASSERT_EQ(combined.size(), 4u) << err;
  EXPECT_EQ(FormatFaultSchedule(combined), "d@100 w@3 k@100:0 b@200:0");
}

// RecordMachine lands machine faults on the same stats/counter/replay surface
// as every other injected fault.
TEST(FaultInjectorTest, RecordMachineCountsAndReplays) {
  FaultPlan plan;
  FaultInjector faults(plan);
  Counters counters;
  faults.AttachCounters(&counters);
  faults.RecordMachine(FaultEvent{'k', 1000, 2});
  faults.RecordMachine(FaultEvent{'b', 2000, 2});
  EXPECT_EQ(faults.stats().machine_kills, 1u);
  EXPECT_EQ(faults.stats().machine_reboots, 1u);
  EXPECT_EQ(counters.Get("fault.machine_kills"), 1u);
  EXPECT_EQ(counters.Get("fault.machine_reboots"), 1u);
  ASSERT_EQ(faults.events().size(), 2u);
  EXPECT_EQ(FormatFaultSchedule(faults.events()), "k@1000:2 b@2000:2");
  ASSERT_EQ(faults.log().size(), 2u);
}

// ---- Injector attachment and cut-point bookkeeping ----

// First tracer attachment wins (a Disk and a Link sharing one injector both
// try): injected faults become instants on the first tracer only.
TEST(FaultInjectorTest, AttachTracerFirstWins) {
  FaultPlan plan;
  FaultInjector faults(plan);
  Engine engine;
  trace::Tracer t1;
  trace::Tracer t2;
  t1.Enable();
  t2.Enable();

  faults.AttachTracer(&t1, &engine);
  faults.AttachTracer(&t2, &engine);  // second attach: ignored
  faults.RecordMachine(FaultEvent{'k', 1000, 2});

  ASSERT_EQ(t1.Records().size(), 1u);
  EXPECT_STREQ(t1.Records()[0].name, "machine_kill");
  EXPECT_TRUE(t2.Records().empty());
}

// Counters follow the same contract, and injected faults land in fault.*.
TEST(FaultInjectorTest, AttachCountersFirstWinsAndCounts) {
  FaultPlan plan;
  plan.script = {{'d', 1, 0}, {'w', 1, 0}, {'l', 1, 0}};
  FaultInjector faults(plan);
  Counters c1;
  Counters c2;
  faults.AttachCounters(&c1);
  faults.AttachCounters(&c2);  // ignored: first attachment wins

  EXPECT_EQ(faults.NextWireFate(100), FaultInjector::WireFate::kDrop);
  EXPECT_EQ(faults.NextWriteFate(7, 64), FaultInjector::WriteFate::kLost);
  EXPECT_EQ(faults.NextReadFate(7, 4096), FaultInjector::ReadFate::kLatent);

  EXPECT_EQ(c1.Get("fault.net_drops"), 1u);
  EXPECT_EQ(c1.Get("fault.disk_lost_writes"), 1u);
  EXPECT_EQ(c1.Get("fault.disk_latent"), 1u);
  EXPECT_EQ(c2.Get("fault.net_drops"), 0u);
}

// The k-th OnBlockWritten returns true (power is lost after it) and the cut
// never re-fires.
TEST(FaultInjectorTest, PowerCutFiresAtExactlyKthWrite) {
  FaultPlan plan;
  plan.power_cut_after_blocks = 3;
  FaultInjector faults(plan);

  EXPECT_FALSE(faults.OnBlockWritten(10));  // write 1
  EXPECT_FALSE(faults.OnBlockWritten(11));  // write 2
  EXPECT_TRUE(faults.OnBlockWritten(12));   // write 3: the cut
  EXPECT_FALSE(faults.OnBlockWritten(13));  // never re-fires
  EXPECT_EQ(faults.stats().power_cuts, 1u);
  EXPECT_EQ(faults.log(), (std::vector<std::string>{"power-cut after-block=12 writes=3"}));

  // k = 0 disables the mechanism entirely.
  FaultInjector off(FaultPlan{});
  EXPECT_FALSE(off.OnBlockWritten(1));
}

// ---- One injector, two layers, one replayable stream ----

struct SharedRun {
  std::vector<std::string> log;
  std::vector<FaultEvent> events;
};

// One injector armed on both a disk and a link. Each round sends two frames,
// then writes a block and reads it back, so the layers' consultations
// interleave on the one engine.
SharedRun RunSharedDiskAndLink(const FaultPlan& plan) {
  Engine engine;
  hw::PhysMem mem(16);
  hw::Disk disk(&engine, &mem, hw::DiskGeometry{}, 200);
  hw::Nic a(0), b(1);
  hw::Link link(&engine, 100.0, 40.0, 200);
  link.Connect(&a, &b);
  b.SetReceiveHandler([](hw::Packet) {});
  FaultInjector faults(plan);
  disk.SetFaultInjector(&faults);
  link.SetFaultInjector(&faults);
  const hw::FrameId f = *mem.Alloc();
  for (uint32_t i = 0; i < 40; ++i) {
    a.Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
    a.Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
    disk.Submit({.write = true, .start = i, .nblocks = 1, .frames = {f}, .done = {}});
    disk.Submit({.write = false, .start = i, .nblocks = 1, .frames = {f}, .done = {}});
    engine.RunUntilIdle();
  }
  return {faults.log(), faults.events()};
}

// A rate-mode run records wire and media faults into one events() stream in
// consultation order; replaying that stream as FaultPlan::script re-executes
// the identical faults: same log, same events.
TEST(FaultInjectorTest, SharedDiskAndLinkRecordOneReplayableStream) {
  FaultPlan plan;
  plan.seed = 7;
  plan.net_drop_rate = 0.1;
  plan.net_corrupt_rate = 0.1;
  plan.net_duplicate_rate = 0.1;
  plan.disk_lost_rate = 0.1;
  plan.disk_misdirect_rate = 0.1;
  plan.disk_rot_rate = 0.1;
  plan.disk_latent_rate = 0.1;
  const SharedRun recorded = RunSharedDiskAndLink(plan);

  std::string kinds;
  for (const FaultEvent& e : recorded.events) {
    kinds += e.kind;
  }
  for (char k : std::string("dcuwmlr")) {
    EXPECT_NE(kinds.find(k), std::string::npos) << "no '" << k << "' in " << kinds;
  }
  // Every injected fault is a replayable event (no request errors or cuts armed).
  EXPECT_EQ(recorded.events.size(), recorded.log.size());

  FaultPlan replay;
  replay.script = recorded.events;
  const SharedRun replayed = RunSharedDiskAndLink(replay);
  EXPECT_EQ(replayed.log, recorded.log);
  EXPECT_EQ(FormatFaultSchedule(replayed.events), FormatFaultSchedule(recorded.events));
}

}  // namespace
}  // namespace exo::sim
