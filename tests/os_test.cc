// Integration tests: booted systems (all four flavors), processes, pipes, and the
// real applications running end-to-end over the full stack.
#include <gtest/gtest.h>

#include <memory>

#include "apps/lz.h"
#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "apps/xcp.h"
#include "exos/system.h"

namespace exo::os {
namespace {

hw::MachineConfig TestMachine() {
  hw::MachineConfig cfg;
  cfg.mem_frames = 8192;
  cfg.disks = {hw::DiskGeometry{.num_blocks = 16384}};  // 64 MB disk
  return cfg;
}

class OsFlavorTest : public ::testing::TestWithParam<Flavor> {
 protected:
  OsFlavorTest() : machine_(&engine_, TestMachine()) {}

  std::unique_ptr<System> BootSystem(SystemOptions opts = {}) {
    auto sys = std::make_unique<System>(&machine_, GetParam(), opts);
    EXO_CHECK_EQ(sys->Boot(), Status::kOk);
    return sys;
  }

  sim::Engine engine_;
  hw::Machine machine_;
};

TEST_P(OsFlavorTest, FileRoundTripThroughProcess) {
  auto sys = BootSystem();
  std::vector<uint8_t> got;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7);
    }
    auto fd = env.Open("/data.bin", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, data).ok());
    ASSERT_EQ(env.Close(*fd), Status::kOk);

    auto fd2 = env.Open("/data.bin", false);
    ASSERT_TRUE(fd2.ok());
    got.resize(data.size());
    auto n = env.Read(*fd2, got);
    ASSERT_TRUE(n.ok());
    got.resize(*n);
    EXPECT_EQ(got, data);
  });
  sys->Run();
  EXPECT_EQ(got.size(), 10000u);
}

TEST_P(OsFlavorTest, SpawnAndWaitChildren) {
  auto sys = BootSystem();
  std::vector<int> order;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto pid = env.Spawn("wc", [&](UnixEnv& child) {
      order.push_back(1);
      child.Compute(10'000);
    });
    ASSERT_TRUE(pid.ok());
    auto code = env.Wait(*pid);
    ASSERT_TRUE(code.ok());
    order.push_back(2);
  });
  sys->Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sys->proc_records().size(), 2u);
}

TEST_P(OsFlavorTest, PipePingPong) {
  auto sys = BootSystem();
  int rounds_done = 0;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto ab = env.Pipe();
    auto ba = env.Pipe();
    ASSERT_TRUE(ab.ok());
    ASSERT_TRUE(ba.ok());
    auto child = env.Spawn("wc", [&, ab = *ab, ba = *ba](UnixEnv& c) {
      std::vector<uint8_t> buf(1);
      for (int i = 0; i < 10; ++i) {
        auto n = c.Read(ab.first, buf);
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, 1u);
        buf[0] += 1;
        ASSERT_TRUE(c.Write(ba.second, buf).ok());
      }
    });
    ASSERT_TRUE(child.ok());
    std::vector<uint8_t> buf = {0};
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(env.Write(ab->second, buf).ok());
      auto n = env.Read(ba->first, buf);
      ASSERT_TRUE(n.ok());
      ++rounds_done;
    }
    EXPECT_EQ(buf[0], 10);
    EXPECT_TRUE(env.Wait(*child).ok());
  });
  sys->Run();
  EXPECT_EQ(rounds_done, 10);
}

TEST_P(OsFlavorTest, PipeEofAfterWriterCloses) {
  auto sys = BootSystem();
  uint32_t eof_read = 99;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto p = env.Pipe();
    ASSERT_TRUE(p.ok());
    std::vector<uint8_t> data = {1, 2, 3};
    ASSERT_TRUE(env.Write(p->second, data).ok());
    ASSERT_EQ(env.Close(p->second), Status::kOk);
    std::vector<uint8_t> buf(8);
    auto n = env.Read(p->first, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 3u);
    auto n2 = env.Read(p->first, buf);
    ASSERT_TRUE(n2.ok());
    eof_read = *n2;
  });
  sys->Run();
  EXPECT_EQ(eof_read, 0u);
}

TEST_P(OsFlavorTest, GzipGunzipRoundTripOnRealFs) {
  auto sys = BootSystem();
  int diffs = -1;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    apps::FileSpec spec{.path = "x.c", .size = 60'000, .seed = 5};
    auto content = apps::FileContent(spec);
    auto fd = env.Open("/x.c", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, content).ok());
    ASSERT_EQ(env.Close(*fd), Status::kOk);
    ASSERT_EQ(apps::Gzip(env, "/x.c", "/x.c.gz"), Status::kOk);
    // Real compression on C-like text should shrink meaningfully.
    auto st = env.Stat("/x.c.gz");
    ASSERT_TRUE(st.ok());
    EXPECT_LT(st->size * 2, content.size());
    ASSERT_EQ(apps::Gunzip(env, "/x.c.gz", "/x2.c"), Status::kOk);
    auto d = apps::DiffFile(env, "/x.c", "/x2.c");
    ASSERT_TRUE(d.ok());
    diffs = *d;
  });
  sys->Run();
  EXPECT_EQ(diffs, 0);
}

TEST_P(OsFlavorTest, PaxArchiveRoundTripsTree) {
  auto sys = BootSystem();
  int diffs = -1;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    apps::TreeSpec tree;
    tree.dirs = {"a", "a/b"};
    for (int i = 0; i < 6; ++i) {
      tree.files.push_back({"a/f" + std::to_string(i) + ".c",
                            static_cast<uint32_t>(3000 + i * 1700),
                            static_cast<uint64_t>(i + 1)});
      tree.files.push_back({"a/b/g" + std::to_string(i) + ".h",
                            static_cast<uint32_t>(900 + i * 211),
                            static_cast<uint64_t>(i + 100)});
    }
    ASSERT_EQ(apps::WriteTree(env, tree, "/t1"), Status::kOk);
    ASSERT_EQ(apps::PaxWrite(env, "/t1", "/t.pax"), Status::kOk);
    ASSERT_EQ(apps::PaxRead(env, "/t.pax", "/t2"), Status::kOk);
    auto d = apps::DiffTree(env, "/t1", "/t2");
    ASSERT_TRUE(d.ok());
    diffs = *d;
    // And rm -r works.
    ASSERT_EQ(apps::RmTree(env, "/t2"), Status::kOk);
    EXPECT_EQ(env.Stat("/t2").status(), Status::kNotFound);
  });
  sys->Run();
  EXPECT_EQ(diffs, 0);
}

TEST_P(OsFlavorTest, WcGrepCksum) {
  auto sys = BootSystem();
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    std::string text = "alpha\nbeta symbol\ngamma symbol\n";
    auto fd = env.Open("/w.txt", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, std::span<const uint8_t>(
                                    reinterpret_cast<const uint8_t*>(text.data()),
                                    text.size())).ok());
    env.Close(*fd);
    auto lines = apps::Wc(env, "/w.txt");
    ASSERT_TRUE(lines.ok());
    EXPECT_EQ(*lines, 3u);
    auto hits = apps::Grep(env, "symbol", "/w.txt");
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(*hits, 2u);
  });
  sys->Run();
}

INSTANTIATE_TEST_SUITE_P(Flavors, OsFlavorTest,
                         ::testing::Values(Flavor::kXokExos, Flavor::kOpenBsdCffs,
                                           Flavor::kOpenBsd, Flavor::kFreeBsd),
                         [](const ::testing::TestParamInfo<Flavor>& info) {
                           switch (info.param) {
                             case Flavor::kXokExos:
                               return "XokExos";
                             case Flavor::kOpenBsdCffs:
                               return "OpenBsdCffs";
                             case Flavor::kOpenBsd:
                               return "OpenBsd";
                             case Flavor::kFreeBsd:
                               return "FreeBsd";
                           }
                           return "unknown";
                         });

TEST(OsCostTest, GetPidMatchesPaperCalibration) {
  // Sec. 7.1: 270 cycles on OpenBSD, 100 as a procedure call into ExOS.
  auto measure = [](Flavor f) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    System sys(&machine, f);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sim::Cycles per_call = 0;
    sys.SpawnInit("sh", [&](UnixEnv& env) {
      sim::Cycles t0 = env.Now();
      for (int i = 0; i < 1000; ++i) {
        env.GetPid();
      }
      per_call = (env.Now() - t0) / 1000;
    });
    sys.Run();
    return per_call;
  };
  EXPECT_EQ(measure(Flavor::kXokExos), 100u);
  EXPECT_EQ(measure(Flavor::kOpenBsd), 270u);
}

TEST(OsCostTest, ExosForkSlowerThanBsdFork) {
  // Sec. 6.2: ExOS fork ~6 ms; OpenBSD < 1 ms.
  auto measure = [](Flavor f) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    System sys(&machine, f);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sim::Cycles total = 0;
    sys.SpawnInit("gcc", [&](UnixEnv& env) {
      sim::Cycles t0 = env.Now();
      auto pid = env.Fork([](UnixEnv&) {});
      total = env.Now() - t0;  // the fork path itself, before the child runs
      env.Wait(*pid);
    });
    sys.Run();
    return total;
  };
  sim::Cycles exos = measure(Flavor::kXokExos);
  sim::Cycles bsd = measure(Flavor::kOpenBsd);
  EXPECT_GT(exos, bsd * 2);  // ExOS fork is substantially more expensive
  EXPECT_GT(exos, 800'000u);  // ~>4 ms at 200 MHz for a large program
}

TEST(OsCostTest, ProtectionModeAddsSyscalls) {
  // Sec. 6.3: shared-state protection inserts syscalls before shared writes.
  auto syscalls = [](bool prot) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    SystemOptions opts;
    opts.protected_shared_state = prot;
    System sys(&machine, Flavor::kXokExos, opts);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sys.SpawnInit("sh", [&](UnixEnv& env) {
      auto fd = env.Open("/f", true);
      std::vector<uint8_t> chunk(4096, 1);
      for (int i = 0; i < 50; ++i) {
        env.Write(*fd, chunk);
      }
      env.Close(*fd);
    });
    sys.Run();
    return sys.syscall_count();
  };
  uint64_t with = syscalls(true);
  uint64_t without = syscalls(false);
  EXPECT_GT(with, without + 3 * 50);  // >=3 per fd-table write
}

TEST(ExosRevocationTest, LibOsShedsFramesOnKernelRequest) {
  // ExOS installs a default revocation handler on every process env (Sec. 3.4):
  // cached frames are a performance hint, so a kernel request is met by shedding
  // directly-held references synchronously in the upcall — never by abort.
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  auto& kernel = sys.kernel();
  uint32_t usage_after = 999;
  bool done = false;
  xok::EnvId hog_env = xok::kInvalidEnv;
  sys.SpawnInit("hog", [&](UnixEnv&) {
    hog_env = kernel.current_id();
    for (uint16_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(kernel.SysFrameAlloc(0, xok::CapName{xok::kCapUsers, 7, i}).ok());
    }
    xok::WakeupPredicate p;
    p.host = [&] { return done; };
    kernel.SysSleep(std::move(p));
  });
  sys.SpawnInit("revoker", [&](UnixEnv&) {
    ASSERT_EQ(kernel.SysRevoke(hog_env, xok::RevokeResource::kFrames, 3, 1'000'000,
                               xok::kCredAny),
              Status::kOk);
    usage_after = kernel.env(hog_env).usage.frames;  // shed during the upcall
    done = true;
  });
  sys.Run();
  EXPECT_LE(usage_after, 3u);
  EXPECT_GE(machine.counters().Get("xok.revocations_complied"), 1u);
  EXPECT_EQ(machine.counters().Get("xok.env_aborts"), 0u);
  EXPECT_EQ(kernel.CheckInvariants(), "");
}

TEST(XcpTest, ZeroTouchCopyIsCorrectAndFaster) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);

  std::vector<std::string> srcs;
  int diffs = -1;
  sim::Cycles cp_time = 0;
  sim::Cycles xcp_time = 0;
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    ASSERT_EQ(env.Mkdir("/src"), Status::kOk);
    for (int i = 0; i < 8; ++i) {
      apps::FileSpec spec{.path = "f", .size = 40'000,
                          .seed = static_cast<uint64_t>(i + 1)};
      auto content = apps::FileContent(spec);
      std::string p = "/src/f" + std::to_string(i);
      auto fd = env.Open(p, true);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(env.Write(*fd, content).ok());
      env.Close(*fd);
      srcs.push_back(p);
    }
    ASSERT_EQ(env.Sync(), Status::kOk);

    sim::Cycles t0 = env.Now();
    ASSERT_EQ(env.Mkdir("/cpd"), Status::kOk);
    for (const auto& s : srcs) {
      ASSERT_EQ(apps::Cp(env, s, "/cpd/" + s.substr(5)), Status::kOk);
    }
    cp_time = env.Now() - t0;

    t0 = env.Now();
    auto st = apps::Xcp(sys, env, srcs, "/xcpd");
    ASSERT_TRUE(st.ok()) << StatusName(st.status());
    EXPECT_EQ(st->blocks_copied, 8u * 10u);
    xcp_time = env.Now() - t0;

    auto d = apps::DiffTree(env, "/cpd", "/xcpd");
    ASSERT_TRUE(d.ok());
    diffs = *d;
  });
  sys.Run();
  EXPECT_EQ(diffs, 0);
  EXPECT_LT(xcp_time, cp_time);  // zero-touch beats read/write copy (in-core case)
}

// LZ codec properties on randomized inputs.
class LzProperty : public ::testing::TestWithParam<int> {};

TEST_P(LzProperty, RoundTripsArbitraryData) {
  sim::Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<uint8_t> data(rng.Below(100'000));
  // Mix compressible runs and random bytes.
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 64) % 3 == 0 ? static_cast<uint8_t>(rng.Next())
                                : static_cast<uint8_t>(i % 17);
  }
  auto packed = apps::LzCompress(data);
  bool ok = true;
  auto back = apps::LzDecompress(packed, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzProperty, ::testing::Range(1, 12));

TEST(LzTest, CompressesSourceText) {
  apps::FileSpec spec{.path = "a.c", .size = 100'000, .seed = 3};
  auto content = apps::FileContent(spec);
  auto packed = apps::LzCompress(content);
  EXPECT_LT(packed.size() * 2, content.size());  // at least 2:1 on C text
}

// 64-bit FNV-1a: a digest for pinning exact byte streams.
uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

// Round trips cannot tell a lossy head table from an exact one (both decode), so
// this pins the compressed bytes themselves: a table that loses or overwrites a
// match candidate emits a different stream.
TEST(LzTest, CompressedBytesArePinned) {
  // Generated C text spanning five 64-KB blocks.
  auto text = apps::FileContent({.path = "src/pinned.c", .size = 300'000, .seed = 7});
  auto packed_text = apps::LzCompress(text);
  EXPECT_EQ(packed_text.size(), 104146u);
  EXPECT_EQ(Fnv1a(packed_text), 0xa39834fc2214f011ULL);

  // A seeded 37-byte motif repeated, with a random byte every 997: long matches
  // whose candidates are overwritten again and again.
  sim::Rng rng(11);
  std::vector<uint8_t> motif(37);
  for (auto& b : motif) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> repetitive(150'000);
  for (size_t i = 0; i < repetitive.size(); ++i) {
    repetitive[i] = i % 997 == 0 ? static_cast<uint8_t>(rng.Next()) : motif[i % motif.size()];
  }
  auto packed_rep = apps::LzCompress(repetitive);
  EXPECT_EQ(packed_rep.size(), 3754u);
  EXPECT_EQ(Fnv1a(packed_rep), 0x73e4e5b463e32875ULL);
}

TEST(LzTest, RejectsCorruptStream) {
  std::vector<uint8_t> data(5000, 42);
  auto packed = apps::LzCompress(data);
  packed[10] ^= 0xff;
  bool ok = true;
  auto out = apps::LzDecompress(packed, &ok);
  // Either detected as malformed or (rarely) decodes to different bytes.
  EXPECT_TRUE(!ok || out != data);
}

}  // namespace
}  // namespace exo::os
