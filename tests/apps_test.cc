// The application kernels' results, pinned. tsp, sor, cksum, wc and grep run
// host-tuned loops (src/apps/unix_apps.cc); the values here were recorded from the
// plain loops those replaced, so a reordering that moves one bit of a result
// fails. Doubles are compared by bit pattern. Also: cp closes both descriptors on
// every error path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <set>

#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "exos/system.h"
#include "sim/rng.h"

namespace exo::apps {
namespace {

// Runs `body` as init on a freshly booted Xok/ExOS machine with a 64 MB disk.
void RunOnXok(const std::function<void(os::UnixEnv&)>& body) {
  hw::MachineConfig cfg;
  cfg.mem_frames = 8192;
  cfg.disks = {hw::DiskGeometry{.num_blocks = 16384}};
  sim::Engine engine;
  hw::Machine machine(&engine, cfg);
  os::System sys(&machine, os::Flavor::kXokExos);
  EXO_CHECK_EQ(sys.Boot(), Status::kOk);
  sys.SpawnInit("sh", body);
  sys.Run();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void Put(os::UnixEnv& env, const std::string& path, std::span<const uint8_t> bytes) {
  auto fd = env.Open(path, /*create=*/true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(env.Write(*fd, bytes).ok());
  ASSERT_EQ(env.Close(*fd), Status::kOk);
}

void Put(os::UnixEnv& env, const std::string& path, const std::string& text) {
  Put(env, path,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

std::vector<uint8_t> Slurp(os::UnixEnv& env, const std::string& path) {
  auto st = env.Stat(path);
  EXO_CHECK(st.ok());
  std::vector<uint8_t> out(st->size);
  auto fd = env.Open(path);
  EXO_CHECK(fd.ok());
  size_t got = 0;
  while (got < out.size()) {
    auto n = env.Read(*fd, std::span<uint8_t>(out).subspan(got));
    EXO_CHECK(n.ok() && *n > 0);
    got += *n;
  }
  EXO_CHECK_EQ(env.Close(*fd), Status::kOk);
  return out;
}

// The inputs the Figure 4 benches share: a ten-file source tree and a 2 MB text.
void MakeShared(os::UnixEnv& env) {
  TreeSpec tree;
  tree.dirs = {"t"};
  for (int i = 0; i < 10; ++i) {
    tree.files.push_back({"t/s" + std::to_string(i) + ".c",
                          static_cast<uint32_t>(15'000 + i * 2'000),
                          static_cast<uint64_t>(i + 7)});
  }
  ASSERT_EQ(env.Mkdir("/shared"), Status::kOk);
  ASSERT_EQ(WriteTree(env, tree, "/shared"), Status::kOk);
  Put(env, "/shared/big.txt", FileContent({.path = "big", .size = 2'000'000, .seed = 99}));
}

// The plain Gauss-Seidel sweep: row by row, left to right.
double ReferenceSor(int n, int iterations) {
  std::vector<double> grid(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    grid[static_cast<size_t>(i)] = 1.0;
  }
  for (int it = 0; it < iterations; ++it) {
    for (int i = 1; i < n - 1; ++i) {
      for (int j = 1; j < n - 1; ++j) {
        size_t p = static_cast<size_t>(i) * n + j;
        double neigh = grid[p - n] + grid[p + n] + grid[p - 1] + grid[p + 1];
        grid[p] += 1.25 * (neigh / 4.0 - grid[p]);
      }
    }
  }
  double sum = 0;
  for (double v : grid) {
    sum += v;
  }
  return sum;
}

// The plain 2-opt: every distance recomputed from coordinates.
double ReferenceTsp(int n, int iterations, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  auto dist = [&](int a, int b) {
    double dx = x[a] - x[b];
    double dy = y[a] - y[b];
    return std::sqrt(dx * dx + dy * dy);
  };
  std::vector<int> tour(n);
  for (int i = 0; i < n; ++i) {
    tour[i] = i;
  }
  for (int it = 0; it < iterations; ++it) {
    for (int i = 1; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double before = dist(tour[i - 1], tour[i]) + dist(tour[j], tour[(j + 1) % n]);
        double after = dist(tour[i - 1], tour[j]) + dist(tour[i], tour[(j + 1) % n]);
        if (after < before) {
          std::reverse(tour.begin() + i, tour.begin() + j + 1);
        }
      }
    }
  }
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += dist(tour[i], tour[(i + 1) % n]);
  }
  return total;
}

TEST(AppKernelTest, BenchResultsArePinned) {
  RunOnXok([](os::UnixEnv& env) {
    MakeShared(env);
    auto tsp = Tsp(env, 500, 30, 7);
    ASSERT_TRUE(tsp.ok());
    EXPECT_EQ(Bits(*tsp), 0x4032a35eab4bd3a5ULL) << *tsp;  // 18.638163286220919
    auto sor = Sor(env, 300, 60);
    ASSERT_TRUE(sor.ok());
    EXPECT_EQ(Bits(*sor), 0x40a433cfadf3011eULL) << *sor;  // 2585.9056240023483
    auto sor_small = Sor(env, 150, 30);
    ASSERT_TRUE(sor_small.ok());
    EXPECT_EQ(Bits(*sor_small), 0x408d54d215503d34ULL) << *sor_small;  // 938.60257971464898
    auto ck = Cksum(env, "/shared/t", 40);
    ASSERT_TRUE(ck.ok());
    EXPECT_EQ(*ck, 0xb985f479a169ecd8ULL);
    auto wc = Wc(env, "/shared/big.txt");
    ASSERT_TRUE(wc.ok());
    EXPECT_EQ(*wc, 106691u);
    auto grep = Grep(env, "symbol", "/shared/big.txt");
    ASSERT_TRUE(grep.ok());
    EXPECT_EQ(*grep, 6744u);
  });
}

// Grid sides below, at and between the sweep's row blocks, and tours too short
// for the 2-opt loop to run or to reverse more than one city.
TEST(AppKernelTest, SorAndTspMatchThePlainLoops) {
  RunOnXok([](os::UnixEnv& env) {
    for (int n : {0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 17, 18, 19, 26, 33}) {
      auto got = Sor(env, n, 7);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Bits(*got), Bits(ReferenceSor(n, 7))) << "n=" << n;
    }
    for (int n = 1; n <= 12; ++n) {
      for (uint64_t seed : {1, 2, 3}) {
        auto got = Tsp(env, n, 4, seed);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Bits(*got), Bits(ReferenceTsp(n, 4, seed))) << "n=" << n << " seed=" << seed;
      }
    }
    auto got = Tsp(env, 90, 6, 11);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Bits(*got), Bits(ReferenceTsp(90, 6, 11)));
  });
}

// Lengths 0..20 and 1003, so every word-at-a-time loop has a ragged tail.
TEST(AppKernelTest, WcAndCksumHandleRaggedLengths) {
  RunOnXok([](os::UnixEnv& env) {
    ASSERT_EQ(env.Mkdir("/odd"), Status::kOk);
    sim::Rng rng(5);
    for (size_t len : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                       20, 1003}) {
      std::vector<uint8_t> bytes(len);
      uint64_t newlines = 0;
      for (auto& b : bytes) {
        b = rng.Below(4) == 0 ? '\n' : static_cast<uint8_t>(rng.Next());
        newlines += b == '\n' ? 1 : 0;
      }
      const std::string path = "/odd/f" + std::to_string(len);
      Put(env, path, bytes);
      auto lines = Wc(env, path);
      ASSERT_TRUE(lines.ok());
      EXPECT_EQ(*lines, newlines) << "len=" << len;
    }
    auto entries = env.ReadDir("/odd");
    ASSERT_TRUE(entries.ok());
    uint64_t want = 0;
    for (int r = 0; r < 3; ++r) {
      for (const auto& de : *entries) {
        for (uint8_t c : Slurp(env, "/odd/" + de.name)) {
          want = want * 131 + c;
        }
      }
    }
    auto got = Cksum(env, "/odd", 3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want);
  });
}

TEST(AppKernelTest, GrepCountsOverlappingAndEdgeMatches) {
  RunOnXok([](os::UnixEnv& env) {
    Put(env, "/a4", "aaaa");
    Put(env, "/tail", "xyz abc\nabc");
    Put(env, "/short", "ab");
    auto count = [&](const std::string& pattern, const std::string& path) {
      auto r = Grep(env, pattern, path);
      EXO_CHECK(r.ok());
      return *r;
    };
    EXPECT_EQ(count("aa", "/a4"), 3u);
    EXPECT_EQ(count("aaaa", "/a4"), 1u);
    EXPECT_EQ(count("a", "/a4"), 4u);
    EXPECT_EQ(count("abc", "/tail"), 2u);  // the second ends on the last byte
    EXPECT_EQ(count("", "/tail"), 0u);
    EXPECT_EQ(count("abc", "/short"), 0u);
    EXPECT_EQ(count("ab", "/short"), 1u);
  });
}

// Forwards every call to a real process, failing the `fail_read`-th Read or the
// `fail_write`-th Write (1-based; 0 never) with kIoError, and tracks open fds.
class FaultyEnv : public os::UnixEnv {
 public:
  explicit FaultyEnv(os::UnixEnv& inner) : inner_(inner) {}

  int fail_read = 0;
  int fail_write = 0;
  std::set<int> open_fds;

  int GetPid() override { return inner_.GetPid(); }
  uint16_t Uid() const override { return inner_.Uid(); }
  Result<int> Open(const std::string& path, bool create) override {
    auto fd = inner_.Open(path, create);
    if (fd.ok()) {
      open_fds.insert(*fd);
    }
    return fd;
  }
  Status Close(int fd) override {
    open_fds.erase(fd);
    return inner_.Close(fd);
  }
  Result<uint32_t> Read(int fd, std::span<uint8_t> out) override {
    if (++reads_ == fail_read) {
      return Status::kIoError;
    }
    return inner_.Read(fd, out);
  }
  Result<uint32_t> Write(int fd, std::span<const uint8_t> data) override {
    if (++writes_ == fail_write) {
      return Status::kIoError;
    }
    return inner_.Write(fd, data);
  }
  Result<uint64_t> Seek(int fd, uint64_t off) override { return inner_.Seek(fd, off); }
  Result<fs::FileStat> Stat(const std::string& path) override { return inner_.Stat(path); }
  Result<fs::FileStat> FStat(int fd) override { return inner_.FStat(fd); }
  Result<std::vector<fs::DirEnt>> ReadDir(const std::string& path) override {
    return inner_.ReadDir(path);
  }
  Status Mkdir(const std::string& path) override { return inner_.Mkdir(path); }
  Status Unlink(const std::string& path) override { return inner_.Unlink(path); }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_.Rename(from, to);
  }
  Status Sync() override { return inner_.Sync(); }
  Result<std::pair<int, int>> Pipe() override { return inner_.Pipe(); }
  Result<int> Spawn(const std::string& program,
                    std::function<void(os::UnixEnv&)> body) override {
    return inner_.Spawn(program, std::move(body));
  }
  Result<int> Fork(std::function<void(os::UnixEnv&)> body) override {
    return inner_.Fork(std::move(body));
  }
  Result<int> Wait(int pid) override { return inner_.Wait(pid); }
  Result<int> WaitAny() override { return inner_.WaitAny(); }
  void Compute(sim::Cycles cycles) override { inner_.Compute(cycles); }
  void TouchData(uint64_t bytes) override { inner_.TouchData(bytes); }
  sim::Cycles Now() const override { return inner_.Now(); }
  void Yield() override { inner_.Yield(); }

 private:
  os::UnixEnv& inner_;
  int reads_ = 0;
  int writes_ = 0;
};

// The fd table is system-wide, so a descriptor cp forgets outlives the process.
TEST(AppKernelTest, CpClosesBothFdsOnEveryError) {
  RunOnXok([](os::UnixEnv& env) {
    Put(env, "/src", FileContent({.path = "src", .size = 200'000, .seed = 3}));
    for (int nth : {1, 2}) {
      FaultyEnv failing_read(env);
      failing_read.fail_read = nth;
      EXPECT_EQ(Cp(failing_read, "/src", "/dst"), Status::kIoError) << "read " << nth;
      EXPECT_TRUE(failing_read.open_fds.empty()) << "read " << nth;

      FaultyEnv failing_write(env);
      failing_write.fail_write = nth;
      EXPECT_EQ(Cp(failing_write, "/src", "/dst"), Status::kIoError) << "write " << nth;
      EXPECT_TRUE(failing_write.open_fds.empty()) << "write " << nth;
    }
    FaultyEnv ok(env);
    EXPECT_EQ(Cp(ok, "/src", "/dst"), Status::kOk);
    EXPECT_TRUE(ok.open_fds.empty());
  });
}

}  // namespace
}  // namespace exo::apps
