#include "calibrate.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "timeline.h"

namespace perfbench {
namespace {

// A fixed generator, so every block does exactly the same work.
struct SplitMix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

// Inserts, finds and erases in a hash map of a few thousand live entries.
uint64_t HashChurn(SplitMix& g) {
  std::unordered_map<uint64_t, uint64_t> m;
  uint64_t sum = 0;
  for (int i = 0; i < 200'000; ++i) {
    const uint64_t k = g.Next() & 0x1fff;
    auto it = m.find(k);
    if (it == m.end()) {
      m.emplace(k, i);
    } else if (i & 1) {
      sum += it->second;
      m.erase(it);
    } else {
      it->second += k;
    }
  }
  return sum + m.size();
}

// Builds and frees many small strings: allocator work.
uint64_t Allocate(SplitMix& g) {
  uint64_t sum = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::unique_ptr<std::string>> v;
    for (int i = 0; i < 4'000; ++i) {
      const size_t len = 16 + g.Next() % 200;
      v.push_back(std::make_unique<std::string>(len, static_cast<char>('a' + i % 26)));
    }
    for (const auto& s : v) sum += s->size();
  }
  return sum;
}

// Sorts random keys: data-dependent branches.
uint64_t Sort(SplitMix& g) {
  std::vector<uint32_t> v(200'000);
  for (auto& x : v) x = static_cast<uint32_t>(g.Next());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Maps, zero-fills and copies fresh pages, as machine construction does. A
// megabyte at a time, so the block barely moves the process's peak RSS.
uint64_t Pages() {
  constexpr size_t kBytes = 1u << 20;
  uint64_t sum = 0;
  for (int round = 0; round < 8; ++round) {
    void* a = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    void* b = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (a != MAP_FAILED && b != MAP_FAILED) {
      std::memset(a, 0x5a + round, kBytes);
      std::memcpy(b, a, kBytes);
      sum += static_cast<unsigned char*>(b)[kBytes - 1];
    }
    if (a != MAP_FAILED) munmap(a, kBytes);
    if (b != MAP_FAILED) munmap(b, kBytes);
  }
  return sum;
}

volatile uint64_t g_sink;

}  // namespace

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

Calibration Calibrate() {
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  SplitMix g{0x243f6a8885a308d3ULL};
  g_sink = HashChurn(g) + Allocate(g) + Sort(g) + Pages();
  return {Seconds(t0, Clock::now()), CpuSeconds() - cpu0};
}

}  // namespace perfbench
