#include "apps/unix_apps.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "apps/lz.h"
#include "sim/rng.h"

namespace exo::apps {

namespace {

constexpr size_t kIoChunk = 64 * 1024;

Result<std::vector<uint8_t>> ReadWhole(os::UnixEnv& env, const std::string& path) {
  auto fd = env.Open(path, false);
  if (!fd.ok()) {
    return fd.status();
  }
  std::vector<uint8_t> out;
  std::vector<uint8_t> chunk(kIoChunk);
  for (;;) {
    auto n = env.Read(*fd, chunk);
    if (!n.ok()) {
      env.Close(*fd);
      return n.status();
    }
    if (*n == 0) {
      break;
    }
    out.insert(out.end(), chunk.begin(), chunk.begin() + *n);
  }
  env.Close(*fd);
  return out;
}

Status WriteWhole(os::UnixEnv& env, const std::string& path,
                  std::span<const uint8_t> data) {
  auto fd = env.Open(path, /*create=*/true);
  if (!fd.ok()) {
    return fd.status();
  }
  for (size_t off = 0; off < data.size(); off += kIoChunk) {
    auto n = env.Write(*fd, data.subspan(off, std::min(kIoChunk, data.size() - off)));
    if (!n.ok()) {
      env.Close(*fd);
      return n.status();
    }
  }
  return env.Close(*fd);
}

}  // namespace

Status Cp(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto in = env.Open(src, false);
  if (!in.ok()) {
    return in.status();
  }
  auto out = env.Open(dst, /*create=*/true);
  if (!out.ok()) {
    env.Close(*in);
    return out.status();
  }
  // The fd table is system-wide, so every path out closes both descriptors.
  std::vector<uint8_t> chunk(kIoChunk);
  Status err = Status::kOk;
  for (;;) {
    auto n = env.Read(*in, chunk);
    if (!n.ok()) {
      err = n.status();
      break;
    }
    if (*n == 0) {
      break;
    }
    auto w = env.Write(*out, std::span<const uint8_t>(chunk.data(), *n));
    if (!w.ok()) {
      err = w.status();
      break;
    }
  }
  env.Close(*in);
  const Status closed = env.Close(*out);
  return err != Status::kOk ? err : closed;
}

Status CpR(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  Status s = env.Mkdir(dst);
  if (s != Status::kOk && s != Status::kAlreadyExists) {
    return s;
  }
  auto entries = env.ReadDir(src);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string from = src + "/" + de.name;
    std::string to = dst + "/" + de.name;
    if (de.is_dir) {
      s = CpR(env, from, to);
    } else {
      s = Cp(env, from, to);
    }
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status Gzip(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto data = ReadWhole(env, src);
  if (!data.ok()) {
    return data.status();
  }
  env.Compute(static_cast<sim::Cycles>(static_cast<double>(data->size()) *
                                       kLzCompressCyclesPerByte));
  auto packed = LzCompress(*data);
  return WriteWhole(env, dst, packed);
}

Status Gunzip(os::UnixEnv& env, const std::string& src, const std::string& dst) {
  auto data = ReadWhole(env, src);
  if (!data.ok()) {
    return data.status();
  }
  bool ok = true;
  auto raw = LzDecompress(*data, &ok);
  if (!ok) {
    return Status::kInvalidArgument;
  }
  env.Compute(static_cast<sim::Cycles>(static_cast<double>(raw.size()) *
                                       kLzDecompressCyclesPerByte));
  return WriteWhole(env, dst, raw);
}

namespace {

// pax archive record: u8 kind (0 end, 1 file, 2 dir), u16 path length, path bytes,
// u32 size, then data for files.
void PaxCollect(os::UnixEnv& env, const std::string& root, const std::string& rel,
                std::vector<uint8_t>& out, Status* err) {
  std::string abs = rel.empty() ? root : root + "/" + rel;
  auto entries = env.ReadDir(abs);
  if (!entries.ok()) {
    *err = entries.status();
    return;
  }
  // Deterministic order.
  std::sort(entries->begin(), entries->end(),
            [](const fs::DirEnt& a, const fs::DirEnt& b) { return a.name < b.name; });
  for (const auto& de : *entries) {
    std::string rpath = rel.empty() ? de.name : rel + "/" + de.name;
    out.push_back(de.is_dir ? 2 : 1);
    out.push_back(static_cast<uint8_t>(rpath.size()));
    out.push_back(static_cast<uint8_t>(rpath.size() >> 8));
    out.insert(out.end(), rpath.begin(), rpath.end());
    if (de.is_dir) {
      for (int i = 0; i < 4; ++i) {
        out.push_back(0);
      }
      PaxCollect(env, root, rpath, out, err);
      if (*err != Status::kOk) {
        return;
      }
    } else {
      auto data = ReadWhole(env, abs + "/" + de.name);
      if (!data.ok()) {
        *err = data.status();
        return;
      }
      uint32_t n = static_cast<uint32_t>(data->size());
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<uint8_t>(n >> (8 * i)));
      }
      out.insert(out.end(), data->begin(), data->end());
    }
  }
}

}  // namespace

Status PaxWrite(os::UnixEnv& env, const std::string& dir, const std::string& archive) {
  std::vector<uint8_t> out;
  Status err = Status::kOk;
  PaxCollect(env, dir, "", out, &err);
  if (err != Status::kOk) {
    return err;
  }
  out.push_back(0);  // end marker
  env.TouchData(out.size());  // header construction and buffering
  return WriteWhole(env, archive, out);
}

Status PaxRead(os::UnixEnv& env, const std::string& archive, const std::string& dstdir) {
  auto data = ReadWhole(env, archive);
  if (!data.ok()) {
    return data.status();
  }
  Status s = env.Mkdir(dstdir);
  if (s != Status::kOk && s != Status::kAlreadyExists) {
    return s;
  }
  const std::vector<uint8_t>& a = *data;
  size_t pos = 0;
  while (pos < a.size() && a[pos] != 0) {
    uint8_t kind = a[pos];
    if (pos + 3 > a.size()) {
      return Status::kInvalidArgument;
    }
    uint16_t plen = static_cast<uint16_t>(a[pos + 1] | (a[pos + 2] << 8));
    pos += 3;
    if (pos + plen + 4 > a.size()) {
      return Status::kInvalidArgument;
    }
    std::string rpath(reinterpret_cast<const char*>(a.data() + pos), plen);
    pos += plen;
    uint32_t size = 0;
    for (int i = 0; i < 4; ++i) {
      size |= static_cast<uint32_t>(a[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 4;
    if (kind == 2) {
      s = env.Mkdir(dstdir + "/" + rpath);
      if (s != Status::kOk && s != Status::kAlreadyExists) {
        return s;
      }
    } else {
      if (pos + size > a.size()) {
        return Status::kInvalidArgument;
      }
      s = WriteWhole(env, dstdir + "/" + rpath,
                     std::span<const uint8_t>(a.data() + pos, size));
      if (s != Status::kOk) {
        return s;
      }
      pos += size;
    }
  }
  return Status::kOk;
}

Result<int> DiffFile(os::UnixEnv& env, const std::string& a, const std::string& b) {
  auto da = ReadWhole(env, a);
  auto db = ReadWhole(env, b);
  if (!da.ok()) {
    return da.status();
  }
  if (!db.ok()) {
    return db.status();
  }
  env.TouchData(da->size() + db->size());
  return (*da == *db) ? 0 : 1;
}

Result<int> DiffTree(os::UnixEnv& env, const std::string& a, const std::string& b) {
  auto ea = env.ReadDir(a);
  if (!ea.ok()) {
    return ea.status();
  }
  int diffs = 0;
  for (const auto& de : *ea) {
    std::string pa = a + "/" + de.name;
    std::string pb = b + "/" + de.name;
    if (de.is_dir) {
      auto sub = DiffTree(env, pa, pb);
      if (!sub.ok()) {
        return sub;
      }
      diffs += *sub;
    } else {
      auto st = env.Stat(pb);
      if (!st.ok()) {
        ++diffs;
        continue;
      }
      auto d = DiffFile(env, pa, pb);
      if (!d.ok()) {
        return d;
      }
      diffs += *d;
    }
  }
  return diffs;
}

Status GccBuild(os::UnixEnv& env, const std::string& dir) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string path = dir + "/" + de.name;
    if (de.is_dir) {
      Status s = GccBuild(env, path);
      if (s != Status::kOk) {
        return s;
      }
      continue;
    }
    if (de.name.size() < 2 || de.name.substr(de.name.size() - 2) != ".c") {
      continue;
    }
    auto src = ReadWhole(env, path);
    if (!src.ok()) {
      return src.status();
    }
    // Parse + optimize + emit.
    env.Compute(static_cast<sim::Cycles>(static_cast<double>(src->size()) *
                                         kCompileCyclesPerByte));
    // Object file ~40% of source size, content derived from the source.
    std::vector<uint8_t> obj(src->size() * 2 / 5);
    for (size_t i = 0; i < obj.size(); ++i) {
      obj[i] = static_cast<uint8_t>((*src)[i % src->size()] * 31 + i);
    }
    std::string opath = path.substr(0, path.size() - 2) + ".o";
    Status s = WriteWhole(env, opath, obj);
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status RmTree(os::UnixEnv& env, const std::string& path) {
  auto st = env.Stat(path);
  if (!st.ok()) {
    return st.status();
  }
  if (!st->is_dir) {
    return env.Unlink(path);
  }
  auto entries = env.ReadDir(path);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    Status s = RmTree(env, path + "/" + de.name);
    if (s != Status::kOk) {
      return s;
    }
  }
  return env.Unlink(path);
}

Status RmByExt(os::UnixEnv& env, const std::string& dir, const std::string& ext) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const auto& de : *entries) {
    std::string path = dir + "/" + de.name;
    if (de.is_dir) {
      Status s = RmByExt(env, path, ext);
      if (s != Status::kOk) {
        return s;
      }
    } else if (de.name.size() >= ext.size() &&
               de.name.compare(de.name.size() - ext.size(), ext.size(), ext) == 0) {
      Status s = env.Unlink(path);
      if (s != Status::kOk) {
        return s;
      }
    }
  }
  return Status::kOk;
}

Result<uint64_t> Wc(os::UnixEnv& env, const std::string& path) {
  auto data = ReadWhole(env, path);
  if (!data.ok()) {
    return data.status();
  }
  env.TouchData(data->size());
  // Eight bytes per step: a byte of `x` is zero exactly where the input holds a
  // newline, and `zero` gets 0x80 in exactly those bytes (no carry crosses a
  // byte: (b & 0x7f) + 0x7f <= 0xfe). The multiply sums the 0/1 lanes; at most 8.
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const uint8_t* p = data->data();
  const size_t size = data->size();
  uint64_t lines = 0;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    const uint64_t x = word ^ (kOnes * '\n');
    const uint64_t zero = ~(((x & kLow7) + kLow7) | x | kLow7);
    lines += ((zero >> 7) * kOnes) >> 56;
  }
  for (; i < size; ++i) {
    lines += p[i] == '\n' ? 1 : 0;
  }
  return lines;
}

Result<uint64_t> Grep(os::UnixEnv& env, const std::string& pattern,
                      const std::string& path) {
  auto data = ReadWhole(env, path);
  if (!data.ok()) {
    return data.status();
  }
  env.TouchData(data->size() * 2);  // pattern scan is heavier than wc
  uint64_t hits = 0;
  if (pattern.empty()) {
    return hits;
  }
  // Every offset where the pattern occurs, overlapping ones included: the next
  // search starts one byte past each hit.
  const uint8_t* p = data->data();
  const uint8_t* end = p + data->size();
  while (const void* hit = memmem(p, static_cast<size_t>(end - p), pattern.data(),
                                  pattern.size())) {
    ++hits;
    p = static_cast<const uint8_t*>(hit) + 1;
  }
  return hits;
}

namespace {

// 131^k mod 2^64 for k = 0..8.
constexpr std::array<uint64_t, 9> kCksumPow = [] {
  std::array<uint64_t, 9> pow{1};
  for (size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * 131;
  }
  return pow;
}();

// sum = sum * 131 + c over `bytes`, mod 2^64. Horner's rule unrolled eight bytes
// at a time is the same polynomial, and unsigned arithmetic is exact mod 2^64,
// so the result is identical; only one multiply per word sits on the chain.
uint64_t CksumFold(uint64_t sum, std::span<const uint8_t> bytes) {
  const uint8_t* c = bytes.data();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8, c += 8) {
    sum = sum * kCksumPow[8] + c[0] * kCksumPow[7] + c[1] * kCksumPow[6] +
          c[2] * kCksumPow[5] + c[3] * kCksumPow[4] + c[4] * kCksumPow[3] +
          c[5] * kCksumPow[2] + c[6] * kCksumPow[1] + c[7];
  }
  for (; i < bytes.size(); ++i, ++c) {
    sum = sum * 131 + *c;
  }
  return sum;
}

}  // namespace

Result<uint64_t> Cksum(os::UnixEnv& env, const std::string& dir, int rounds) {
  auto entries = env.ReadDir(dir);
  if (!entries.ok()) {
    return entries.status();
  }
  uint64_t sum = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& de : *entries) {
      if (de.is_dir) {
        continue;
      }
      auto data = ReadWhole(env, dir + "/" + de.name);
      if (!data.ok()) {
        return data.status();
      }
      env.TouchData(data->size());
      sum = CksumFold(sum, *data);
    }
  }
  return sum;
}

Result<double> Tsp(os::UnixEnv& env, int ncities, int iterations, uint64_t seed) {
  sim::Rng rng(seed);
  const size_t n = static_cast<size_t>(ncities);
  // The tour starts as 0, 1, ..., n - 1, so x[k], y[k] are the coordinates of
  // the k-th city on the tour; they are reversed with it below.
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  auto dist = [&](size_t a, size_t b) {
    double dx = x[a] - x[b];
    double dy = y[a] - y[b];
    return std::sqrt(dx * dx + dy * dy);
  };
  // edge[k] is the length of the tour's edge k -> (k + 1) % n. Distances are
  // symmetric bit for bit: x[a] - x[b] rounds to exactly -(x[b] - x[a]), so the
  // squares, their sum and its root are the same either way round. So when a
  // 2-opt move reverses positions i..j, the edges between them reverse with it,
  // and the two edges it replaces take the lengths the move compared.
  std::vector<double> edge(n);
  for (size_t k = 0; k < n; ++k) {
    edge[k] = dist(k, (k + 1) % n);
  }
  // 2-opt passes; each pass is O(n^2) distance evaluations, charged to the CPU.
  for (int it = 0; it < iterations; ++it) {
    for (size_t i = 1; i + 1 < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const size_t next = j + 1 < n ? j + 1 : 0;
        const double before = edge[i - 1] + edge[j];
        const double to_last = dist(i - 1, j);
        const double to_next = dist(i, next);
        if (to_last + to_next < before) {
          std::reverse(x.begin() + i, x.begin() + j + 1);
          std::reverse(y.begin() + i, y.begin() + j + 1);
          std::reverse(edge.begin() + i, edge.begin() + j);
          edge[i - 1] = to_last;
          edge[j] = to_next;
        }
      }
    }
    env.Compute(static_cast<sim::Cycles>(ncities) * ncities * 18);
  }
  double total = 0;
  for (double e : edge) {
    total += e;
  }
  return total;
}

namespace {

constexpr double kSorOmega = 1.25;

// One Gauss-Seidel sweep over interior rows [r0, r0 + R) of the n x n grid.
// A point's new value depends only on whether its four neighbours are already
// updated: upper and left must be, lower and right must not. Any order keeping
// that gives the row-by-row sweep's bits. Here the rows advance on a wavefront
// skewed by one column (at step t, row r0 + k updates column t - k + 1), so the
// R points of a step are independent and their dependency chains overlap.
template <int R>
void SorRows(double* grid, int n, int r0) {
  const int last = n - 2;  // interior columns are 1..last
  double* row[R];
  for (int k = 0; k < R; ++k) {
    row[k] = grid + static_cast<size_t>(r0 + k) * n;
  }
  auto update = [n](double* p) {
    double neigh = p[-n] + p[n] + p[-1] + p[1];
    *p += kSorOmega * (neigh / 4.0 - *p);
  };
  for (int t = 0; t < last + R - 1; ++t) {
    if (t >= R - 1 && t < last) {
      for (int k = 0; k < R; ++k) {
        update(row[k] + (t - k + 1));
      }
      continue;
    }
    for (int k = 0; k < R; ++k) {
      const int j = t - k + 1;
      if (j >= 1 && j <= last) {
        update(row[k] + j);
      }
    }
  }
}

}  // namespace

Result<double> Sor(os::UnixEnv& env, int n, int iterations) {
  std::vector<double> grid(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    grid[static_cast<size_t>(i)] = 1.0;  // top boundary
  }
  constexpr int kBlock = 8;
  for (int it = 0; it < iterations; ++it) {
    int i = 1;
    for (; i + kBlock <= n - 1; i += kBlock) {
      SorRows<kBlock>(grid.data(), n, i);
    }
    for (; i < n - 1; ++i) {
      SorRows<1>(grid.data(), n, i);
    }
    env.Compute(static_cast<sim::Cycles>(n) * n * 14);
  }
  double sum = 0;
  for (double v : grid) {
    sum += v;
  }
  return sum;
}

}  // namespace exo::apps
