#include "apps/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "sim/bytes.h"

namespace exo::apps {

namespace {

constexpr uint32_t kWindow = 32768;
constexpr uint32_t kMinMatch = 4;
constexpr uint32_t kMaxMatch = 255;
constexpr uint8_t kBlockCompressed = 1;
constexpr uint8_t kBlockStored = 0;
constexpr uint32_t kBlockSize = 65536;

using sim::AppendLe16;
using sim::AppendLe32;
using sim::LoadLe16;
using sim::LoadLe32;

// Compresses one block; returns the token stream (without header).
std::vector<uint8_t> CompressBlock(std::span<const uint8_t> in) {
  std::vector<uint8_t> out;
  out.reserve(in.size());
  // Last position of each 4-byte prefix, keyed by its full 32-bit hash (a
  // bijection of the prefix, so distinct prefixes never share an entry).
  // Open addressing with linear probing and no deletions; at least two slots per
  // input byte keep the load at or under one half.
  struct Slot {
    uint32_t key = 0;
    uint32_t pos_plus_1 = 0;  // 0: empty
  };
  const uint32_t slots =
      std::bit_ceil(std::max<uint32_t>(2 * static_cast<uint32_t>(in.size()), 16));
  const int shift = 32 - std::countr_zero(slots);
  std::vector<Slot> head(slots);
  auto hash4 = [&](size_t i) {
    uint32_t v;
    std::memcpy(&v, in.data() + i, 4);
    return v * 2654435761u;
  };
  auto find = [&](uint32_t key) -> Slot& {
    uint32_t s = key >> shift;
    while (head[s].pos_plus_1 != 0 && head[s].key != key) {
      s = (s + 1) & (slots - 1);
    }
    return head[s];
  };
  size_t i = 0;
  std::vector<uint8_t> literals;
  auto flush_literals = [&] {
    size_t off = 0;
    while (off < literals.size()) {
      size_t n = std::min<size_t>(literals.size() - off, 127);
      out.push_back(static_cast<uint8_t>(n));  // 1..127: literal run
      out.insert(out.end(), literals.begin() + static_cast<long>(off),
                 literals.begin() + static_cast<long>(off + n));
      off += n;
    }
    literals.clear();
  };
  while (i < in.size()) {
    uint32_t best_len = 0;
    uint32_t best_dist = 0;
    if (i + kMinMatch <= in.size()) {
      const uint32_t key = hash4(i);
      Slot& slot = find(key);
      if (slot.pos_plus_1 != 0) {
        uint32_t cand = slot.pos_plus_1 - 1;
        if (cand < i && i - cand <= kWindow) {
          uint32_t len = 0;
          uint32_t max = static_cast<uint32_t>(std::min<size_t>(in.size() - i, kMaxMatch));
          while (len < max && in[cand + len] == in[i + len]) {
            ++len;
          }
          if (len >= kMinMatch) {
            best_len = len;
            best_dist = static_cast<uint32_t>(i - cand);
          }
        }
      }
      slot = Slot{key, static_cast<uint32_t>(i) + 1};
    }
    if (best_len >= kMinMatch) {
      flush_literals();
      out.push_back(0x80);  // match token
      out.push_back(static_cast<uint8_t>(best_len));
      AppendLe16(out, static_cast<uint16_t>(best_dist));
      for (uint32_t k = 1; k < best_len && i + k + kMinMatch <= in.size(); k += 3) {
        const uint32_t skipped = hash4(i + k);
        find(skipped) = Slot{skipped, static_cast<uint32_t>(i + k) + 1};
      }
      i += best_len;
    } else {
      literals.push_back(in[i]);
      ++i;
    }
  }
  flush_literals();
  return out;
}

}  // namespace

std::vector<uint8_t> LzCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 64);
  AppendLe32(out, static_cast<uint32_t>(input.size()));
  for (size_t off = 0; off < input.size() || (input.empty() && off == 0); off += kBlockSize) {
    if (input.empty()) {
      break;
    }
    size_t n = std::min<size_t>(kBlockSize, input.size() - off);
    auto block = input.subspan(off, n);
    auto packed = CompressBlock(block);
    if (packed.size() < n) {
      out.push_back(kBlockCompressed);
      AppendLe32(out, static_cast<uint32_t>(packed.size()));
      AppendLe32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), packed.begin(), packed.end());
    } else {
      out.push_back(kBlockStored);
      AppendLe32(out, static_cast<uint32_t>(n));
      AppendLe32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), block.begin(), block.end());
    }
  }
  return out;
}

std::vector<uint8_t> LzDecompress(std::span<const uint8_t> input, bool* ok) {
  auto fail = [&] {
    if (ok != nullptr) {
      *ok = false;
    }
    return std::vector<uint8_t>{};
  };
  if (ok != nullptr) {
    *ok = true;
  }
  if (input.size() < 4) {
    return fail();
  }
  uint32_t total = LoadLe32(input, 0);
  std::vector<uint8_t> out;
  out.reserve(total);
  size_t pos = 4;
  while (out.size() < total) {
    if (pos + 9 > input.size()) {
      return fail();
    }
    uint8_t kind = input[pos];
    uint32_t packed_len = LoadLe32(input, pos + 1);
    uint32_t raw_len = LoadLe32(input, pos + 5);
    pos += 9;
    if (pos + packed_len > input.size()) {
      return fail();
    }
    if (kind == kBlockStored) {
      out.insert(out.end(), input.begin() + static_cast<long>(pos),
                 input.begin() + static_cast<long>(pos + packed_len));
      pos += packed_len;
      continue;
    }
    size_t end = pos + packed_len;
    size_t produced0 = out.size();
    while (pos < end) {
      uint8_t tok = input[pos];
      if (tok == 0x80) {
        if (pos + 4 > end) {
          return fail();
        }
        uint32_t len = input[pos + 1];
        uint32_t dist = LoadLe16(input, pos + 2);
        pos += 4;
        if (dist == 0 || dist > out.size()) {
          return fail();
        }
        size_t start = out.size() - dist;
        for (uint32_t k = 0; k < len; ++k) {
          out.push_back(out[start + k]);
        }
      } else if (tok >= 1 && tok <= 127) {
        if (pos + 1 + tok > end) {
          return fail();
        }
        out.insert(out.end(), input.begin() + static_cast<long>(pos + 1),
                   input.begin() + static_cast<long>(pos + 1 + tok));
        pos += 1 + tok;
      } else {
        return fail();
      }
    }
    if (out.size() - produced0 != raw_len) {
      return fail();
    }
  }
  return out;
}

}  // namespace exo::apps
