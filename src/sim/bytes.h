// Little-endian integer codec shared by every on-wire and on-disk layout: the
// network frames (net/packet), the FFS/C-FFS inode and directory blocks, XN's
// serialized modification lists and the lz block headers.
//
// Loads are unchecked: callers validate lengths against their own layout first.
#ifndef EXO_SIM_BYTES_H_
#define EXO_SIM_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace exo::sim {

inline uint16_t LoadLe16(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint16_t>(b[off] | (b[off + 1] << 8));
}

inline uint32_t LoadLe32(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint32_t>(b[off]) | (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) | (static_cast<uint32_t>(b[off + 3]) << 24);
}

inline void AppendLe16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void AppendLe32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

}  // namespace exo::sim

#endif  // EXO_SIM_BYTES_H_
