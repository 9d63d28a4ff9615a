#include "xn/types.h"

#include <cstring>

#include "sim/bytes.h"

namespace exo::xn {

using sim::AppendLe16;
using sim::AppendLe32;

bool ApplyMods(std::vector<uint8_t>& image, const Mods& mods) {
  for (const ByteMod& m : mods) {
    if (static_cast<uint64_t>(m.offset) + m.bytes.size() > image.size()) {
      return false;
    }
    std::memcpy(image.data() + m.offset, m.bytes.data(), m.bytes.size());
  }
  return true;
}

std::vector<uint8_t> SerializeMods(const Mods& mods) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(AccessIntent::kModify));
  AppendLe16(out, static_cast<uint16_t>(mods.size()));
  for (const ByteMod& m : mods) {
    AppendLe32(out, m.offset);
    AppendLe16(out, static_cast<uint16_t>(m.bytes.size()));
    out.insert(out.end(), m.bytes.begin(), m.bytes.end());
  }
  return out;
}

std::vector<uint8_t> SerializeAccess(AccessIntent intent, hw::BlockId child) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(intent));
  AppendLe32(out, child);
  return out;
}

std::vector<uint8_t> SerializeCaps(const Caps& caps) {
  std::vector<uint8_t> out;
  AppendLe16(out, static_cast<uint16_t>(caps.size()));
  for (const auto& cap : caps) {
    out.push_back(cap.write ? 1 : 0);
    AppendLe16(out, static_cast<uint16_t>(cap.name.size()));
    for (uint16_t part : cap.name) {
      AppendLe16(out, part);
    }
  }
  return out;
}

}  // namespace exo::xn
