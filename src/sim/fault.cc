#include "sim/fault.h"

#include <cctype>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <tuple>

#include "sim/check.h"

namespace exo::sim {

namespace {
std::string Format(const char* fmt, uint64_t a, uint64_t b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

// ---- Strict schedule tokenizer ----
//
// Grammar: tokens separated by one or more spaces, each `kind@index` or
// `kind@index:arg`. Hand-parsed so overflow is an error, not a wrap; any
// malformed byte rejects the whole schedule.

struct SchedToken {
  char kind = 0;
  uint64_t index = 0;
  bool has_arg = false;
  uint64_t arg = 0;
};

bool ParseU64(const std::string& text, size_t* pos, uint64_t* out) {
  if (*pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[*pos]))) {
    return false;
  }
  uint64_t v = 0;
  while (*pos < text.size() && std::isdigit(static_cast<unsigned char>(text[*pos]))) {
    const uint64_t d = static_cast<uint64_t>(text[*pos] - '0');
    if (v > (UINT64_MAX - d) / 10) {
      return false;  // overflow
    }
    v = v * 10 + d;
    ++*pos;
  }
  *out = v;
  return true;
}

void SetError(std::string* error, size_t token, const std::string& why) {
  if (error != nullptr) {
    *error = "token " + std::to_string(token) + ": " + why;
  }
}

bool KindCarriesArg(char k) {
  return k == 'c' || k == 'r' || k == 'm' || IsMachineFaultKind(k);
}

bool TokenizeSchedule(const std::string& text, std::vector<SchedToken>* out,
                      std::string* error) {
  size_t pos = 0;
  size_t token = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') {
      ++pos;
    }
    if (pos >= text.size()) {
      break;
    }
    ++token;
    SchedToken t;
    t.kind = text[pos];
    if (std::string_view("dcuwmlrkb").find(t.kind) == std::string_view::npos) {
      SetError(error, token, std::string("unknown kind '") + t.kind + "'");
      return false;
    }
    ++pos;
    if (pos >= text.size() || text[pos] != '@') {
      SetError(error, token, "expected '@' after kind");
      return false;
    }
    ++pos;
    if (!ParseU64(text, &pos, &t.index)) {
      SetError(error, token, "bad or overflowing index");
      return false;
    }
    if (t.index == 0) {
      SetError(error, token, "index must be >= 1 (consultation indices are 1-based)");
      return false;
    }
    if (pos < text.size() && text[pos] == ':') {
      ++pos;
      if (!ParseU64(text, &pos, &t.arg)) {
        SetError(error, token, "bad or overflowing arg");
        return false;
      }
      t.has_arg = true;
    }
    if (pos < text.size() && text[pos] != ' ') {
      SetError(error, token, "trailing garbage in token");
      return false;
    }
    const bool want_arg = KindCarriesArg(t.kind);
    if (want_arg && !t.has_arg) {
      SetError(error, token, std::string("kind '") + t.kind + "' requires :arg");
      return false;
    }
    if (!want_arg && t.has_arg) {
      SetError(error, token, std::string("kind '") + t.kind + "' forbids :arg");
      return false;
    }
    out->push_back(t);
  }
  return true;
}

// The stream a kind is consulted on. 'k' and 'b' share one stream so
// kill+reboot of one machine on one cycle — whose order would be ambiguous —
// is rejected as a duplicate.
enum Stream { kWireStream, kWriteStream, kReadStream, kMachineStream };

Stream StreamOf(char k) {
  if (IsWireFaultKind(k)) {
    return kWireStream;
  }
  if (IsMachineFaultKind(k)) {
    return kMachineStream;
  }
  return (k == 'w' || k == 'm') ? kWriteStream : kReadStream;
}

// Rejects two events aimed at the same consultation index of the same stream:
// they are ambiguous (the script map would silently last-win). Machine kinds
// key on (index, arg) instead of index alone: their index is a *time*, and two
// machines may legitimately die on the same cycle — only two events for the
// same machine at the same cycle are ambiguous.
bool CheckDuplicates(const std::vector<SchedToken>& tokens, std::string* error) {
  std::map<std::tuple<Stream, uint64_t, uint64_t>, size_t> seen;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const uint64_t sub = IsMachineFaultKind(tokens[i].kind) ? tokens[i].arg : 0;
    const auto key = std::make_tuple(StreamOf(tokens[i].kind), tokens[i].index, sub);
    auto [it, inserted] = seen.emplace(key, i);
    if (!inserted) {
      SetError(error, i + 1,
               "duplicate index " + std::to_string(tokens[i].index) +
                   " (clashes with token " + std::to_string(it->second + 1) + ")");
      return false;
    }
  }
  return true;
}

struct ClassInfo {
  char letter;  // replay kind letter; 0 = not replayable (log only)
  uint64_t FaultStats::*stat;
  const char* counter;
  const char* trace;
};

// Indexed by FaultInjector::Class.
constexpr ClassInfo kClasses[] = {
    {0, &FaultStats::disk_io_errors, "fault.disk_io_errors", "disk_error"},
    {0, &FaultStats::power_cuts, "fault.power_cuts", "power_cut"},
    {'w', &FaultStats::disk_lost_writes, "fault.disk_lost_writes", "disk_lost_write"},
    {'m', &FaultStats::disk_misdirects, "fault.disk_misdirects", "disk_misdirect"},
    {'r', &FaultStats::disk_rot, "fault.disk_rot", "disk_rot"},
    {'l', &FaultStats::disk_latent, "fault.disk_latent", "disk_latent"},
    {'d', &FaultStats::net_drops, "fault.net_drops", "net_drop"},
    {'c', &FaultStats::net_corruptions, "fault.net_corruptions", "net_corrupt"},
    {'u', &FaultStats::net_duplicates, "fault.net_duplicates", "net_duplicate"},
    {'k', &FaultStats::machine_kills, "fault.machine_kills", "machine_kill"},
    {'b', &FaultStats::machine_reboots, "fault.machine_reboots", "machine_reboot"},
};
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
  for (const FaultEvent& e : plan_.script) {
    switch (StreamOf(e.kind)) {
      case kWireStream:
        scripted_frames_[e.index] = e;
        break;
      case kWriteStream:
        scripted_writes_[e.index] = e;
        break;
      case kReadStream:
        scripted_reads_[e.index] = e;
        break;
      case kMachineStream:  // replayed by cluster::Topology::ApplyMachineSchedule
        EXO_CHECK(!IsMachineFaultKind(e.kind));
    }
  }
  media_scripted_ = !scripted_writes_.empty() || !scripted_reads_.empty();
}

void FaultInjector::AttachTracer(trace::Tracer* tracer, const Engine* engine) {
  if (tracer_ != nullptr) {
    return;
  }
  tracer_ = tracer;
  engine_ = engine;
  trace_track_ = tracer->NewTrack("faults");
}

void FaultInjector::AttachCounters(Counters* counters) {
  if (counters_[0] != nullptr) {
    return;
  }
  for (int c = 0; c < kNumClasses; ++c) {
    counters_[c] = counters->Handle(kClasses[c].counter);
  }
}

void FaultInjector::Record(Class c, uint64_t index, uint64_t arg, std::string line,
                           uint64_t trace_arg) {
  static_assert(std::size(kClasses) == kNumClasses);
  const ClassInfo& info = kClasses[c];
  ++(stats_.*info.stat);
  if (counters_[c] != nullptr) {
    ++*counters_[c];
  }
  if (info.letter != 0) {
    events_.push_back(FaultEvent{info.letter, index, arg});
  }
  log_.push_back(std::move(line));
  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kFault)) {
    tracer_->Instant(trace::Category::kFault, trace_track_, info.trace,
                     engine_ != nullptr ? engine_->now() : 0, trace_arg);
  }
}

void FaultInjector::RecordMachine(const FaultEvent& e) {
  EXO_CHECK(IsMachineFaultKind(e.kind));
  if (e.kind == 'k') {
    Record(kMachineKill, e.index, e.arg, Format("machine-kill t=%llu m=%llu", e.index, e.arg),
           e.arg);
  } else {
    Record(kMachineReboot, e.index, e.arg,
           Format("machine-reboot t=%llu m=%llu", e.index, e.arg), e.arg);
  }
}

bool FaultInjector::NextDiskRequestFails(uint64_t start_block, uint32_t nblocks) {
  ++stats_.disk_requests_seen;
  if (plan_.disk_error_rate <= 0.0 || rng_.NextDouble() >= plan_.disk_error_rate) {
    return false;
  }
  Record(kDiskError, 0, 0, Format("disk-error block=%llu n=%llu", start_block, nblocks),
         start_block);
  return true;
}

bool FaultInjector::OnBlockWritten(uint64_t block) {
  ++stats_.disk_blocks_written;
  if (plan_.power_cut_after_blocks == 0 ||
      stats_.disk_blocks_written != plan_.power_cut_after_blocks) {
    return false;
  }
  Record(kPowerCut, 0, 0,
         Format("power-cut after-block=%llu writes=%llu", block, stats_.disk_blocks_written),
         block);
  return true;
}

FaultInjector::WriteFate FaultInjector::NextWriteFate(uint64_t block,
                                                      uint64_t num_blocks) {
  const uint64_t seq = ++stats_.media_writes_seen;
  char kind = 0;
  uint64_t target = 0;
  if (media_scripted_) {
    auto it = scripted_writes_.find(seq);
    if (it == scripted_writes_.end()) {
      return WriteFate::kDurable;
    }
    // 'w', or a misdirect whose target falls off the media: the write is lost.
    target = it->second.arg;
    kind = it->second.kind == 'm' && target < num_blocks ? 'm' : 'w';
  } else if (plan_.disk_lost_rate > 0.0 || plan_.disk_misdirect_rate > 0.0) {
    const double roll = rng_.NextDouble();
    if (roll < plan_.disk_lost_rate) {
      kind = 'w';
    } else if (roll < plan_.disk_lost_rate + plan_.disk_misdirect_rate &&
               num_blocks != 0) {
      kind = 'm';
      target = rng_.Below(num_blocks);
    }
  }
  if (kind == 'w') {
    Record(kLostWrite, seq, 0, Format("disk-lost-write block=%llu seq=%llu", block, seq),
           block);
    return WriteFate::kLost;
  }
  if (kind == 'm') {
    misdirect_target_ = target;
    Record(kMisdirect, seq, target,
           Format("disk-misdirect block=%llu to=%llu", block, target), block);
    return WriteFate::kMisdirect;
  }
  return WriteFate::kDurable;
}

FaultInjector::ReadFate FaultInjector::NextReadFate(uint64_t block,
                                                    uint64_t block_bytes) {
  const uint64_t seq = ++stats_.disk_blocks_read;
  char kind = 0;
  uint64_t offset = 0;
  if (media_scripted_) {
    auto it = scripted_reads_.find(seq);
    if (it == scripted_reads_.end()) {
      return ReadFate::kClean;
    }
    kind = it->second.kind;
    // Clamp the offset into the block so the recorded (effective) event
    // replays identically.
    offset = block_bytes != 0 ? it->second.arg % block_bytes : 0;
  } else if (plan_.disk_latent_rate > 0.0 || plan_.disk_rot_rate > 0.0) {
    const double roll = rng_.NextDouble();
    if (roll < plan_.disk_latent_rate) {
      kind = 'l';
    } else if (roll < plan_.disk_latent_rate + plan_.disk_rot_rate && block_bytes != 0) {
      kind = 'r';
      offset = rng_.Below(block_bytes);
    }
  }
  if (kind == 'r') {
    rot_offset_ = offset;
    Record(kRot, seq, offset, Format("disk-rot block=%llu off=%llu", block, offset), block);
    return ReadFate::kRot;
  }
  if (kind == 'l') {
    Record(kLatent, seq, 0, Format("disk-latent block=%llu seq=%llu", block, seq), block);
    return ReadFate::kLatent;
  }
  return ReadFate::kClean;
}

FaultInjector::WireFate FaultInjector::NextWireFate(uint64_t frame_bytes) {
  const uint64_t seq = ++stats_.frames_seen;
  const uint64_t min_offset = plan_.net_corrupt_min_offset;
  char kind = 0;
  uint64_t offset = 0;
  const char* drop_format = "net-drop bytes=%llu seq=%llu";
  if (!scripted_frames_.empty()) {
    // Scripted mode: explicit fates by consultation index, zero RNG draws. A
    // corruption outside [min_offset, frame_bytes) is demoted to a drop, as in
    // rate mode, so a recorded schedule replays to the identical outcome.
    auto it = scripted_frames_.find(seq);
    if (it == scripted_frames_.end()) {
      return WireFate::kDeliver;
    }
    kind = it->second.kind;
    offset = it->second.arg;
    if (kind == 'c' && (offset < min_offset || offset >= frame_bytes)) {
      kind = 'd';
    }
  } else if (plan_.net_drop_rate > 0.0 || plan_.net_corrupt_rate > 0.0 ||
             plan_.net_duplicate_rate > 0.0) {
    // One draw decides the fate; the rates partition [0, 1).
    const double roll = rng_.NextDouble();
    if (roll < plan_.net_drop_rate) {
      kind = 'd';
    } else if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate) {
      if (frame_bytes <= min_offset) {
        // Nothing detectably corruptible: model the damaged frame as lost instead.
        kind = 'd';
        drop_format = "net-drop(short-corrupt) bytes=%llu seq=%llu";
      } else {
        kind = 'c';
        offset = min_offset + rng_.Below(frame_bytes - min_offset);
      }
    } else if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate +
                          plan_.net_duplicate_rate) {
      kind = 'u';
    }
  }
  switch (kind) {
    case 0:
      return WireFate::kDeliver;
    case 'c':
      corrupt_offset_ = offset;
      Record(kNetCorrupt, seq, offset,
             Format("net-corrupt bytes=%llu off=%llu", frame_bytes, offset), offset);
      return WireFate::kCorrupt;
    case 'u':
      Record(kNetDuplicate, seq, 0, Format("net-dup bytes=%llu seq=%llu", frame_bytes, seq),
             frame_bytes);
      return WireFate::kDuplicate;
    default:
      Record(kNetDrop, seq, 0, Format(drop_format, frame_bytes, seq), frame_bytes);
      return WireFate::kDrop;
  }
}

std::string FormatFaultSchedule(const std::vector<FaultEvent>& events) {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) {
      out += ' ';
    }
    out += e.kind;
    out += '@' + std::to_string(e.index);
    if (KindCarriesArg(e.kind)) {
      out += ':' + std::to_string(e.arg);
    }
  }
  return out;
}

std::vector<FaultEvent> ParseFaultSchedule(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedToken> tokens;
  if (!TokenizeSchedule(text, &tokens, error) || !CheckDuplicates(tokens, error)) {
    return {};
  }
  std::vector<FaultEvent> out;
  out.reserve(tokens.size());
  for (const SchedToken& t : tokens) {
    out.push_back(FaultEvent{t.kind, t.index, t.arg});
  }
  return out;
}

}  // namespace exo::sim
