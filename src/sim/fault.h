// FaultInjector: a seed-deterministic fault plan consulted by every hardware model.
//
// The paper's central storage claim is that XN keeps on-disk metadata recoverable
// after a crash at any instant without synchronous writes (Sec. 4.4), and its TCP
// carries retransmission machinery (Sec. 7.3). Neither path is trustworthy unless it
// can be *driven*: this module injects disk I/O errors, power cuts that tear
// multi-block writes, silent media faults (latent sectors, bit rot, misdirected and
// lost writes), and packet drop/corruption/duplication — all drawn from one
// explicitly seeded Rng so a failing schedule is reproducible from its seed alone.
//
// Determinism contract:
//   - All decisions are drawn from a private Rng in consultation order. The
//     simulation is single-threaded and event-ordering is deterministic, so the same
//     seed plus the same workload yields byte-for-byte the same fault schedule.
//   - Every decision that injects a fault is appended to an event log; two runs may
//     be compared with FaultInjector::log() to prove schedule equality.
//   - An unarmed device (no injector attached) draws nothing and charges nothing:
//     fault support is a single null-pointer test on the hot path, so benchmark
//     outputs are bit-identical with and without the subsystem compiled in.
#ifndef EXO_SIM_FAULT_H_
#define EXO_SIM_FAULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace exo::sim {

// One injected fault in replayable form — the only fault-event type. Kind
// letters are disjoint per layer, so one token grammar and one ddmin pass
// cover every layer:
//   wire     'd' drop, 'c' corrupt (arg: byte to flip), 'u' duplicate
//   disk     write stream: 'w' lost write, 'm' misdirected write (arg: target LBA)
//            read stream:  'l' latent sector, 'r' bit rot (arg: byte to flip)
//   machine  'k' kill, 'b' reboot (arg: cluster-wide machine id)
// `index` is the 1-based consultation index within the event's stream: the
// N-th frame to enter any link sharing the injector, the N-th block write, or
// the N-th block read (the count rate-mode log lines print as `seq=`). Because
// consultation order is deterministic, the events a run executed
// (FaultInjector::events()) replay verbatim through FaultPlan::script and hit
// the identical frames and blocks. Machine events key on absolute simulated
// time instead (cycles on the victim's shard clock): machine death is an
// external event applied up front by cluster::Topology::ApplyMachineSchedule,
// not a fate drawn on a device's consultation stream.
struct FaultEvent {
  char kind = 'd';
  uint64_t index = 0;
  uint64_t arg = 0;

  bool operator==(const FaultEvent&) const = default;
};

inline bool IsWireFaultKind(char k) { return k == 'd' || k == 'c' || k == 'u'; }
inline bool IsMachineFaultKind(char k) { return k == 'k' || k == 'b'; }

// The one-line schedule codec: "d@3 w@1 c@15:58 r@7:128 k@5000:1". Tokens are
// separated by spaces; kinds 'c', 'm', 'r', 'k' and 'b' carry a mandatory
// :arg, the others forbid one. The parser is strict: any garbage token,
// overflow, zero index, or duplicate within a stream yields an empty schedule,
// with a diagnostic in *error when supplied — never a silent misparse. The
// streams are wire, disk write, disk read, and machine; a machine duplicate is
// two events for the same machine on the same cycle (ambiguous order), while
// different machines may share a cycle.
std::string FormatFaultSchedule(const std::vector<FaultEvent>& events);
std::vector<FaultEvent> ParseFaultSchedule(const std::string& text,
                                           std::string* error = nullptr);

// Declarative description of the faults to inject. Rates are per-consultation
// probabilities in [0, 1]; 0 disables the corresponding fault class.
struct FaultPlan {
  uint64_t seed = 1;

  // ---- Disk: fail-stop ----
  // Probability that a disk request fails wholesale with Status::kIoError (no DMA
  // is performed; the media is untouched). Transient: a retry redraws.
  double disk_error_rate = 0.0;
  // Power-cut point: after the k-th *block* write lands on the platter, power is
  // lost. A multi-block request in flight is torn: blocks before the cut are
  // durable, the rest never happen. 0 disables.
  uint64_t power_cut_after_blocks = 0;

  // ---- Disk: silent media faults ----
  // Per-block-write probability that the write is acked but never durable (media
  // and checksum tag untouched — the classic lost write).
  double disk_lost_rate = 0.0;
  // Per-block-write probability that the block lands at a wrong LBA: the
  // intended block keeps its old contents, the victim is overwritten.
  double disk_misdirect_rate = 0.0;
  // Per-block-read probability that one media byte flips *persistently* before
  // the DMA (silent bit rot surfacing at read time).
  double disk_rot_rate = 0.0;
  // Per-block-read probability that the sector goes latent-bad: this and every
  // later read of it fails with kIoError until the block is rewritten.
  double disk_latent_rate = 0.0;

  // ---- Wire ----
  double net_drop_rate = 0.0;       // frame vanishes
  double net_corrupt_rate = 0.0;    // one byte of the frame is flipped
  double net_duplicate_rate = 0.0;  // frame is delivered twice
  // Corruption is confined to bytes at or beyond this offset (protocol payload;
  // headers in this simulation carry no checksum, so flipping them would model a
  // fault the receiver cannot detect). Frames too short to corrupt are dropped
  // instead, which the receiver treats identically (a timeout).
  uint32_t net_corrupt_min_offset = 0;

  // ---- Script ----
  // Explicit fates by consultation index, typically a schedule recorded by a
  // previous run (FaultInjector::events()) or a ddmin-pruned subset of one. A
  // layer runs scripted exactly when the script holds events of its kinds:
  // wire kinds replace the three net_* rates, disk kinds the four media rates,
  // and a scripted layer consults no RNG at all. Machine kinds are rejected;
  // they go to cluster::Topology::ApplyMachineSchedule. (The `{}` initializer
  // keeps plans written with designated initializers clean under GCC 12's
  // -Wmissing-field-initializers.)
  std::vector<FaultEvent> script{};
};

struct FaultStats {
  uint64_t disk_requests_seen = 0;
  uint64_t disk_io_errors = 0;
  uint64_t disk_blocks_written = 0;  // durable block writes counted toward the cut
  uint64_t power_cuts = 0;
  uint64_t media_writes_seen = 0;    // block-write fate consultations
  uint64_t disk_blocks_read = 0;     // block-read fate consultations
  uint64_t disk_lost_writes = 0;
  uint64_t disk_misdirects = 0;
  uint64_t disk_rot = 0;
  uint64_t disk_latent = 0;
  uint64_t frames_seen = 0;
  uint64_t net_drops = 0;
  uint64_t net_corruptions = 0;
  uint64_t net_duplicates = 0;
  uint64_t machine_kills = 0;
  uint64_t machine_reboots = 0;

  bool operator==(const FaultStats&) const = default;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // The schedule actually executed, one line per injected fault, in order. Two runs
  // with the same seed and workload must produce identical logs.
  const std::vector<std::string>& log() const { return log_; }

  // Every replayable fault actually executed (wire, media and machine), in
  // consultation order: feed it back through FaultPlan::script (whole or
  // ddmin-pruned — sim::Shrinker) to re-run or minimize the schedule; machine
  // events replay through cluster::Topology::ApplyMachineSchedule. Disk
  // request errors and power cuts are rate/cut-point faults with no replay
  // letter, so they appear in log() only.
  const std::vector<FaultEvent>& events() const { return events_; }

  // Called by the cluster layer when a scheduled machine event fires, so
  // whole-machine faults join the injector's log / trace / counter surface.
  // The injector itself never schedules machine death (it is not a
  // per-device fate).
  void RecordMachine(const FaultEvent& e);

  // Mirrors every injected fault into the tracer's `fault` category as an
  // instant event, stamped with the engine clock, so a failing crash-test
  // schedule replays with a visible timeline. First attachment wins (a Disk and
  // a Link sharing one injector both try to wire it).
  void AttachTracer(trace::Tracer* tracer, const Engine* engine);

  // Mirrors fault counts into the standard counter surface as `fault.*` so
  // activity is observable without reading the injector log (see
  // docs/OBSERVABILITY.md). First attachment wins, as for AttachTracer.
  void AttachCounters(Counters* counters);

  // ---- Disk consultation ----

  // Drawn once per disk request as it begins service. True => the request fails
  // with kIoError and performs no transfer.
  bool NextDiskRequestFails(uint64_t start_block, uint32_t nblocks);

  // Called for each block write the instant it becomes durable. Returns true when
  // this write is the k-th and power is lost *after* it (the caller must freeze:
  // later blocks of the same request are torn away).
  bool OnBlockWritten(uint64_t block);

  // ---- Media consultation ----

  enum class WriteFate { kDurable, kLost, kMisdirect };
  enum class ReadFate { kClean, kRot, kLatent };

  // Drawn once per DMA'd block write, before the transfer. kLost => the caller
  // acks without touching the media; kMisdirect => the data lands at
  // MisdirectTarget() instead of `block`. `num_blocks` bounds the target.
  WriteFate NextWriteFate(uint64_t block, uint64_t num_blocks);
  uint64_t MisdirectTarget() const { return misdirect_target_; }

  // Drawn once per DMA'd block read, before the transfer. kRot => the caller
  // flips the media byte at RotOffset() (persistently) and completes the read;
  // kLatent => the sector is now unreadable until rewritten and the request
  // fails. `block_bytes` bounds the rot offset.
  ReadFate NextReadFate(uint64_t block, uint64_t block_bytes);
  uint64_t RotOffset() const { return rot_offset_; }

  // ---- Wire consultation ----

  enum class WireFate { kDeliver, kDrop, kCorrupt, kDuplicate };

  // Drawn once per frame entering a link. For kCorrupt the caller flips the byte at
  // CorruptionOffset(); for kDuplicate it delivers the frame twice.
  WireFate NextWireFate(uint64_t frame_bytes);

  // Byte index to flip in a frame of `frame_bytes` bytes; only valid immediately
  // after NextWireFate returned kCorrupt for that frame.
  uint64_t CorruptionOffset() const { return corrupt_offset_; }

 private:
  // Every injected fault belongs to one class; kClasses (fault.cc) maps each
  // to its FaultStats field, fault.* counter, trace instant and replay letter.
  enum Class {
    kDiskError, kPowerCut, kLostWrite, kMisdirect, kRot, kLatent,
    kNetDrop, kNetCorrupt, kNetDuplicate, kMachineKill, kMachineReboot,
    kNumClasses,
  };

  // The one recording path for an injected fault: bumps its stat and counter,
  // appends {letter, index, arg} to events() when the class has a replay
  // letter, appends `line` to log() and emits the trace instant.
  void Record(Class c, uint64_t index, uint64_t arg, std::string line,
              uint64_t trace_arg);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  uint64_t corrupt_offset_ = 0;
  uint64_t misdirect_target_ = 0;
  uint64_t rot_offset_ = 0;
  std::vector<std::string> log_;
  std::vector<FaultEvent> events_;
  // plan_.script split by stream, keyed by consultation index.
  std::map<uint64_t, FaultEvent> scripted_frames_;
  std::map<uint64_t, FaultEvent> scripted_writes_;
  std::map<uint64_t, FaultEvent> scripted_reads_;
  bool media_scripted_ = false;
  trace::Tracer* tracer_ = nullptr;
  const Engine* engine_ = nullptr;
  uint32_t trace_track_ = 0;
  Counters::Slot* counters_[kNumClasses] = {};
};

}  // namespace exo::sim

#endif  // EXO_SIM_FAULT_H_
