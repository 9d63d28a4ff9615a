#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "apps/http.h"
#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "cluster/topology.h"
#include "exos/system.h"
#include "hw/machine.h"
#include "sim/rng.h"
#include "traced_env.h"
#include "udf/assembler.h"
#include "udf/vm.h"
#include "xok/kernel.h"

namespace perfbench {

namespace {

using namespace exo;

constexpr double kCyclesPerSec = 200e6;  // the paper's 200-MHz Pentium Pro

double WallNow() { return std::chrono::duration<double>(Clock::now().time_since_epoch()).count(); }

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

// FNV-1a over "key=value" lines: the digest of a sample's simulated outputs.
class Digest {
 public:
  void Add(const std::string& key, uint64_t value) {
    Mix(key);
    Mix("=" + std::to_string(value) + "\n");
  }
  void AddCounters(const std::string& prefix, const sim::Counters& counters) {
    for (const auto& [name, value] : counters.Snapshot()) {
      Add(prefix + name, value);
    }
  }
  void AddDisk(const std::string& prefix, const hw::DiskStats& d) {
    Add(prefix + "disk.requests", d.requests);
    Add(prefix + "disk.merged", d.merged_requests);
    Add(prefix + "disk.seeks", d.seeks);
    Add(prefix + "disk.blocks_read", d.blocks_read);
    Add(prefix + "disk.blocks_written", d.blocks_written);
    Add(prefix + "disk.busy_cycles", d.busy_cycles);
  }
  void AddText(const std::string& key, const std::string& text) {
    Mix(key);
    Mix("=" + text + "\n");
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t h_ = 14695981039346656037ULL;
};

void Fail(Sample& s, const std::string& what) {
  if (s.check.size() < 400) {
    s.check += what + "; ";
  }
}

hw::MachineConfig PaperMachine(uint32_t disk_mb) {
  hw::MachineConfig cfg;
  cfg.mem_frames = 16384;  // 64 MB
  cfg.disks = {hw::DiskGeometry{.num_blocks = disk_mb * 256}};
  return cfg;
}

// Counter deltas over the measured phase, for the per-layer counts.
class CounterWindow {
 public:
  explicit CounterWindow(const sim::Counters& c) : c_(c), before_(Map(c)) {}
  void Close() { after_ = Map(c_); }
  uint64_t Delta(const std::string& name) const {
    auto a = after_.find(name);
    auto b = before_.find(name);
    return (a == after_.end() ? 0 : a->second) - (b == before_.end() ? 0 : b->second);
  }

 private:
  static std::map<std::string, uint64_t> Map(const sim::Counters& c) {
    std::map<std::string, uint64_t> m;
    for (const auto& [name, value] : c.Snapshot()) {
      m[name] = value;
    }
    return m;
  }
  const sim::Counters& c_;
  std::map<std::string, uint64_t> before_;
  std::map<std::string, uint64_t> after_;
};

void AddXokCounts(Sample& s, const CounterWindow& w) {
  for (const char* name : {"xok.context_switches", "sched.stride_picks", "xok.predicate_evals",
                           "xok.predicate_skips", "xok.packets_demuxed", "xok.demux_hits",
                           "xok.syscalls"}) {
    s.layers[name] += static_cast<double>(w.Delta(name));
  }
}

void AddDiskCounts(Sample& s, const hw::DiskStats& before, const hw::DiskStats& after) {
  s.layers["hw.disk_requests"] += static_cast<double>(after.requests - before.requests);
  s.layers["hw.disk_merged"] +=
      static_cast<double>(after.merged_requests - before.merged_requests);
  s.layers["hw.disk_blocks"] += static_cast<double>(
      after.blocks_read + after.blocks_written - before.blocks_read - before.blocks_written);
}

// Process-tree tracing for one System: the init body wraps its env once the
// measured phase starts; everything it spawns is wrapped by TracedEnv.
struct ShellTracing {
  explicit ShellTracing(Timeline* tl) {
    if (tl != nullptr) {
      buckets.emplace(tl);
    }
  }
  // Starts the measured phase and returns the env the harness should use.
  os::UnixEnv& Begin(os::UnixEnv& env, uint32_t run) {
    if (!buckets) {
      return env;
    }
    buckets->tl->Start(buckets->App("sh"), run);
    const uint32_t tid = buckets->next_tid++;
    const uint64_t span = buckets->tl->Begin(buckets->App("sh"), "sh", tid, 0);
    traced.emplace(env, &*buckets, "sh", span, tid);
    shell_span = span;
    return *traced;
  }
  void End(Sample& s) {
    if (buckets) {
      buckets->tl->End(shell_span, buckets->App("sh"));
      buckets->tl->Stop();
      s.layers["exos.calls"] += static_cast<double>(buckets->calls);
    }
  }
  std::optional<EnvBuckets> buckets;
  std::optional<TracedEnv> traced;
  uint64_t shell_span = 0;
};

// ---- lcc_install: Figure 2's script on Xok/ExOS and on FreeBSD ----

struct Step {
  const char* name;
  const char* program;
  std::function<Status(os::UnixEnv&)> body;
};

const std::vector<Step>& LccSteps() {
  static const std::vector<Step> steps = {
      {"cp_small", "cp", [](os::UnixEnv& e) { return apps::Cp(e, "/lcc.pax.gz", "/lcc2.pax.gz"); }},
      {"gunzip", "gunzip",
       [](os::UnixEnv& e) { return apps::Gunzip(e, "/lcc2.pax.gz", "/lcc.pax"); }},
      {"cp_large", "cp", [](os::UnixEnv& e) { return apps::Cp(e, "/lcc.pax", "/lcc-copy.pax"); }},
      {"pax_r", "pax", [](os::UnixEnv& e) { return apps::PaxRead(e, "/lcc.pax", "/lcc"); }},
      {"cp_r", "cp", [](os::UnixEnv& e) { return apps::CpR(e, "/lcc", "/lcc-copy"); }},
      {"diff", "diff",
       [](os::UnixEnv& e) {
         auto d = apps::DiffTree(e, "/lcc", "/lcc-copy");
         if (!d.ok()) {
           return d.status();
         }
         return *d == 0 ? Status::kOk : Status::kCorrupted;
       }},
      {"gcc", "gcc", [](os::UnixEnv& e) { return apps::GccBuild(e, "/lcc"); }},
      {"rm_o", "rm", [](os::UnixEnv& e) { return apps::RmByExt(e, "/lcc", ".o"); }},
      {"pax_w", "pax", [](os::UnixEnv& e) { return apps::PaxWrite(e, "/lcc", "/lcc-new.pax"); }},
      {"gzip", "gzip",
       [](os::UnixEnv& e) { return apps::Gzip(e, "/lcc-new.pax", "/lcc-new.pax.gz"); }},
      {"rm_r", "rm", [](os::UnixEnv& e) { return apps::RmTree(e, "/lcc"); }},
  };
  return steps;
}

// Runs `program` as a child of `env` and waits for it; the child's status
// comes back through `body`'s return value.
Status RunChild(os::UnixEnv& env, const std::string& program,
                const std::function<Status(os::UnixEnv&)>& body) {
  Status st = Status::kOk;
  auto pid = env.Spawn(program, [&st, &body](os::UnixEnv& child) { st = body(child); });
  if (!pid.ok()) {
    return pid.status();
  }
  auto w = env.Wait(*pid);
  return w.ok() ? st : w.status();
}

// Runs each action in turn until one fails.
Status InOrder(std::initializer_list<std::function<Status()>> actions) {
  for (const auto& action : actions) {
    const Status st = action();
    if (st != Status::kOk) {
      return st;
    }
  }
  return Status::kOk;
}

// Builds the distribution archive the script starts from (Figure 2's staging).
Status StageLcc(os::UnixEnv& env, const apps::TreeSpec& tree) {
  return InOrder({[&] { return apps::WriteTree(env, tree, "/stage"); },
                  [&] { return apps::PaxWrite(env, "/stage", "/lcc.pax"); },
                  [&] { return apps::Gzip(env, "/lcc.pax", "/lcc.pax.gz"); },
                  [&] { return apps::RmTree(env, "/stage"); },
                  [&] { return env.Unlink("/lcc.pax"); }, [&] { return env.Sync(); }});
}

// One fresh 256 MB-disk paper machine running the 11 steps; returns the
// simulated seconds of the steps.
double RunLccFlavor(os::Flavor flavor, const apps::TreeSpec& tree, Timeline* tl, uint32_t run,
                    Sample& s, Digest& d) {
  const std::string tag = flavor == os::Flavor::kXokExos ? "xok." : "freebsd.";
  const double t0 = WallNow();
  const uint64_t flt0 = MinorFaults();
  sim::Engine engine;
  hw::Machine machine(&engine, PaperMachine(256));
  const double t1 = WallNow();
  s.layers["hw.construct_s"] += t1 - t0;
  s.layers["hw.minflt"] += static_cast<double>(MinorFaults() - flt0);
  os::System sys(&machine, flavor);
  const Status boot = sys.Boot();
  const double t2 = WallNow();
  s.layers["exos.boot_s"] += t2 - t1;
  if (boot != Status::kOk) {
    Fail(s, tag + "boot " + StatusName(boot));
    s.failed_ops += LccSteps().size();
    s.ops += LccSteps().size();
    return 0;
  }

  double run_start = 0;
  double run_end = 0;
  sim::Cycles sim_cycles = 0;
  sys.SpawnInit("sh", [&](os::UnixEnv& raw) {
    const Status staged = StageLcc(raw, tree);
    if (staged != Status::kOk) {
      Fail(s, tag + "staging " + StatusName(staged));
    }
    CounterWindow counters(machine.counters());
    const hw::DiskStats disk0 = machine.disk().stats();
    const uint64_t syscalls0 = sys.syscall_count();
    ShellTracing tracing(tl);
    run_start = WallNow();
    os::UnixEnv& env = tracing.Begin(raw, run);
    for (const Step& step : LccSteps()) {
      const sim::Cycles c0 = env.Now();
      const Status st = staged == Status::kOk ? RunChild(env, step.program, step.body)
                                              : Status::kNotFound;
      const sim::Cycles c1 = env.Now();
      ++s.ops;
      if (st != Status::kOk) {
        ++s.failed_ops;
        Fail(s, tag + step.name + " " + StatusName(st));
      }
      d.Add(tag + step.name, c1 - c0);
      sim_cycles += c1 - c0;
    }
    tracing.End(s);
    run_end = WallNow();

    counters.Close();
    AddXokCounts(s, counters);
    AddDiskCounts(s, disk0, machine.disk().stats());
    s.layers["exos.syscalls"] += static_cast<double>(sys.syscall_count() - syscalls0);
    d.Add(tag + "syscalls", sys.syscall_count());
    d.AddCounters(tag, machine.counters());
    d.AddDisk(tag, machine.disk().stats());

    // Not timed: gunzip must give back exactly what gzip compressed.
    auto same = apps::Gunzip(raw, "/lcc-new.pax.gz", "/verify.pax") == Status::kOk
                    ? apps::DiffFile(raw, "/verify.pax", "/lcc-new.pax")
                    : Result<int>(Status::kIoError);
    if (!same.ok() || *same != 0) {
      Fail(s, tag + "gunzip round trip");
    }
  });
  sys.Run();
  s.setup_s += run_start - t0;
  s.run_s += run_end - run_start;
  return static_cast<double>(sim_cycles) / kCyclesPerSec;
}

Sample RunLccInstall(const SampleOptions& o, Timeline* tl, uint32_t run) {
  Sample s;
  Digest d;
  // The seed picks every file's contents; the tree's shape and file sizes are
  // Figure 2's (seed 42), so the host work per sample does not depend on the
  // seed. Seed 42 is exactly the tree fig2_io_workload installs.
  apps::TreeSpec tree = apps::LccTree(42);
  const apps::TreeSpec contents = apps::LccTree(o.seed);
  if (o.small) {
    tree.files.resize(12);
  }
  tree.total_bytes = 0;
  for (size_t i = 0; i < tree.files.size(); ++i) {
    tree.files[i].seed = contents.files[i].seed;
    tree.total_bytes += tree.files[i].size;
  }
  const double xok = RunLccFlavor(os::Flavor::kXokExos, tree, tl, run * 2, s, d);
  const double bsd = RunLccFlavor(os::Flavor::kFreeBsd, tree, tl, run * 2 + 1, s, d);
  s.sim_s = xok + bsd;
  s.digest = d.value();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "simulated totals: Xok/ExOS %.2f s, FreeBSD %.2f s (paper: 41 s, ~60 s; "
                "for information only)",
                xok, bsd);
  s.info = buf;
  return s;
}

// ---- job_mix: Figure 4's first application pool ----

struct Job {
  const char* program;
  std::function<Status(os::UnixEnv&, int)> body;
};

Status Repeat(int n, const std::function<Status()>& f) {
  for (int i = 0; i < n; ++i) {
    const Status st = f();
    if (st != Status::kOk) {
      return st;
    }
  }
  return Status::kOk;
}

template <class T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

std::string JobDir(int i) { return "/job" + std::to_string(i); }

const std::vector<Job>& JobPool() {
  static const std::vector<Job> pool = {
      {"pax",
       [](os::UnixEnv& e, int i) { return apps::PaxWrite(e, "/shared/t", JobDir(i) + "/t.pax"); }},
      {"grep",
       [](os::UnixEnv& e, int) {
         return Repeat(6, [&] { return StatusOf(apps::Grep(e, "symbol", "/shared/big.txt")); });
       }},
      {"cksum", [](os::UnixEnv& e, int) { return StatusOf(apps::Cksum(e, "/shared/t", 40)); }},
      {"tsp", [](os::UnixEnv& e, int) { return StatusOf(apps::Tsp(e, 500, 30, 7)); }},
      {"sor", [](os::UnixEnv& e, int) { return StatusOf(apps::Sor(e, 300, 60)); }},
      {"wc",
       [](os::UnixEnv& e, int) {
         return Repeat(8, [&] { return StatusOf(apps::Wc(e, "/shared/big.txt")); });
       }},
      {"gcc",
       [](os::UnixEnv& e, int i) {
         const std::string dir = JobDir(i) + "/t";
         const Status st = apps::CpR(e, "/shared/t", dir);
         return st != Status::kOk ? st : apps::GccBuild(e, dir);
       }},
      {"gzip",
       [](os::UnixEnv& e, int i) {
         return apps::Gzip(e, "/shared/big.txt", JobDir(i) + "/big.gz");
       }},
      {"gunzip",
       [](os::UnixEnv& e, int i) {
         const std::string gz = JobDir(i) + "/in.gz";
         const Status st = apps::Gzip(e, "/shared/big.txt", gz);
         return st != Status::kOk ? st : apps::Gunzip(e, gz, JobDir(i) + "/out.txt");
       }},
  };
  return pool;
}

Status WriteFile(os::UnixEnv& env, const std::string& path, const std::vector<uint8_t>& bytes) {
  auto fd = env.Open(path, true);
  if (!fd.ok()) {
    return fd.status();
  }
  auto n = env.Write(*fd, bytes);
  const Status closed = env.Close(*fd);
  return !n.ok() ? n.status() : closed;
}

// The inputs Figure 4's jobs share: a small source tree, its archive, and a
// 2 MB text file.
Status MakeSharedInputs(os::UnixEnv& env) {
  apps::TreeSpec tree;
  tree.dirs = {"t"};
  for (int i = 0; i < 10; ++i) {
    tree.files.push_back({"t/s" + std::to_string(i) + ".c",
                          static_cast<uint32_t>(15'000 + i * 2'000),
                          static_cast<uint64_t>(i + 7)});
  }
  return InOrder({[&] { return env.Mkdir("/shared"); },
                  [&] { return apps::WriteTree(env, tree, "/shared"); },
                  [&] { return apps::PaxWrite(env, "/shared/t", "/shared/t.pax"); },
                  [&] {
                    return WriteFile(env, "/shared/big.txt",
                                     apps::FileContent({.path = "big", .size = 2'000'000, .seed = 99}));
                  }});
}

Sample RunJobMix(const SampleOptions& o, Timeline* tl, uint32_t run) {
  const int total_jobs = o.small ? 7 : 35;
  const int max_concurrent = o.small ? 1 : 5;
  const std::vector<Job>& pool = JobPool();
  Sample s;
  Digest d;

  const double t0 = WallNow();
  const uint64_t flt0 = MinorFaults();
  sim::Engine engine;
  hw::Machine machine(&engine, PaperMachine(512));
  const double t1 = WallNow();
  s.layers["hw.construct_s"] += t1 - t0;
  s.layers["hw.minflt"] += static_cast<double>(MinorFaults() - flt0);
  os::System sys(&machine, os::Flavor::kXokExos);
  const Status boot = sys.Boot();
  const double t2 = WallNow();
  s.layers["exos.boot_s"] += t2 - t1;
  s.ops = static_cast<uint64_t>(total_jobs);
  if (boot != Status::kOk) {
    Fail(s, std::string("boot ") + StatusName(boot));
    s.failed_ops = s.ops;
    return s;
  }

  // The seed orders a fixed multiset of jobs (the pool round-robin), so the
  // work per sample does not depend on the seed while the interleaving does.
  std::vector<size_t> schedule;
  for (int i = 0; i < total_jobs; ++i) {
    schedule.push_back(static_cast<size_t>(i) % pool.size());
  }
  sim::Rng rng(o.seed);
  for (size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.Below(i)]);
  }
  std::vector<Status> job_status(static_cast<size_t>(total_jobs), Status::kNotFound);

  double run_start = 0;
  double run_end = 0;
  sim::Cycles sim_cycles = 0;
  sys.SpawnInit("sh", [&](os::UnixEnv& raw) {
    // Not timed: each job's private directory and the inputs jobs share.
    Status staged = Status::kOk;
    for (int i = 0; i < total_jobs && staged == Status::kOk; ++i) {
      staged = raw.Mkdir(JobDir(i));
    }
    if (staged == Status::kOk) {
      staged = MakeSharedInputs(raw);
    }
    if (staged == Status::kOk) {
      staged = raw.Sync();
    }
    if (staged != Status::kOk) {
      Fail(s, std::string("staging ") + StatusName(staged));
      return;
    }
    CounterWindow counters(machine.counters());
    const hw::DiskStats disk0 = machine.disk().stats();
    const uint64_t syscalls0 = sys.syscall_count();
    ShellTracing tracing(tl);
    run_start = WallNow();
    os::UnixEnv& env = tracing.Begin(raw, run);
    const sim::Cycles c0 = env.Now();
    int launched = 0;
    int running = 0;
    while (launched < total_jobs || running > 0) {
      while (launched < total_jobs && running < max_concurrent) {
        const Job& job = pool[schedule[static_cast<size_t>(launched)]];
        const int idx = launched;
        auto pid = env.Spawn(job.program, [&job, &job_status, idx](os::UnixEnv& child) {
          job_status[static_cast<size_t>(idx)] = job.body(child, idx);
        });
        ++launched;
        if (pid.ok()) {
          ++running;
        } else {
          job_status[static_cast<size_t>(idx)] = pid.status();
        }
      }
      if (running > 0) {
        if (!env.WaitAny().ok()) {
          Fail(s, "waitany");
          break;
        }
        --running;
      }
    }
    sim_cycles = env.Now() - c0;
    tracing.End(s);
    run_end = WallNow();

    counters.Close();
    AddXokCounts(s, counters);
    AddDiskCounts(s, disk0, machine.disk().stats());
    s.layers["exos.syscalls"] += static_cast<double>(sys.syscall_count() - syscalls0);
    d.Add("total_cycles", sim_cycles);
    d.Add("syscalls", sys.syscall_count());
    d.AddCounters("", machine.counters());
    d.AddDisk("", machine.disk().stats());

    // Not timed: every gunzip job must reproduce its input exactly.
    for (int i = 0; i < total_jobs; ++i) {
      if (std::strcmp(pool[schedule[static_cast<size_t>(i)]].program, "gunzip") == 0 &&
          job_status[static_cast<size_t>(i)] == Status::kOk) {
        auto same = apps::DiffFile(raw, JobDir(i) + "/out.txt", "/shared/big.txt");
        if (!same.ok() || *same != 0) {
          Fail(s, "gunzip round trip in " + JobDir(i));
        }
      }
    }
  });
  sys.Run();

  for (int i = 0; i < total_jobs; ++i) {
    const Status st = job_status[static_cast<size_t>(i)];
    if (st != Status::kOk) {
      ++s.failed_ops;
      Fail(s, JobDir(i) + " " + pool[schedule[static_cast<size_t>(i)]].program + " " +
                  StatusName(st));
    }
  }
  for (const auto& rec : sys.proc_records()) {
    d.Add("proc." + rec.program, rec.exited_at - rec.spawned_at);
  }
  s.setup_s = run_start - t0;
  s.run_s = run_end - run_start;
  s.sim_s = static_cast<double>(sim_cycles) / kCyclesPerSec;
  s.digest = d.value();
  char buf[96];
  std::snprintf(buf, sizeof(buf), "simulated total: %.2f s for %d jobs at concurrency %d",
                s.sim_s, total_jobs, max_concurrent);
  s.info = buf;
  return s;
}

// ---- cheetah_fleet: armed Cheetah serving four open-loop clients ----

// Zipf(1.1) over document ranks; rank 0 is the most popular and the smallest.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, uint64_t seed) : rng_(seed) {
    double total = 0;
    cdf_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf_[i] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  size_t Pick() {
    const double u = rng_.NextDouble();
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
  sim::Rng rng_;
};

Sample RunCheetahFleet(const SampleOptions& o, Timeline* tl, uint32_t run) {
  constexpr uint32_t kClients = 4;
  constexpr size_t kDocs = 64;
  constexpr size_t kPoolPerClient = 8;
  constexpr size_t kPipeline = 8;
  constexpr double kOfferedPerSec = 10'000;  // well below the armed server's capacity
  // The warm-up opens the pools and fills the response cache; it is long
  // enough that allocator and page-fault noise stay small against setup_s.
  const double warm_s = o.small ? 0.02 : 1.0;
  const double window_s = o.small ? 0.05 : 3.0;
  Sample s;
  Digest d;

  const double t0 = WallNow();
  const uint64_t flt0 = MinorFaults();
  cluster::TopologyConfig tc;
  tc.servers = 1;
  tc.clients = kClients;
  tc.front_end_lb = false;
  tc.threads = 1;
  tc.seed = o.seed;
  tc.machine.mem_frames = 256;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);
  const double t1 = WallNow();
  s.layers["hw.construct_s"] += t1 - t0;
  s.layers["hw.minflt"] += static_cast<double>(MinorFaults() - flt0);

  const sim::CostModel cost = sim::CostModel::PentiumPro200();
  net::DocumentStore store(&cost);
  apps::HttpServerOptions opts;
  opts.persistent = true;
  opts.documents = &store;
  opts.response_cache_entries = 32;  // < kDocs: evictions are exercised
  opts.gather_tx = true;
  sim::Engine& server_engine = topo.engine_of(topo.server_id(0));
  apps::HttpServer server(&server_engine, &cost, apps::ServerStyle::kCheetah,
                          cluster::Topology::kVip, opts);
  for (size_t i = 0; i < kDocs; ++i) {
    server.AddDocument("d" + std::to_string(i),
                       std::vector<uint8_t>(200 + i * 64, static_cast<uint8_t>(i)));
  }
  if (server.Listen(80) != Status::kOk) {
    Fail(s, "listen");
  }

  const int apps_bucket = tl != nullptr ? tl->Bucket("apps.self_s") : 0;
  const int cluster_bucket = tl != nullptr ? tl->Bucket("cluster.self_s") : 0;
  const int server_rx = tl != nullptr ? tl->Bucket("net.server_rx_s") : 0;
  const int client_rx = tl != nullptr ? tl->Bucket("net.client_rx_s") : 0;

  std::vector<std::unique_ptr<apps::OpenLoopHttpClient>> clients;
  std::vector<std::unique_ptr<ZipfPicker>> pickers;
  const auto interval =
      static_cast<sim::Cycles>(kCyclesPerSec / (kOfferedPerSec / kClients));
  for (uint32_t j = 0; j < kClients; ++j) {
    const net::IpAddr ip = topo.client_ip(j);
    hw::Nic& server_nic = topo.server(0).nic(topo.server_nic_for_client(j));
    server.AttachNic(&server_nic, ip);
    hw::Nic& client_nic = topo.client(j).nic(0);
    auto client = std::make_unique<apps::OpenLoopHttpClient>(
        &topo.engine_of(topo.client_id(j)), &cost, &client_nic, ip, cluster::Topology::kVip,
        "d0", interval);
    client->set_request_timeout(static_cast<sim::Cycles>(0.5 * kCyclesPerSec));
    client->EnablePersistent(kPoolPerClient, kPipeline);
    auto picker = std::make_unique<ZipfPicker>(kDocs, topo.cluster().DeriveSeed(1000 + j));
    client->set_doc_picker([p = picker.get(), tl, apps_bucket] {
      std::string doc;
      if (tl == nullptr) {
        doc = "d" + std::to_string(p->Pick());
      } else {
        tl->Nested(apps_bucket, "pick", [&] { doc = "d" + std::to_string(p->Pick()); });
      }
      return doc;
    });
    if (tl != nullptr) {
      // The same handlers the server and client install, timed from outside.
      server_nic.SetReceiveHandler([tl, server_rx, &server](hw::Packet p) {
        tl->Nested(server_rx, "server_rx", [&] { server.stack().Input(p); });
      });
      client_nic.SetReceiveHandler([tl, client_rx, c = client.get()](hw::Packet p) {
        tl->Nested(client_rx, "client_rx", [&] { c->stack().Input(p); });
      });
    }
    pickers.push_back(std::move(picker));
    clients.push_back(std::move(client));
  }

  // Warm-up, not timed: open every pool connection before the window.
  const auto warm_end = static_cast<sim::Cycles>(warm_s * kCyclesPerSec);
  for (auto& c : clients) {
    c->Start(warm_end);
  }
  topo.RunUntil(warm_end + static_cast<sim::Cycles>(0.01 * kCyclesPerSec));
  const sim::Cycles window_start = server_engine.now();
  const uint64_t rounds0 = topo.cluster().rounds();
  const uint64_t msgs0 = topo.cluster().cross_messages();
  const uint64_t served0 = server.requests_served();

  const double r0 = WallNow();
  if (tl != nullptr) {
    tl->Start(cluster_bucket, run);
  }
  const auto window_end = window_start + static_cast<sim::Cycles>(window_s * kCyclesPerSec);
  for (auto& c : clients) {
    c->Start(window_end);
  }
  topo.Run();
  if (tl != nullptr) {
    tl->Stop();
  }
  const double r1 = WallNow();

  uint64_t issued = 0, completed = 0, failed = 0, conns = 0;
  uint64_t tcp_tx = server.stack().stats().segments_out;
  uint64_t tcp_retx = server.stack().stats().retransmits;
  for (uint32_t j = 0; j < kClients; ++j) {
    const apps::OpenLoopHttpClient& c = *clients[j];
    const std::string tag = "client" + std::to_string(j) + ".";
    d.Add(tag + "issued", c.issued());
    d.Add(tag + "completed", c.completed());
    d.Add(tag + "rejected", c.rejected());
    d.Add(tag + "failed", c.failed());
    d.Add(tag + "bytes", c.bytes_received());
    d.Add(tag + "conns", c.conns_opened());
    d.Add(tag + "p50", c.latency().Percentile(50));
    d.Add(tag + "p99", c.latency().Percentile(99));
    issued += c.issued();
    completed += c.completed();
    failed += c.failed() + c.rejected();
    conns += c.conns_opened();
    tcp_tx += clients[j]->stack().stats().segments_out;
    tcp_retx += clients[j]->stack().stats().retransmits;
    if (c.completed() + c.rejected() + c.failed() != c.issued()) {
      Fail(s, tag + "completed+failed != issued");
    }
  }
  d.Add("server.served", server.requests_served());
  d.Add("server.cache_hits", server.cache_hits());
  d.Add("server.cache_misses", server.cache_misses());
  d.Add("server.gather_sends", server.gather_sends());
  d.Add("tcp.tx", tcp_tx);
  d.Add("tcp.retx", tcp_retx);
  d.Add("end_cycles", server_engine.now());
  d.AddText("counters", topo.MergedCountersDump());

  s.ops = issued;
  s.failed_ops = failed;
  s.setup_s = r0 - t0;
  s.run_s = r1 - r0;
  s.sim_s = static_cast<double>(server_engine.now() - window_start) / kCyclesPerSec;
  s.digest = d.value();
  s.layers["tcp.tx"] = static_cast<double>(tcp_tx);
  s.layers["tcp.retx"] = static_cast<double>(tcp_retx);
  s.layers["http.completed"] = static_cast<double>(completed);
  s.layers["http.window_requests"] = static_cast<double>(server.requests_served() - served0);
  s.layers["http.conns"] = static_cast<double>(conns);
  s.layers["cluster.rounds"] = static_cast<double>(topo.cluster().rounds() - rounds0);
  s.layers["cluster.msgs"] = static_cast<double>(topo.cluster().cross_messages() - msgs0);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "requests: %llu issued, %llu completed over %llu connections",
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(conns));
  s.info = buf;
  return s;
}

// ---- xok_wakeup: ~1000 envs sleeping on watched predicates ----

constexpr uint32_t kTerminal = 0xffffffffu;
constexpr uint16_t kBasePort = 10000;

udf::Program PortFilter(uint16_t port) {
  auto prog = udf::Assemble("ld2 r1, r0, 11, meta\nldi r2, " + std::to_string(port) +
                            "\nceq r3, r1, r2\nret r3\n");
  EXO_CHECK(prog.ok);
  return prog.program;
}

// Wakes once the little-endian word at window[0] reaches `at_least`.
udf::Program AtLeast(uint32_t at_least) {
  using udf::Insn;
  using udf::Op;
  return {Insn{Op::kLdi, 1, 0, 0, 0}, Insn{Op::kLd4, 2, 1, udf::kBufMeta, 0},
          Insn{Op::kLdi, 3, 0, 0, static_cast<int32_t>(at_least)},
          Insn{Op::kCle, 4, 3, 2, 0}, Insn{Op::kRet, 0, 4, 0, 0}};
}

std::vector<uint8_t> Frame(uint16_t port) {
  std::vector<uint8_t> frame(16, 0);
  frame[11] = static_cast<uint8_t>(port & 0xff);
  frame[12] = static_cast<uint8_t>(port >> 8);
  return frame;
}

uint32_t LoadWord(const std::vector<uint8_t>& bytes) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

Sample RunXokWakeup(const SampleOptions& o, Timeline* tl, uint32_t run) {
  const uint32_t n_ring = o.small ? 50 : 500;
  const uint32_t n_region = o.small ? 50 : 500;
  const uint32_t steps = o.small ? 20 : 120;
  constexpr uint32_t kBatch = 32;  // packets per step: below the 64-slot ring
  constexpr uint32_t kPokes = 24;  // region writes per step
  constexpr sim::Cycles kDeliver = 20'000;  // 100 us: the batch lands and demuxes
  Sample s;
  Digest d;

  const double t0 = WallNow();
  const uint64_t flt0 = MinorFaults();
  sim::Engine engine;
  hw::MachineConfig cfg;
  cfg.mem_frames = 256;
  cfg.disks.clear();
  hw::Machine machine(&engine, cfg);
  const double t1 = WallNow();
  s.layers["hw.construct_s"] += t1 - t0;
  s.layers["hw.minflt"] += static_cast<double>(MinorFaults() - flt0);
  xok::XokKernel kernel(&machine);
  hw::Nic peer(99);
  hw::Link link(&engine, 1000.0, 1.0, 200);
  link.Connect(&peer, &machine.nic(0));

  // The seeded inputs: which port each packet targets, which region each poke hits.
  sim::Rng rng(o.seed);
  std::vector<uint16_t> ports(static_cast<size_t>(steps) * kBatch);
  std::vector<uint32_t> expected(n_ring, 0);
  for (auto& p : ports) {
    const auto k = static_cast<uint32_t>(rng.Below(n_ring));
    p = static_cast<uint16_t>(kBasePort + k);
    ++expected[k];
  }
  std::vector<uint32_t> pokes(static_cast<size_t>(steps) * kPokes);
  std::vector<uint32_t> poked(n_region, 0);
  for (auto& k : pokes) {
    k = static_cast<uint32_t>(rng.Below(n_region));
  }
  std::vector<xok::RegionId> regions(n_region);
  for (auto& rid : regions) {
    auto r = kernel.SysRegionCreate(8, {}, xok::kCredAny);
    EXO_CHECK(r.ok());
    rid = *r;
  }

  const int apps_b = tl != nullptr ? tl->Bucket("apps.self_s") : 0;
  const int sched_b = tl != nullptr ? tl->Bucket("xok.sched_s") : 0;
  const int sys_b = tl != nullptr ? tl->Bucket("xok.syscall_s") : 0;
  const int demux_b = tl != nullptr ? tl->Bucket("xok.demux_s") : 0;
  // One call into the kernel from env `tid`, timed in the traced run.
  auto call = [tl, apps_b](int bucket, const char* name, uint32_t tid, auto&& f) -> decltype(auto) {
    return TimedCall(tl, bucket, apps_b, name, tid, 0, f);
  };
  // Env bodies start in their own code and end in the scheduler's exit path.
  auto body = [tl, apps_b, sched_b](std::function<void()> f) {
    return [tl, apps_b, sched_b, f = std::move(f)] {
      if (tl != nullptr) {
        tl->Switch(apps_b);
      }
      f();
      if (tl != nullptr) {
        tl->Switch(sched_b);
      }
    };
  };

  std::vector<uint32_t> consumed(n_ring, 0);
  std::vector<uint32_t> seen(n_region, 0);
  uint64_t wakeups = 0;
  uint32_t installed = 0;
  const std::vector<xok::Capability> root = {xok::Capability::Root()};

  for (uint32_t k = 0; k < n_ring; ++k) {
    kernel.CreateEnv(xok::kInvalidEnv, root, body([&, k] {
      const auto port = static_cast<uint16_t>(kBasePort + k);
      auto fid = call(sys_b, "filter_install", k, [&] {
        return kernel.SysFilterInstall(PortFilter(port), 0);
      });
      ++installed;
      if (!fid.ok()) {
        Fail(s, "filter install");
        return;
      }
      while (consumed[k] < expected[k]) {
        xok::WakeupPredicate p;
        p.host = [&kernel, f = *fid] { return !kernel.Filter(f)->ring.empty(); };
        p.watches.push_back(xok::WatchSpec{xok::WatchKind::kFilterRing, *fid});
        call(sched_b, "sleep_ring", k, [&] { kernel.SysSleep(std::move(p)); });
        ++wakeups;
        while (call(sys_b, "ring_consume", k, [&] { return kernel.SysRingConsume(*fid, 0); }).ok()) {
          ++consumed[k];
        }
      }
    }));
  }
  for (uint32_t k = 0; k < n_region; ++k) {
    kernel.CreateEnv(xok::kInvalidEnv, root, body([&, k] {
      const std::vector<uint8_t>* window = kernel.RegionBytes(regions[k]);
      uint32_t next = 1;
      while (true) {
        xok::WakeupPredicate p;
        p.program = AtLeast(next);
        p.live_window = window;
        p.watches.push_back(xok::WatchSpec{xok::WatchKind::kRegion, regions[k]});
        call(sched_b, "sleep_region", n_ring + k, [&] { kernel.SysSleep(std::move(p)); });
        const uint32_t v = LoadWord(*window);
        if (v == kTerminal) {
          return;
        }
        ++wakeups;
        seen[k] = v;
        next = v + 1;
      }
    }));
  }
  const uint32_t producer = n_ring + n_region;
  kernel.CreateEnv(xok::kInvalidEnv, root, body([&] {
    while (installed < n_ring) {
      call(sched_b, "yield", producer, [&] { kernel.SysYield(); });
    }
    auto poke = [&](uint32_t k, uint32_t value) {
      uint8_t buf[4];
      std::memcpy(buf, &value, sizeof(buf));
      if (call(sys_b, "region_write", producer,
               [&] { return kernel.SysRegionWrite(regions[k], 0, buf, 0); }) != Status::kOk) {
        Fail(s, "region write");
      }
    };
    for (uint32_t step = 0; step < steps; ++step) {
      call(demux_b, "deliver", producer, [&] {
        for (uint32_t i = 0; i < kBatch; ++i) {
          peer.Transmit({.bytes = Frame(ports[static_cast<size_t>(step) * kBatch + i])});
        }
        kernel.ChargeCpu(kDeliver);
      });
      for (uint32_t i = 0; i < kPokes; ++i) {
        const uint32_t k = pokes[static_cast<size_t>(step) * kPokes + i];
        poke(k, ++poked[k]);
      }
      call(sched_b, "yield", producer, [&] { kernel.SysYield(); });
    }
    for (uint32_t k = 0; k < n_region; ++k) {
      poke(k, kTerminal);
    }
  }));

  CounterWindow counters(machine.counters());
  const sim::Cycles c0 = engine.now();
  const double r0 = WallNow();
  if (tl != nullptr) {
    tl->Start(sched_b, run);
  }
  kernel.Run();
  if (tl != nullptr) {
    tl->Stop();
  }
  const double r1 = WallNow();
  counters.Close();

  if (!kernel.deadlock_report().empty()) {
    Fail(s, "deadlock");
  }
  uint64_t undelivered = 0;
  for (uint32_t k = 0; k < n_ring; ++k) {
    undelivered += expected[k] - std::min(expected[k], consumed[k]);
  }
  for (uint32_t k = 0; k < n_region; ++k) {
    if (poked[k] != 0 && seen[k] != poked[k]) {
      ++undelivered;
    }
  }
  if (undelivered != 0) {
    Fail(s, std::to_string(undelivered) + " wakeups not delivered");
  }
  for (const char* bad : {"xok.ring_drops", "xok.packets_unclaimed"}) {
    if (counters.Delta(bad) != 0) {
      Fail(s, bad);
    }
  }

  d.Add("end_cycles", engine.now());
  d.Add("wakeups", wakeups);
  d.AddCounters("", machine.counters());
  AddXokCounts(s, counters);
  s.layers["xok.wakeups"] = static_cast<double>(wakeups);
  s.ops = wakeups + undelivered;
  s.failed_ops = undelivered;
  s.setup_s = r0 - t0;
  s.run_s = r1 - r0;
  s.sim_s = static_cast<double>(engine.now() - c0) / kCyclesPerSec;
  s.digest = d.value();
  char buf[128];
  std::snprintf(buf, sizeof(buf), "wakeups delivered: %llu to %u envs, %zu packets",
                static_cast<unsigned long long>(wakeups), n_ring + n_region, ports.size());
  s.info = buf;
  return s;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lcc_install", "job_mix", "cheetah_fleet",
                                                 "xok_wakeup"};
  return names;
}

Sample RunSample(const SampleOptions& opts, Timeline* tl, uint32_t run) {
  if (opts.workload == "lcc_install") {
    return RunLccInstall(opts, tl, run);
  }
  if (opts.workload == "job_mix") {
    return RunJobMix(opts, tl, run);
  }
  if (opts.workload == "cheetah_fleet") {
    return RunCheetahFleet(opts, tl, run);
  }
  return RunXokWakeup(opts, tl, run);
}

double UdfNsPerRun(uint32_t iterations) {
  const udf::Program filter = PortFilter(kBasePort + 7);
  const udf::Program predicate = AtLeast(3);
  const std::vector<uint8_t> frame = Frame(kBasePort + 7);
  const std::vector<uint8_t> window = {3, 0, 0, 0, 0, 0, 0, 0};
  udf::RunInput on_frame;
  on_frame.buffers[udf::kBufMeta] = frame;
  udf::RunInput on_window;
  on_window.buffers[udf::kBufMeta] = window;
  uint64_t accepted = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < iterations; ++i) {
    accepted += udf::Run(filter, on_frame).ret;
    accepted += udf::Run(predicate, on_window).ret;
  }
  const Clock::time_point t1 = Clock::now();
  EXO_CHECK_EQ(accepted, 2ull * iterations);
  return Seconds(t0, t1) * 1e9 / (2.0 * iterations);
}

}  // namespace perfbench
