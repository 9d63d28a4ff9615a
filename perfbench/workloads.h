// The benchmark's four workloads. Each runs one sample: set-up, then a measured
// phase, then checks of the simulated outputs (which are never metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "timeline.h"

namespace perfbench {

struct SampleOptions {
  std::string workload;
  uint64_t seed = 42;
  bool small = false;  // the smoke test's reduced scale
};

struct Sample {
  double setup_s = 0;  // host wall seconds before the measured phase
  double run_s = 0;    // host wall seconds of the measured phase
  uint64_t ops = 0;    // steps, jobs, requests or wakeups attempted
  uint64_t failed_ops = 0;
  uint64_t digest = 0;  // FNV-1a over the simulated outputs
  std::string check;    // empty when every invariant held, else what broke
  double sim_s = 0;     // simulated seconds of the measured phase
  // Per-layer raw values: simulated counts and host seconds the workload
  // measured itself (machine construction, boot). Ratios are derived later.
  std::map<std::string, double> layers;
  std::string info;  // one line for the human-readable report
};

const std::vector<std::string>& WorkloadNames();

// Runs one sample. With `tl` set this is the traced run: calls into each layer
// are timed into `tl` under run id `run`.
Sample RunSample(const SampleOptions& opts, Timeline* tl, uint32_t run);

// Times the UDF interpreter on the xok_wakeup workload's own filter and
// predicate programs; returns host ns per run.
double UdfNsPerRun(uint32_t iterations);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
