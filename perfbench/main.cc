// perfbench_driver: runs one workload repeatedly for a fixed wall-clock budget
// and prints one JSON object per sample, then one with the process's peak RSS.
// run.py turns these lines into the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--small] [--trace-out PATH]
//
// The first sample is a warm-up (lazy set-up and allocator growth finish
// there). With --trace 1 the remaining samples alternate untraced and traced,
// so the traced run's overhead is measured against neighbours. A calibration
// block (calibrate.h) runs between samples; each sample carries the mean of
// the blocks on either side of it.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "calibrate.h"
#include "timeline.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::CpuSeconds;

void PrintSample(const char* kind, const perfbench::Sample& s, double cpu_s,
                 const perfbench::Calibration& cal,
                 const std::map<std::string, double>& traced) {
  std::printf("{\"kind\": \"%s\", \"setup_s\": %.9f, \"run_s\": %.9f, \"cpu_s\": %.9f, "
              "\"cal_s\": %.9f, \"cal_cpu_s\": %.9f, "
              "\"ops\": %llu, \"failed_ops\": %llu, \"digest\": \"%016llx\", \"sim_s\": %.9f",
              kind, s.setup_s, s.run_s, cpu_s, cal.wall_s, cal.cpu_s,
              static_cast<unsigned long long>(s.ops),
              static_cast<unsigned long long>(s.failed_ops),
              static_cast<unsigned long long>(s.digest), s.sim_s);
  // `check` and `info` are short ASCII messages the benchmark writes itself.
  std::printf(", \"check\": \"%s\", \"info\": \"%s\", \"layers\": {", s.check.c_str(),
              s.info.c_str());
  bool first = true;
  for (const auto* m : {&s.layers, &traced}) {
    for (const auto& [name, value] : *m) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "[--small] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::SampleOptions opts;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--small") {
      opts.small = true;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) {
    known = known || w == opts.workload;
  }
  if (!known || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  const Clock::time_point start = Clock::now();
  perfbench::Timeline timeline;
  {
    const double cpu0 = CpuSeconds();
    const perfbench::Sample warm = perfbench::RunSample(opts, nullptr, 0);
    PrintSample("warmup", warm, CpuSeconds() - cpu0, {}, {});
  }
  perfbench::Calibrate();  // its own warm-up
  perfbench::Calibration cal_before = perfbench::Calibrate();
  const int min_samples = trace == 1 ? 2 : 1;
  bool recorded = false;
  for (int i = 0; i < min_samples || perfbench::Seconds(start, Clock::now()) < seconds; ++i) {
    const bool traced = trace == 1 && i % 2 == 1;
    // Spans are kept for the first traced sample only; totals for all.
    timeline.set_record(traced && !recorded);
    recorded = recorded || traced;
    const std::map<std::string, double> before = timeline.Totals();
    const double cpu0 = CpuSeconds();
    const perfbench::Sample s =
        perfbench::RunSample(opts, traced ? &timeline : nullptr, static_cast<uint32_t>(i));
    const double cpu_s = CpuSeconds() - cpu0;
    std::map<std::string, double> self;
    if (traced) {
      for (const auto& [name, total] : timeline.Totals()) {
        auto b = before.find(name);
        self[name] = total - (b == before.end() ? 0 : b->second);
      }
    }
    const perfbench::Calibration cal_after = perfbench::Calibrate();
    const perfbench::Calibration cal{(cal_before.wall_s + cal_after.wall_s) / 2,
                                     (cal_before.cpu_s + cal_after.cpu_s) / 2};
    cal_before = cal_after;
    PrintSample(traced ? "traced" : "untraced", s, cpu_s, cal, self);
  }

  if (trace == 1) {
    if (opts.workload == "xok_wakeup") {  // the only workload running UDF programs
      std::printf("{\"kind\": \"udf\", \"ns_per_run\": %.6f}\n",
                  perfbench::UdfNsPerRun(200'000));
    }
    if (!trace_out.empty() && !timeline.WritePerfetto(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"kind\": \"end\", \"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
  return 0;
}
