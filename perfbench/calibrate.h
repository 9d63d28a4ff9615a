// The benchmark's yardstick for host speed.
//
// The benchmark runs on shared virtual machines whose speed swings by 2x or
// more between runs (a busy neighbour, frequency changes). A run's median
// cannot average such a swing away when it lasts longer than the run. So the
// driver times a fixed block of host work before and after every sample, in
// the same process and on the same thread, and run.py expresses each sample's
// times in units of that block. The block's code belongs to the benchmark and
// never calls the simulator, so a change to the simulator cannot move it.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

struct Calibration {
  double wall_s = 0;  // host wall seconds of one block
  double cpu_s = 0;   // process user+sys CPU seconds of one block
};

// Runs one calibration block: the same work on every call. The work mixes what
// the simulator spends its host time on: hash-map churn, small allocations,
// data-dependent branches, and zero-filling and copying fresh pages. It keeps
// to a few hundred KB plus the fresh pages: a block chasing pointers through
// megabytes tracked a busy neighbour much worse than the simulator did, since
// losing the cache slows it far more.
Calibration Calibrate();

// Process user+sys CPU seconds so far.
double CpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
