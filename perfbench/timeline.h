// Host-time attribution for the benchmark's traced run.
//
// The simulator is single-threaded and its fibers are cooperative, so at any
// host instant exactly one piece of code is running. The timeline charges
// every instant of a measured phase to one bucket: the benchmark switches the
// bucket at each call into a layer and at each return from one, so the bucket
// totals partition the phase's wall time. A call that blocks (Wait, SysSleep)
// keeps its bucket until some other call returns, which charges scheduling and
// device work done on the caller's behalf to the call kind that caused it.
//
// Alongside the totals the timeline keeps one span per call (name, start, end,
// parent, run id) in memory and writes them as Perfetto trace_event JSON.
#ifndef PERFBENCH_TIMELINE_H_
#define PERFBENCH_TIMELINE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Timeline {
 public:
  // Spans past this many are not kept, bounding memory.
  static constexpr size_t kMaxSpans = 1'000'000;

  // Interns a bucket name ("exos.file_s", "apps.cp.self_s", ...).
  int Bucket(const std::string& name);
  // Interns a span name; the pointer stays valid for the timeline's lifetime.
  const char* Intern(const std::string& name) { return names_kept_.insert(name).first->c_str(); }
  // Whether spans are kept (totals are always kept).
  void set_record(bool on) { record_ = on; }

  // Opens a measured phase charged to `bucket`; `run` labels its spans.
  void Start(int bucket, uint32_t run);
  // Closes the phase, charging the open interval.
  void Stop();

  // Charges the interval since the last switch and continues under `bucket`.
  // A no-op outside a measured phase.
  void Switch(int bucket);

  // Opens a span at the current instant and switches to `bucket`. `name` must
  // be a literal or come from Intern. Returns the span id (0 when not kept).
  uint64_t Begin(int bucket, const char* name, uint32_t tid, uint64_t parent);
  // Closes span `id` and switches to `bucket`.
  void End(uint64_t id, int bucket);

  // Runs `f` under `bucket` and resumes the bucket that was current before,
  // for work nested inside another layer's call (a NIC receive handler).
  template <class F>
  void Nested(int bucket, const char* name, F&& f) {
    const int outer = current_;
    const uint64_t span = Begin(bucket, name, 0, open_span_);
    f();
    End(span, outer);
  }

  // Totals per bucket name over every measured phase so far, in seconds.
  std::map<std::string, double> Totals() const;

  // Writes the kept spans as Chrome/Perfetto trace_event JSON.
  bool WritePerfetto(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int bucket = 0;
    uint32_t run = 0;
    uint32_t tid = 0;
    uint64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  void Charge(Clock::time_point now);

  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<double> totals_;
  std::set<std::string> names_kept_;
  bool record_ = true;
  bool active_ = false;
  int current_ = 0;
  uint32_t run_ = 0;
  Clock::time_point since_;
  Clock::time_point epoch_ = Clock::now();
  uint64_t open_span_ = 0;
  std::vector<Span> spans_;  // span id N is spans_[N - 1]
};

// Calls `f` as one call into a layer: charged to `bucket` from entry until
// the next return, then back to `resume`. With no timeline (the untraced
// run) it is a plain call.
template <class F>
decltype(auto) TimedCall(Timeline* tl, int bucket, int resume, const char* name,
                         uint32_t tid, uint64_t parent, F&& f) {
  if (tl == nullptr) {
    return f();
  }
  const uint64_t span = tl->Begin(bucket, name, tid, parent);
  struct Leave {
    Timeline* tl;
    uint64_t span;
    int resume;
    ~Leave() { tl->End(span, resume); }
  } leave{tl, span, resume};
  return f();
}

}  // namespace perfbench

#endif  // PERFBENCH_TIMELINE_H_
