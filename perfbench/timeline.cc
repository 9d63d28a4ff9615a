#include "timeline.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int Timeline::Bucket(const std::string& name) {
  auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    totals_.push_back(0);
  }
  return it->second;
}

void Timeline::Start(int bucket, uint32_t run) {
  active_ = true;
  current_ = bucket;
  run_ = run;
  open_span_ = 0;
  since_ = Clock::now();
}

void Timeline::Stop() {
  Charge(Clock::now());
  active_ = false;
}

void Timeline::Charge(Clock::time_point now) {
  totals_[static_cast<size_t>(current_)] += Seconds(since_, now);
  since_ = now;
}

void Timeline::Switch(int bucket) {
  if (!active_) {
    return;
  }
  Charge(Clock::now());
  current_ = bucket;
}

uint64_t Timeline::Begin(int bucket, const char* name, uint32_t tid,
                         uint64_t parent) {
  if (!active_) {
    return 0;
  }
  const Clock::time_point now = Clock::now();
  Charge(now);
  current_ = bucket;
  if (!record_ || spans_.size() >= kMaxSpans) {
    return 0;
  }
  spans_.push_back(Span{name, bucket, run_, tid, parent, now, now});
  open_span_ = spans_.size();
  return open_span_;
}

void Timeline::End(uint64_t id, int bucket) {
  if (!active_) {
    return;
  }
  const Clock::time_point now = Clock::now();
  Charge(now);
  current_ = bucket;
  if (id != 0) {
    Span& s = spans_[id - 1];
    s.end = now;
    open_span_ = s.parent;
  }
}

std::map<std::string, double> Timeline::Totals() const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    out[names_[i]] = totals_[i];
  }
  return out;
}

namespace {

// Span names are program and call names; escape anything JSON would reject.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Timeline::WritePerfetto(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - epoch_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": %" PRIu32 ", \"tid\": %" PRIu32
                 ", \"args\": {\"id\": %zu, \"parent\": %" PRIu64 "}}",
                 first ? "" : ",\n", JsonEscape(s.name).c_str(),
                 JsonEscape(names_[static_cast<size_t>(s.bucket)]).c_str(), ts, dur, s.run,
                 s.tid, i + 1, s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
