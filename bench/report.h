// Bench reports and CI gates: the one place a gated bench records its numbers,
// writes them as JSON, and checks them against a committed baseline.
//
// A bench sets each metric under a dotted name ("on.x2.00.goodput",
// "fleet.r20000.p99_ms"), or marks it not measured with a reason. Finish()
// writes
//
//   {"bench": NAME, "metrics": {NAME: NUMBER, ...}, "not_measured": {NAME: REASON, ...}}
//
// to the default path or `--out FILE`. With `--check FILE` it then gates the
// report against a flat baseline in which each `min_<metric>` / `max_<metric>`
// key is one bound (metric >= floor, metric <= ceiling):
//
//   {"bench": "overload_sweep", "note": "...", "min_on.x2.00.goodput_frac": 0.70}
//
// The check prints one pass/FAIL line per bound to stderr (stdout stays the
// bench's deterministic table) and fails if any bound fails, if a bound names a
// metric the bench neither reported nor marked not measured, if the baseline is
// unreadable, or if it holds a key other than comment, note, bench, min_* or
// max_*. A bound on a not-measured metric prints "skipped (<reason>)".
#ifndef EXO_BENCH_REPORT_H_
#define EXO_BENCH_REPORT_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.h"

namespace exo::bench {

// One `min_<metric>` or `max_<metric>` baseline key.
struct Bound {
  std::string key;
  std::string metric;
  bool is_min = true;
  double limit = 0;
};

namespace report_internal {

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Integers print as integers; everything else as the shortest text that reads
// back to the same double. JSON has no inf/NaN, so those become null.
inline std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  if (v == std::trunc(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// A flat JSON object whose values are strings or numbers: all a baseline is.
struct Field {
  std::string key;
  bool is_string = false;
  std::string text;  // the value, if is_string
  double number = 0;  // the value, otherwise
};

inline bool ParseFlatObject(const std::string& s, std::vector<Field>* out) {
  size_t i = 0;
  auto ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
    }
  };
  auto next_is = [&](char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  };
  auto str = [&](std::string* v) {
    if (!next_is('"')) {
      return false;
    }
    for (; i < s.size() && s[i] != '"'; ++i) {
      if (s[i] == '\\') {
        ++i;
      }
      if (i < s.size()) {
        *v += s[i];
      }
    }
    return i++ < s.size();
  };
  if (!next_is('{')) {
    return false;
  }
  if (!next_is('}')) {
    do {
      Field f;
      if (!str(&f.key) || !next_is(':')) {
        return false;
      }
      ws();
      if (i < s.size() && s[i] == '"') {
        f.is_string = str(&f.text);
        if (!f.is_string) {
          return false;
        }
      } else {
        char* end = nullptr;
        f.number = std::strtod(s.c_str() + i, &end);
        if (end == s.c_str() + i) {
          return false;
        }
        i = static_cast<size_t>(end - s.c_str());
      }
      out->push_back(std::move(f));
    } while (next_is(','));
    if (!next_is('}')) {
      return false;
    }
  }
  ws();
  return i == s.size();
}

}  // namespace report_internal

// Reads the baseline at `path` into its bounds (and its "bench" name, if any).
// Returns false with *error set if the file is unreadable, is not a flat JSON
// object of strings and numbers, repeats a key, or has a key other than
// comment, note, bench, min_<metric> or max_<metric> (with a numeric value).
inline bool LoadBaseline(const std::string& path, std::vector<Bound>* bounds,
                         std::string* bench, std::string* error) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    *error = "cannot read baseline " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::vector<report_internal::Field> fields;
  if (!report_internal::ParseFlatObject(text, &fields)) {
    *error = "baseline " + path + " is not a flat JSON object";
    return false;
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    const report_internal::Field& fd = fields[i];
    for (size_t j = 0; j < i; ++j) {
      if (fields[j].key == fd.key) {
        *error = "baseline " + path + " repeats key " + fd.key;
        return false;
      }
    }
    const bool is_min = fd.key.rfind("min_", 0) == 0;
    const bool is_max = fd.key.rfind("max_", 0) == 0;
    if ((is_min || is_max) && fd.key.size() > 4 && !fd.is_string) {
      bounds->push_back({fd.key, fd.key.substr(4), is_min, fd.number});
    } else if (fd.key == "bench" && fd.is_string) {
      *bench = fd.text;
    } else if (!((fd.key == "comment" || fd.key == "note") && fd.is_string)) {
      *error = "baseline " + path + " has unknown key " + fd.key;
      return false;
    }
  }
  return true;
}

class Report {
 public:
  // `out_path` is where Finish() writes unless argv holds `--out FILE`;
  // `--check FILE` arms the baseline gate. Other arguments are the bench's.
  Report(std::string bench, std::string out_path, int argc = 0, char** argv = nullptr)
      : bench_(std::move(bench)), out_path_(std::move(out_path)) {
    for (int i = 1; i + 1 < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--out") {
        out_path_ = argv[++i];
      } else if (a == "--check") {
        check_path_ = argv[++i];
      }
    }
  }

  void Set(const std::string& metric, double value) {
    EXO_CHECK(!Has(metric));
    metrics_.emplace_back(metric, value);
  }
  void NotMeasured(const std::string& metric, std::string reason) {
    EXO_CHECK(!Has(metric));
    not_measured_.emplace_back(metric, std::move(reason));
  }

  std::string Json() const {
    using report_internal::Quote;
    auto object = [](const auto& entries, auto value) {
      std::string s = "{";
      for (size_t i = 0; i < entries.size(); ++i) {
        s += (i == 0 ? "\n    " : ",\n    ") + Quote(entries[i].first) + ": " +
             value(entries[i].second);
      }
      return s + (entries.empty() ? "}" : "\n  }");
    };
    return "{\n  \"bench\": " + Quote(bench_) + ",\n  \"metrics\": " +
           object(metrics_, report_internal::Number) + ",\n  \"not_measured\": " +
           object(not_measured_, Quote) + "\n}\n";
  }

  // Gates this report against the baseline at `path`, appending one line per
  // bound (or the reason the baseline was rejected) to *log. True iff it passes.
  bool Check(const std::string& path, std::string* log) const {
    std::vector<Bound> bounds;
    std::string bench, error;
    if (!LoadBaseline(path, &bounds, &bench, &error)) {
      *log += "FAIL: " + error + "\n";
      return false;
    }
    if (!bench.empty() && bench != bench_) {
      *log += "FAIL: baseline " + path + " is for bench " + bench + ", not " + bench_ + "\n";
      return false;
    }
    bool ok = true;
    for (const Bound& b : bounds) {
      char line[256];
      if (const std::string* reason = Find(not_measured_, b.metric)) {
        std::snprintf(line, sizeof(line), "skipped (%s)", reason->c_str());
      } else if (const double* v = Find(metrics_, b.metric)) {
        const bool pass = b.is_min ? *v >= b.limit : *v <= b.limit;
        std::snprintf(line, sizeof(line), "%.6g %s %.6g %s", *v, b.is_min ? ">=" : "<=",
                      b.limit, pass ? "pass" : "FAIL");
        ok = ok && pass;
      } else {
        std::snprintf(line, sizeof(line), "FAIL (metric not reported)");
        ok = false;
      }
      *log += b.key + ": " + line + "\n";
    }
    *log += ok ? "baseline check passed\n" : "baseline check FAILED\n";
    return ok;
  }

  // Writes the report, then runs the --check gate if armed. Returns the
  // process exit code.
  int Finish() const {
    FILE* f = std::fopen(out_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path_.c_str());
      return 1;
    }
    std::fputs(Json().c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path_.c_str());
    if (check_path_.empty()) {
      return 0;
    }
    std::string log;
    const bool ok = Check(check_path_, &log);
    std::fputs(log.c_str(), stderr);
    return ok ? 0 : 1;
  }

 private:
  template <typename T>
  static const T* Find(const std::vector<std::pair<std::string, T>>& v,
                       const std::string& name) {
    for (const auto& [k, val] : v) {
      if (k == name) {
        return &val;
      }
    }
    return nullptr;
  }
  bool Has(const std::string& metric) const {
    return Find(metrics_, metric) != nullptr || Find(not_measured_, metric) != nullptr;
  }

  std::string bench_;
  std::string out_path_;
  std::string check_path_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> not_measured_;
};

}  // namespace exo::bench

#endif  // EXO_BENCH_REPORT_H_
