// Measurement plumbing of the benchmark: clocks, order statistics, the
// benchmark's own trace spans, and the JSON report it prints.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process.
inline double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// The process's maximum resident set, from the kernel (KiB on Linux).
inline double MaxRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/// Linear interpolation between the order statistics around `p` percent.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double x = p / 100 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(x);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (x - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// The benchmark's own spans around its calls into each layer, kept in
/// memory and written out as one Chrome trace-event document. Disabled
/// lanes (null) record nothing.
class Lane {
 public:
  explicit Lane(std::string name) : name_(std::move(name)) {}

  void Add(const char* span, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({span, start, end});
  }

  /// Chrome trace JSON: one pid, one tid, microsecond timestamps.
  std::string ChromeJson(Clock::time_point epoch) const {
    std::string out = "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"args\":{\"name\":\"" + name_ + "\"}}";
    char buf[256];
    for (const SpanRec& s : spans_) {
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - epoch).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0}",
                    s.name, ts, dur);
      out += buf;
    }
    return out + "]\n";
  }

 private:
  struct SpanRec {
    const char* name;
    Clock::time_point start, end;
  };
  std::string name_;
  std::vector<SpanRec> spans_;
};

/// RAII span on a lane; a null lane makes it free.
class Span {
 public:
  Span(Lane* lane, const char* name)
      : lane_(lane), name_(name), start_(Clock::now()) {}
  ~Span() {
    if (lane_ != nullptr) lane_->Add(name_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane* lane_;
  const char* name_;
  Clock::time_point start_;
};

/// The run's result: named metrics with units, correctness failures, the
/// operation counts, and free-form facts about the inputs.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Info(const std::string& key, double value) {
    info_.emplace_back(key, value);
  }
  /// A wrong output: makes the run incorrect.
  void Fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
    ++failure_count_;
  }
  bool correct() const { return failure_count_ == 0; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print(std::FILE* out) const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit);
      s += buf;
    }
    s += "}, \"info\": {";
    for (size_t i = 0; i < info_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                    info_[i].first.c_str(), info_[i].second);
      s += buf;
    }
    s += "}, \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      s += i ? ", \"" : "\"";
      for (char c : failures_[i]) {
        if (c == '"' || c == '\\') s += '\\';
        s += c;
      }
      s += '"';
    }
    s += "]}\n";
    std::fputs(s.c_str(), out);
    std::fflush(out);
  }

 private:
  struct MetricRec {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<MetricRec> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::string> failures_;
  uint64_t failure_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
