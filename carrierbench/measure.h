// Clocks, process counters and the one-line JSON result a round prints.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace carrierbench {

using Clock = std::chrono::steady_clock;

inline uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User+system CPU time of the whole process (all threads), in ns.
inline uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

/// Current resident set, in MB (10^6 bytes).
inline double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * 4096.0 / 1e6;
}

/// Peak resident set of the process so far (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  }
  return 0;
}

/// Allocations made by the calling thread so far (counting operator new,
/// alloc_count.cc).
uint64_t thread_allocs();

/// Value at quantile q (0..1) of unsorted samples; reorders them.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

inline double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// The round's result: one JSON object on one line of standard output.
class RoundResult {
 public:
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // correctness violations

  void metric(const std::string& name, double value) { metrics_.emplace_back(name, value); }
  void info(const std::string& name, double value) { info_.emplace_back(name, value); }

  void print() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"correct\":" + (problems.empty() ? "true" : "false") + ",\"problems\":[";
    for (size_t i = 0; i < problems.size(); ++i) {
      out += (i ? ",\"" : "\"") + escape(problems[i]) + "\"";
    }
    out += "],\"metrics\":" + object(metrics_) + ",\"info\":" + object(info_) + "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string escape(const std::string& s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n' ? ' ' : c);
    }
    return o;
  }
  static std::string object(const std::vector<std::pair<std::string, double>>& kv) {
    std::string o = "{";
    char buf[64];
    for (size_t i = 0; i < kv.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", kv[i].second);
      o += (i ? ",\"" : "\"") + kv[i].first + "\":" + buf;
    }
    return o + "}";
  }

  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> info_;
};

}  // namespace carrierbench
