// Timing, CPU accounting, percentile and span helpers shared by the
// benchmark's workloads. Spans are kept in memory and written out once at
// exit; nothing here touches the library under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the process started.
double now_s();
/// Sleeps until now_s() reaches `t` (returns at once when it already has).
void sleep_until_s(double t);

/// User+sys CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Linear-interpolated percentile (q in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// One traced interval. `parent` is the id of the enclosing span (-1 for a
/// root); spans of one snapshot share `snapshot` (-1 when not per-snapshot).
struct Span {
  const char* name;
  double start;
  double end;
  std::int64_t parent;
  std::int64_t snapshot;
};

/// In-memory span recorder. Disabled recorders ignore every call, so the
/// untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  /// Records a finished span and returns its id (-1 when disabled).
  std::int64_t add(const char* name, double start, double end,
                   std::int64_t parent = -1, std::int64_t snapshot = -1);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations of every span named `name`, in seconds; with `parent`, only
  /// spans whose parent span is named `parent`.
  std::vector<double> durations(const std::string& name,
                                const std::string& parent = "") const;
  /// Writes the spans as CSV (id,name,start_s,end_s,parent,snapshot).
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
