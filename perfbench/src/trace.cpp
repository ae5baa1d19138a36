#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

const Clock::time_point g_epoch = Clock::now();

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t)));
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::int64_t Tracer::add(const char* name, double start, double end,
                         std::int64_t parent, std::int64_t snapshot) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, snapshot});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const std::string& parent) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (!parent.empty() &&
        (s.parent < 0 || parent != spans_[static_cast<std::size_t>(s.parent)].name))
      continue;
    out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << "id,name,start_s,end_s,parent,snapshot\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%zu,%s,%.9f,%.9f,%lld,%lld\n", i, s.name,
                  s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<long long>(s.snapshot));
    os << buf;
  }
  if (!os.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
