#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <span>
#include <thread>

#include "te/failover.h"
#include "te/mlu.h"
#include "te/serving_loop.h"
#include "te/wcmp.h"
#include "optimum.h"

namespace perfbench {
namespace {

// The loop's WCMP table size, which the replay must use too.
constexpr std::uint32_t kWcmpTableSize = 16;
constexpr std::size_t kQueueCapacity = 256;
constexpr std::size_t kWorkers = 2;
// Timed two-thread replay passes after the reference pass: at least this
// many, and until they add up to kReplaySeconds; the median is reported.
constexpr int kReplayMinPasses = 5;
constexpr double kReplaySeconds = 1.5;
// Upper bound on closed-loop throughput, for reserving result storage.
constexpr double kMaxPeakRate = 20000.0;
// The producer spins for the last stretch before each due time.
constexpr double kSpinMargin = 2e-3;

enum Phase : int { kWarmup = 0, kLight = 1, kHeavy = 2, kPeak = 3 };

struct Submission {
  double due;     // when the snapshot was due (closed loop: when submitted)
  double submit;  // when try_submit accepted it
  int phase;
  int round;
};

struct PhaseWindow {
  double wall = 0.0;
  double cpu = 0.0;           // process user+sys
  double producer_cpu = 0.0;  // the submitting thread alone
  std::uint64_t accepted = 0;
  std::uint64_t overflows = 0;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The single producer: cycles the workload's stream indices, swaps the
// failure mask at index-keyed points after quiescing the loop (so each
// snapshot's mask depends only on its index), and keeps one Submission per
// accepted snapshot, indexed by the loop's submission sequence number.
class Producer {
 public:
  Producer(te::ServingLoop& loop, const Instance& in) : loop_(loop), in_(in) {}

  PhaseWindow open_loop(int phase, double rate, double seconds) {
    const auto n = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(rate * seconds)));
    PhaseWindow w = begin_window();
    const double t0 = now_s() + 1e-3;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t idx = next_index();
      const double due = t0 + static_cast<double>(i) / rate;
      wait_until(due);
      submit(idx, due, phase, w);
      loop_.drain(results);
    }
    return end_window(w);
  }

  /// Keeps `inflight` snapshots outstanding for `seconds`, or — when
  /// `count` > 0 — until `count` snapshots were submitted.
  PhaseWindow closed_loop(int phase, std::size_t inflight, double seconds,
                          std::uint64_t count) {
    PhaseWindow w = begin_window();
    const double end = now_s() + seconds;
    for (std::uint64_t i = 0; count > 0 ? i < count : now_s() < end; ++i) {
      const std::uint32_t idx = next_index();
      while (loop_.submitted() - loop_.completed() >= inflight) {
        loop_.drain(results);
        std::this_thread::yield();
      }
      submit(idx, -1.0, phase, w);
      loop_.drain(results);
    }
    return end_window(w);
  }

  std::vector<Submission> subs;
  std::vector<te::SnapshotResult> results;
  int round = 0;  // stamped on every submission

 private:
  PhaseWindow begin_window() {
    PhaseWindow w;
    w.wall = now_s();
    w.cpu = process_cpu_s();
    w.producer_cpu = thread_cpu_s();
    return w;
  }

  PhaseWindow end_window(PhaseWindow w) {
    quiesce();
    w.wall = now_s() - w.wall;
    w.cpu = process_cpu_s() - w.cpu;
    w.producer_cpu = thread_cpu_s() - w.producer_cpu;
    return w;
  }

  void quiesce() {
    while (loop_.completed() < loop_.submitted()) {
      loop_.drain(results);
      std::this_thread::yield();
    }
    loop_.drain(results);
  }

  // Sleeps until shortly before `due`, then spins: a sleeping thread can
  // wake milliseconds late on a shared host, and that lateness would count
  // against the loop's latency.
  static void wait_until(double due) {
    sleep_until_s(due - kSpinMargin);
    while (now_s() < due) std::this_thread::yield();
  }

  std::uint32_t next_index() {
    const std::uint32_t idx =
        in_.stream_indices[cursor_++ % in_.stream_indices.size()];
    const int want = in_.domain_of[idx];
    if (want != domain_) {
      quiesce();
      if (want < 0)
        loop_.clear_failures();
      else
        loop_.install_failures(in_.domains[static_cast<std::size_t>(want)]);
      domain_ = want;
    }
    return idx;
  }

  void submit(std::uint32_t idx, double due, int phase, PhaseWindow& w) {
    const double t = now_s();
    if (!loop_.try_submit(idx)) {
      ++w.overflows;  // an open-loop snapshot that found the ring full is lost
      return;
    }
    subs.push_back({due < 0.0 ? t : due, t, phase, round});
    ++w.accepted;
  }

  te::ServingLoop& loop_;
  const Instance& in_;
  std::size_t cursor_ = 0;
  int domain_ = -1;
};

// Path-liveness masks the replay reroutes around (read-only, shared).
struct ReplayMasks {
  std::vector<std::vector<bool>> domain;  // per failure domain
  std::vector<bool> probe;                // Instance::failures
};

// Buffers one replay thread reuses across snapshots, like a serving worker.
struct ReplayScratch {
  te::TeConfig cfg, installed, rerouted, probe;
  te::WcmpWeights weights;
  te::WcmpScratch wcmp;
  std::vector<double> edges;
};

struct PassTiming {
  double wall = 0.0;
  double cpu = 0.0;
};

// Replays every `step`-th stream index from `first` through the same public
// layer functions a worker calls: advise -> WCMP install -> §4.5 reroute (when
// the index has a domain down) -> MLU score, writing each index's MLU into
// `mlu`. With a tracer, every layer call gets a span under one root per index.
void replay(const Instance& in, const ReplayMasks& masks,
            te::FigretScheme& model, ReplayScratch& s, std::size_t first,
            std::size_t step, Tracer* tracer, std::vector<double>& mlu) {
  static const char* const kLayers[4] = {"nn.advise", "wcmp.install",
                                         "failover.reroute", "mlu.score"};
  for (std::size_t i = first; i < in.stream_indices.size(); i += step) {
    const std::uint32_t idx = in.stream_indices[i];
    double marks[5] = {};
    if (tracer) marks[0] = now_s();
    const std::span<const traffic::DemandMatrix> history{
        in.trace.snapshots.data() + (idx - in.history), in.history};
    model.advise_into(history, s.cfg);
    if (tracer) marks[1] = now_s();
    te::quantize_wcmp_into(in.ps, s.cfg, kWcmpTableSize, s.weights, s.wcmp);
    te::ratios_from_wcmp_into(in.ps, s.weights, s.installed);
    if (tracer) marks[2] = now_s();
    const te::TeConfig* served = &s.installed;
    const int dom = in.domain_of[idx];
    if (dom >= 0) {
      te::reroute_into(in.ps, s.installed,
                       masks.domain[static_cast<std::size_t>(dom)], s.rerouted);
      served = &s.rerouted;
    }
    if (tracer) marks[3] = now_s();
    mlu[idx] = te::mlu(in.ps, in.trace[idx], *served, s.edges);
    if (tracer) {
      marks[4] = now_s();
      const std::int64_t root =
          tracer->add("replay.snapshot", marks[0], marks[4], -1, idx);
      for (int k = 0; k < 4; ++k)
        if (k != 2 || dom >= 0)
          tracer->add(kLayers[k], marks[k], marks[k + 1], root, idx);
    }
  }
}

// One single-threaded pass with the replay model.
PassTiming serial_pass(Instance& in, const ReplayMasks& masks,
                       ReplayScratch& s, Tracer* tracer,
                       std::vector<double>& mlu) {
  const PassTiming t0{now_s(), process_cpu_s()};
  replay(in, masks, *in.models[2], s, 0, 1, tracer, mlu);
  return {now_s() - t0.wall, process_cpu_s() - t0.cpu};
}

// One pass split across two threads (alternate indices), each with its own
// model copy and buffers — the width and working set the stream's two
// workers have.
PassTiming parallel_pass(Instance& in, const ReplayMasks& masks,
                         ReplayScratch (&s)[2], std::vector<double>& mlu) {
  const PassTiming t0{now_s(), process_cpu_s()};
  std::exception_ptr helper_error;
  std::thread helper([&] {
    try {
      replay(in, masks, *in.models[1], s[1], 1, 2, nullptr, mlu);
    } catch (...) {
      helper_error = std::current_exception();
    }
  });
  try {
    replay(in, masks, *in.models[0], s[0], 0, 2, nullptr, mlu);
  } catch (...) {
    helper.join();
    throw;
  }
  helper.join();
  if (helper_error) std::rethrow_exception(helper_error);
  return {now_s() - t0.wall, process_cpu_s() - t0.cpu};
}

// Times reroute_into around the probe mask for every stream index that has
// no domain down, so failover.reroute_p50_us is measured on every workload
// even where the stream never fails a link.
void reroute_probe(Instance& in, const ReplayMasks& masks, ReplayScratch& s,
                   Tracer& tracer) {
  te::FigretScheme& model = *in.models[2];
  for (const std::uint32_t idx : in.stream_indices) {
    if (in.domain_of[idx] >= 0) continue;
    const std::span<const traffic::DemandMatrix> history{
        in.trace.snapshots.data() + (idx - in.history), in.history};
    model.advise_into(history, s.cfg);
    te::quantize_wcmp_into(in.ps, s.cfg, kWcmpTableSize, s.weights, s.wcmp);
    te::ratios_from_wcmp_into(in.ps, s.weights, s.installed);
    const double a = now_s();
    te::reroute_into(in.ps, s.installed, masks.probe, s.probe);
    tracer.add("failover.reroute", a, now_s(), -1, idx);
  }
}

double ms(double s) { return s * 1e3; }

}  // namespace

void run_stream(Instance& in, const StreamPlan& plan, bool replay_is_sweep,
                Tracer& tracer, LpLedger& led, Report& report) {
  te::ServingLoop::Options opt;
  opt.workers = kWorkers;
  opt.queue_capacity = kQueueCapacity;
  opt.oracle = false;
  opt.wcmp_table_size = kWcmpTableSize;
  te::ServingLoop loop(in.ps, in.trace, opt);
  te::TeScheme* advisors[kWorkers] = {in.models[0].get(), in.models[1].get()};
  loop.start(advisors);

  Producer prod(loop, in);
  // Room for every submission up front: growing these vectors mid-phase
  // would stall the producer for milliseconds.
  const auto expected = static_cast<std::size_t>(
      plan.rounds * (plan.light_rate * plan.light_seconds +
                     plan.heavy_rate * plan.heavy_seconds +
                     kMaxPeakRate * plan.peak_seconds)) +
      in.stream_indices.size();
  prod.subs.reserve(expected);
  prod.results.reserve(expected);
  // Warm-up: every stream index once, so buffers reach capacity and the
  // model's weights are resident before anything is timed.
  prod.closed_loop(kWarmup, plan.peak_inflight, 0.0, in.stream_indices.size());
  loop.stats().reset();
  // The phases alternate over several rounds so a slow stretch of a shared
  // host lands in every phase alike; each phase sums its rounds' CPU and
  // counts, and reduces its per-round latencies and rates (see serve_ms).
  PhaseWindow win[4];
  std::vector<double> peak_rates;
  const auto add = [&](int phase, const PhaseWindow& w) {
    win[phase].wall += w.wall;
    win[phase].cpu += w.cpu;
    win[phase].producer_cpu += w.producer_cpu;
    win[phase].accepted += w.accepted;
    win[phase].overflows += w.overflows;
  };
  for (int r = 0; r < plan.rounds; ++r) {
    prod.round = r;
    add(kLight, prod.open_loop(kLight, plan.light_rate, plan.light_seconds));
    add(kHeavy, prod.open_loop(kHeavy, plan.heavy_rate, plan.heavy_seconds));
    const PhaseWindow peak =
        prod.closed_loop(kPeak, plan.peak_inflight, plan.peak_seconds, 0);
    add(kPeak, peak);
    peak_rates.push_back(static_cast<double>(peak.accepted) / peak.wall);
  }
  loop.finish();
  const te::ServingStats::Snapshot st = loop.stats().snapshot();

  // Reference replay, then timed two-thread passes that must reproduce it
  // exactly.
  ReplayMasks masks;
  for (const auto& d : in.domains)
    masks.domain.push_back(te::surviving_paths(in.ps, d));
  masks.probe = te::surviving_paths(in.ps, in.failures);
  ReplayScratch scratch[2];
  std::vector<double> ref(in.trace.size(), std::nan(""));
  std::vector<double> again(in.trace.size(), std::nan(""));
  serial_pass(in, masks, scratch[0], nullptr, ref);
  bool deterministic = true;
  const auto matches_ref = [&] {
    for (const std::uint32_t idx : in.stream_indices)
      if (!same_bits(again[idx], ref[idx])) return false;
    return true;
  };
  std::vector<double> pass_wall, pass_cpu;
  for (int p = 0; p < kReplayMinPasses || sum(pass_wall) < kReplaySeconds;
       ++p) {
    const PassTiming t = parallel_pass(in, masks, scratch, again);
    pass_wall.push_back(t.wall);
    pass_cpu.push_back(t.cpu);
    deterministic = deterministic && matches_ref();
  }
  // Tracing overhead: serial passes with and without spans, alternated.
  std::vector<double> plain_wall, traced_wall;
  if (tracer.enabled()) {
    for (int p = 0; p < kReplayMinPasses; ++p) {
      plain_wall.push_back(serial_pass(in, masks, scratch[0], nullptr, again).wall);
      traced_wall.push_back(serial_pass(in, masks, scratch[0], &tracer, again).wall);
      deterministic = deterministic && matches_ref();
    }
    reroute_probe(in, masks, scratch[0], tracer);
  }

  // Match every published result to its submission by sequence number.
  std::vector<std::vector<double>> lat[4];
  for (auto& l : lat) l.resize(static_cast<std::size_t>(plan.rounds));
  std::vector<double> queue_light, infer_all, lag,
      mlu_of(in.trace.size(), std::nan(""));
  double busy_light = 0.0, attributed = 0.0, covered_total = 0.0;
  std::uint64_t not_fresh = 0, measured_results = 0;
  bool identical = prod.results.size() == prod.subs.size();
  bool finite = true;
  for (const te::SnapshotResult& r : prod.results) {
    if (r.seq >= prod.subs.size()) {
      identical = false;
      continue;
    }
    const Submission& s = prod.subs[r.seq];
    identical = identical && same_bits(r.raw_mlu, ref[r.trace_index]);
    finite = finite && std::isfinite(r.raw_mlu) && r.raw_mlu > 0.0;
    mlu_of[r.trace_index] = r.raw_mlu;
    if (s.phase == kWarmup) continue;
    ++measured_results;
    if (r.rung != te::FallbackRung::kFresh) ++not_fresh;
    const double wait = s.submit - s.due;
    const double latency = wait + r.serve_seconds;
    lat[s.phase][static_cast<std::size_t>(s.round)].push_back(latency);
    infer_all.push_back(r.infer_seconds);
    if (s.phase == kLight) {
      queue_light.push_back(r.queue_seconds);
      busy_light += r.total_seconds - r.queue_seconds;
    }
    if (s.phase == kLight || s.phase == kHeavy) {
      lag.push_back(wait);
      attributed += wait + r.queue_seconds + r.infer_seconds + r.install_seconds;
      covered_total += latency;
    }
    if (tracer.enabled()) {
      // Spans rebuilt from the loop's own per-snapshot timers: the benchmark
      // knows due and submit; queue/advise/install come from SnapshotResult.
      const auto snap = static_cast<std::int64_t>(r.seq);
      const double installed = s.submit + r.serve_seconds;
      const std::int64_t root =
          tracer.add("stream.serve", s.due, installed, -1, snap);
      tracer.add("gen.lag", s.due, s.submit, root, snap);
      const double deq = s.submit + r.queue_seconds;
      tracer.add("serving_loop.queue", s.submit, deq, root, snap);
      tracer.add("nn.advise", deq, deq + r.infer_seconds, root, snap);
      const double ins = installed - r.install_seconds;
      tracer.add("wcmp.install", std::max(ins, deq + r.infer_seconds),
                 installed, root, snap);
    }
  }
  // Quality: served MLU against the omniscient optimum of the same snapshot
  // and failure mask. No served config can beat it.
  const std::vector<double> optimum =
      stream_optimum(in, masks.domain, tracer, led);
  std::vector<double> served_mlu, served_norm;
  bool above_opt = led.non_optimal == 0;
  for (const std::uint32_t idx : in.stream_indices) {
    if (std::isnan(mlu_of[idx])) identical = false;
    served_mlu.push_back(mlu_of[idx]);
    served_norm.push_back(mlu_of[idx] / optimum[idx]);
    above_opt = above_opt && served_norm.back() >= 1.0 - 1e-9;
  }

  std::uint64_t overflows = 0;
  for (int p = kLight; p <= kPeak; ++p) overflows += win[p].overflows;
  report.attempted += measured_results + overflows + in.stream_indices.size();
  report.failed += not_fresh + overflows + led.non_optimal;
  report.check("stream.replay_bit_identical", identical);
  report.check("stream.mlu_finite_positive", finite);
  report.check("replay.deterministic", deterministic);
  report.check("stream.served_mlu_at_least_optimum", above_opt);

  const auto per_snap_ms = [](const PhaseWindow& w, double cpu) {
    return w.accepted > 0 ? 1e3 * cpu / static_cast<double>(w.accepted) : 0.0;
  };
  // p50 and p90: each round's percentile, and the median round — a slow
  // stretch of the host moves one round, not the figure. p99: over every
  // round's samples pooled, so at least ten samples lie beyond it.
  const auto serve_ms = [&](const char* name, int phase, double q) {
    std::vector<double> per_round;
    for (const auto& l : lat[phase]) per_round.push_back(ms(percentile(l, q)));
    report.samples(name, per_round);
    return median(per_round);
  };
  const auto pooled = [&](int phase) {
    std::vector<double> all;
    for (const auto& l : lat[phase]) all.insert(all.end(), l.begin(), l.end());
    return all;
  };
  if (!tracer.enabled()) {
    report.metric("light.serve_p50_ms", serve_ms("light.serve_p50_ms", kLight, 50), "ms");
    report.metric("light.serve_p90_ms", serve_ms("light.serve_p90_ms", kLight, 90), "ms");
    report.metric("light.serve_p99_ms", ms(percentile(pooled(kLight), 99)), "ms");
    report.metric("heavy.serve_p50_ms", serve_ms("heavy.serve_p50_ms", kHeavy, 50), "ms");
    report.metric("heavy.serve_p90_ms", serve_ms("heavy.serve_p90_ms", kHeavy, 90), "ms");
    report.metric("heavy.serve_p99_ms", ms(percentile(pooled(kHeavy), 99)), "ms");
    report.metric("light.cpu_ms_per_snap", per_snap_ms(win[kLight], win[kLight].cpu), "ms");
    report.metric("heavy.cpu_ms_per_snap", per_snap_ms(win[kHeavy], win[kHeavy].cpu), "ms");
    report.metric("peak_tput_sps", median(peak_rates), "1/s");  // median round
    report.samples("peak_tput_sps", peak_rates);
    report.metric("mlu_mean", mean(served_mlu), "ratio");
    report.metric("served_norm_mlu_mean", mean(served_norm), "ratio");
    if (replay_is_sweep) {
      report.metric("sweep_s", median(pass_wall), "s");
      report.samples("sweep_s", pass_wall);
      report.metric("sweep_cpu_s", median(pass_cpu), "s");
    }
    report.metric("stream.light_samples", static_cast<double>(pooled(kLight).size()), "count");
    report.metric("stream.heavy_samples", static_cast<double>(pooled(kHeavy).size()), "count");
    return;
  }

  const double worker_cpu = win[kLight].cpu - win[kLight].producer_cpu;
  report.metric("serving_loop.queue_wait_p50_ms", ms(percentile(queue_light, 50)), "ms");
  report.metric("serving_loop.queue_wait_p99_ms", ms(percentile(queue_light, 99)), "ms");
  report.metric("serving_loop.worker_cpu_ms_per_snap", per_snap_ms(win[kLight], worker_cpu), "ms");
  report.metric("serving_loop.worker_idle_cpu_frac",
                worker_cpu > 0.0 ? std::max(0.0, worker_cpu - busy_light) / worker_cpu : 0.0,
                "ratio");
  report.metric("serving_loop.overflows", static_cast<double>(st.overflows), "count");
  report.metric("serving_loop.result_backpressure",
                static_cast<double>(st.result_backpressure), "count");
  const double advise_p50 = percentile(infer_all, 50);
  report.metric("nn.advise_p50_ms", ms(advise_p50), "ms");
  report.metric("nn.advise_p99_ms", ms(percentile(infer_all, 99)), "ms");
  // One forward pass reads every fp64 weight once and does one multiply-add
  // per weight: bytes and operations computed from the model's size.
  const double params = static_cast<double>(in.models[2]->model().num_parameters());
  report.metric("nn.forward_gflops", advise_p50 > 0 ? 2.0 * params / advise_p50 / 1e9 : 0.0, "GFLOP/s");
  report.metric("nn.forward_gbs", advise_p50 > 0 ? 8.0 * params / advise_p50 / 1e9 : 0.0, "GB/s");
  double nnz = 0.0;
  for (const std::uint32_t idx : in.stream_indices)
    nnz += in.trace[idx].density();
  report.metric("nn.input_nnz_frac", nnz / static_cast<double>(in.stream_indices.size()), "ratio");
  report.metric("wcmp.install_p50_us", 1e6 * median(tracer.durations("wcmp.install", "replay.snapshot")), "us");
  report.metric("failover.reroute_p50_us", 1e6 * median(tracer.durations("failover.reroute")), "us");
  report.metric("failover.dropped_pair_snapshots",
                static_cast<double>(st.dropped_pair_snapshots), "count");
  report.metric("mlu.score_p50_us", 1e6 * median(tracer.durations("mlu.score", "replay.snapshot")), "us");
  report.metric("gen.lag_p99_ms", ms(percentile(lag, 99)), "ms");
  report.metric("trace.coverage", covered_total > 0 ? attributed / covered_total : 0.0, "ratio");
  report.metric("trace.overhead_frac", median(traced_wall) / median(plain_wall) - 1.0, "ratio");
}

}  // namespace perfbench
