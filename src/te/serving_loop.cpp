#include "te/serving_loop.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "te/chaos.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "util/parallel.h"

namespace figret::te {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

ServingLoop::ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace)
    : ServingLoop(ps, trace, Options{}) {}

ServingLoop::ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace,
                         const Options& opt)
    : ps_(&ps),
      trace_(&trace),
      opt_(opt),
      workers_(opt.workers == 0 ? util::default_threads() : opt.workers),
      uniform_(uniform_config(ps)),
      jobs_(opt.queue_capacity == 0 ? 1 : opt.queue_capacity),
      results_(2 * util::ring_capacity_for(
                       opt.queue_capacity == 0 ? 1 : opt.queue_capacity)) {
  if (trace.num_nodes != ps.num_nodes())
    throw std::invalid_argument("ServingLoop: trace/topology mismatch");
  if (opt_.queue_capacity == 0)
    throw std::invalid_argument("ServingLoop: queue_capacity must be >= 1");
  if (opt_.wcmp_table_size == 0)
    throw std::invalid_argument("ServingLoop: wcmp_table_size must be >= 1");
}

ServingLoop::~ServingLoop() {
  // Abandoned streaming session: let workers drain what is already on the
  // ring (bounded by its capacity), then stop.
  stop_.store(true, std::memory_order_release);
  for (auto& w : stream_workers_)
    if (w->thread.joinable()) w->thread.join();
}

void ServingLoop::start(std::span<TeScheme* const> advisors) {
  if (running_)
    throw std::logic_error("ServingLoop: start() while already running");
  if (opt_.infer) {
    if (advisors.size() != workers_)
      throw std::invalid_argument(
          "ServingLoop: need exactly one advisor per worker");
    for (TeScheme* s : advisors)
      if (s == nullptr)
        throw std::invalid_argument("ServingLoop: null advisor");
  }
  stop_.store(false, std::memory_order_relaxed);
  window_ = 1;
  stream_workers_.clear();
  for (std::size_t i = 0; i < workers_; ++i) {
    auto w = std::make_unique<Worker>();
    if (opt_.infer) {
      w->advisor = advisors[i];
      w->window = std::max<std::size_t>(1, advisors[i]->history_window());
      window_ = std::max(window_, w->window);
    }
    stream_workers_.push_back(std::move(w));
  }
  for (auto& w : stream_workers_)
    w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
  running_ = true;
}

void ServingLoop::check_submittable(std::uint32_t index) const {
  if (!running_)
    throw std::logic_error("ServingLoop: submit before start()");
  if (index < window_ || index >= trace_->size())
    throw std::out_of_range(
        "ServingLoop: index outside the servable trace range");
}

bool ServingLoop::try_submit(std::uint32_t index) {
  check_submittable(index);
  Job job;
  job.seq = next_seq_;
  job.index = index;
  job.enqueued = Clock::now();
  if (!jobs_.try_push(job)) {
    stats_.overflows.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ++next_seq_;
  return true;
}

void ServingLoop::submit(std::uint32_t index) {
  check_submittable(index);
  Job job;
  job.seq = next_seq_;
  job.index = index;
  job.enqueued = Clock::now();
  while (!jobs_.try_push(job)) std::this_thread::yield();
  ++next_seq_;
}

std::size_t ServingLoop::drain(std::vector<SnapshotResult>& out) {
  std::size_t n = 0;
  SnapshotResult r;
  while (results_.try_pop(r)) {
    out.push_back(r);
    ++n;
  }
  return n;
}

void ServingLoop::finish() {
  if (!running_) return;
  while (completed_.load(std::memory_order_acquire) < next_seq_)
    std::this_thread::yield();
  stop_.store(true, std::memory_order_release);
  for (auto& w : stream_workers_)
    if (w->thread.joinable()) w->thread.join();
  for (auto& w : stream_workers_) aggregate_warm(*w);
  stream_workers_.clear();
  running_ = false;
  if (stream_error_) {
    std::exception_ptr e = stream_error_;
    stream_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ServingLoop::install_failures(const std::vector<net::EdgeId>& failed) {
  auto alive = std::make_shared<const std::vector<bool>>(
      surviving_paths(*ps_, failed));
  // Pairs with zero surviving paths are priced as dropped demand rather than
  // silently rerouted (the §4.5 all-paths-dead edge case).
  auto dead = std::make_shared<std::vector<std::uint32_t>>();
  disconnected_pairs_into(*ps_, *alive, *dead);
  {
    std::lock_guard<std::mutex> lock(failure_mu_);
    failure_alive_ = std::move(alive);
    failure_dead_pairs_ = std::move(dead);
    failure_epoch_.fetch_add(1, std::memory_order_release);
  }
  stats_.failure_epochs.fetch_add(1, std::memory_order_relaxed);
}

void ServingLoop::clear_failures() {
  {
    std::lock_guard<std::mutex> lock(failure_mu_);
    failure_alive_.reset();
    failure_dead_pairs_.reset();
    failure_epoch_.fetch_add(1, std::memory_order_release);
  }
  stats_.failure_epochs.fetch_add(1, std::memory_order_relaxed);
}

void ServingLoop::refresh_failures(Worker& w) {
  // One relaxed-ish load per snapshot; the mutex is touched only on the
  // snapshot where the epoch actually changed.
  if (failure_epoch_.load(std::memory_order_acquire) == w.failure_epoch_seen)
    return;
  std::lock_guard<std::mutex> lock(failure_mu_);
  w.alive = failure_alive_;
  w.dead_pairs = failure_dead_pairs_;
  w.failure_epoch_seen = failure_epoch_.load(std::memory_order_relaxed);
}

void ServingLoop::worker_loop(Worker& w) {
  Job job;
  for (;;) {
    if (jobs_.try_pop(job)) {
      try {
        process_snapshot(w, job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (!stream_error_) stream_error_ = std::current_exception();
      }
      completed_.fetch_add(1, std::memory_order_release);
    } else if (stop_.load(std::memory_order_acquire)) {
      return;
    } else {
      std::this_thread::yield();
    }
  }
}

void ServingLoop::process_snapshot(Worker& w, const Job& job) {
  const auto dequeued = Clock::now();
  SnapshotResult r;
  r.seq = job.seq;
  r.trace_index = job.index;
  r.queue_seconds = seconds_since(job.enqueued, dequeued);

  refresh_failures(w);

  const std::size_t t = job.index;
  const ChaosEngine* chaos = opt_.chaos;
  const EpochPlan* plan = nullptr;
  if (chaos != nullptr && job.index >= chaos->begin() &&
      job.index < chaos->end())
    plan = &chaos->plan(job.index);

  if (plan != nullptr && plan->stall) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(chaos->stall_seconds()));
    stats_.chaos_stalls.fetch_add(1, std::memory_order_relaxed);
  }

  const TeConfig* served = &uniform_;
  FallbackRung rung = FallbackRung::kFresh;

  if (opt_.infer) {
    const auto start = Clock::now();
    const std::span<const traffic::DemandMatrix> history{
        trace_->snapshots.data() + (t - w.window), w.window};
    bool advise_ok = true;
    try {
      if (plan != nullptr && plan->corrupt_demand) {
        // The advisor sees a corrupted copy of its newest input snapshot.
        w.history_scratch.assign(history.begin(), history.end());
        chaos->corrupt_demand_into(job.index, history[w.window - 1],
                                   w.history_scratch[w.window - 1]);
        w.advisor->advise_into(
            std::span<const traffic::DemandMatrix>(w.history_scratch.data(),
                                                   w.window),
            w.cfg);
      } else {
        w.advisor->advise_into(history, w.cfg);
      }
    } catch (...) {
      // A scheme may legitimately blow up on corrupted inputs; with the
      // ladder on, that is just another invalid output. Without validation
      // the historical contract holds: the exception surfaces on finish().
      if (!opt_.validate_outputs) throw;
      advise_ok = false;
    }
    if (advise_ok && plan != nullptr) chaos->corrupt_config(job.index, w.cfg);
    r.infer_seconds = seconds_since(start, Clock::now());
    served = &w.cfg;

    if (opt_.validate_outputs && (!advise_ok || !config_servable(w.cfg))) {
      stats_.invalid_outputs.fetch_add(1, std::memory_order_relaxed);
      served = fallback_config(w, job.index, rung);
    } else if (opt_.validate_outputs && opt_.fallback_last_good &&
               (plan == nullptr ? chaos == nullptr : plan->clean())) {
      // Bank this epoch as a rung-1 donor. Under chaos only clean() epochs
      // qualify — and the donor a degraded epoch resolves to is pinned by
      // last_clean_before, so the cache is keyed by the donor index.
      w.last_good_cfg = w.cfg;
      w.last_good_index = job.index;
      w.has_last_good = true;
    }
  }

  if (opt_.install) {
    const auto start = Clock::now();
    quantize_wcmp_into(*ps_, *served, opt_.wcmp_table_size, w.weights,
                       w.wcmp_scratch);
    ratios_from_wcmp_into(*ps_, w.weights, w.installed);
    double worst = 0.0;
    for (std::size_t p = 0; p < w.installed.size(); ++p)
      worst = std::max(worst, std::abs(w.installed[p] - (*served)[p]));
    r.quant_error = worst;
    served = &w.installed;
    r.install_seconds = seconds_since(start, Clock::now());
  }

  // §4.5: failure response renormalizes whatever is installed, so it comes
  // after quantization (a switch reroutes its realized WCMP ratios).
  if (w.alive) {
    reroute_into(*ps_, *served, *w.alive, w.rerouted);
    served = &w.rerouted;
    if (w.dead_pairs && !w.dead_pairs->empty()) {
      const auto& dm = (*trace_)[t];
      double dropped = 0.0;
      for (const std::uint32_t pr : *w.dead_pairs) dropped += dm[pr];
      if (dropped > 0.0) {
        r.dropped_demand = dropped;
        stats_.dropped_pair_snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  r.serve_seconds = seconds_since(job.enqueued, Clock::now());
  r.slo_violation =
      opt_.slo_seconds > 0.0 && r.serve_seconds > opt_.slo_seconds;

  if (opt_.score)
    r.raw_mlu = te::mlu(*ps_, (*trace_)[t], *served, w.edge_scratch);

  if (opt_.oracle) {
    const auto start = Clock::now();
    const std::vector<bool>* alive = w.alive ? w.alive.get() : nullptr;
    lp::SolverOptions sopts = opt_.solver;
    if (opt_.solver_deadline_seconds > 0.0)
      sopts.simplex.time_limit_seconds = opt_.solver_deadline_seconds;
    const std::size_t max_attempts = 1 + opt_.oracle_retries;
    double backoff = opt_.oracle_backoff_seconds;
    MluLpResult res;
    std::size_t attempt = 0;
    for (;; ++attempt) {
      lp::SolverOptions cur = sopts;
      // Injected deadline overrun: the first attempt's budget is already
      // expired, so it returns kDeadline before its first pivot and the
      // backoff+retry path runs deterministically.
      if (plan != nullptr && plan->overrun && attempt == 0)
        cur.simplex.time_limit_seconds = -1.0;
      res = solve_mlu_lp(*ps_, (*trace_)[t], nullptr, alive, &cur, &w.warm);
      if (res.optimal() || attempt + 1 >= max_attempts) break;
      stats_.oracle_attempt_failures[static_cast<std::size_t>(res.status)]
          .fetch_add(1, std::memory_order_relaxed);
      stats_.oracle_retries.fetch_add(1, std::memory_order_relaxed);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(backoff, opt_.oracle_backoff_max_seconds)));
        backoff *= 2.0;
      }
    }
    r.lp_seconds = seconds_since(start, Clock::now());
    r.lp_pivots = static_cast<std::uint32_t>(res.pivots);
    r.lp_attempts =
        static_cast<std::uint8_t>(std::min<std::size_t>(attempt + 1, 255));
    if (res.optimal()) {
      if (attempt > 0)
        stats_.oracle_retry_successes.fetch_add(1, std::memory_order_relaxed);
      r.oracle_mlu = res.mlu;
      const double denom = res.mlu > 1e-12 ? res.mlu : 1e-12;
      r.normalized = r.raw_mlu / denom;
    } else {
      // Streaming mode degrades gracefully: the snapshot is still served,
      // only its normalizer is missing.
      stats_.oracle_attempt_failures[static_cast<std::size_t>(res.status)]
          .fetch_add(1, std::memory_order_relaxed);
      stats_.oracle_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  r.rung = rung;
  if (chaos != nullptr) r.config_hash = config_fingerprint(*served, rung);

  r.total_seconds = seconds_since(job.enqueued, Clock::now());

  while (!results_.try_push(r)) {
    stats_.result_backpressure.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }

  stats_.queue.record(r.queue_seconds);
  if (opt_.infer) stats_.infer.record(r.infer_seconds);
  if (opt_.install) stats_.install.record(r.install_seconds);
  if (opt_.oracle) stats_.lp.record(r.lp_seconds);
  stats_.serve.record(r.serve_seconds);
  stats_.e2e.record(r.total_seconds);
  stats_.served.fetch_add(1, std::memory_order_relaxed);
  stats_.fallback_rungs[static_cast<std::size_t>(rung)].fetch_add(
      1, std::memory_order_relaxed);
  if (r.slo_violation)
    stats_.slo_violations.fetch_add(1, std::memory_order_relaxed);
}

const TeConfig* ServingLoop::fallback_config(Worker& w, std::uint32_t index,
                                             FallbackRung& rung) {
  if (opt_.fallback_last_good && opt_.infer) {
    const ChaosEngine* chaos = opt_.chaos;
    if (chaos != nullptr && index >= chaos->begin() && index < chaos->end()) {
      // The donor epoch is a pure function of (schedule, index): every
      // worker that lands on this degraded epoch recomputes the identical
      // donor config, which is what keeps chaos runs bit-reproducible
      // across worker counts.
      const std::uint32_t lg = chaos->last_clean_before(index);
      if (lg != ChaosEngine::kNoEpoch && lg >= w.window) {
        if (!w.has_last_good || w.last_good_index != lg) {
          const std::span<const traffic::DemandMatrix> donor{
              trace_->snapshots.data() + (lg - w.window), w.window};
          bool ok = true;
          try {
            w.advisor->advise_into(donor, w.last_good_cfg);
          } catch (...) {
            ok = false;
          }
          w.has_last_good = ok && config_servable(w.last_good_cfg);
          w.last_good_index = lg;
        }
        if (w.has_last_good) {
          rung = FallbackRung::kLastGood;
          return &w.last_good_cfg;
        }
      }
    } else if (w.has_last_good) {
      rung = FallbackRung::kLastGood;
      return &w.last_good_cfg;
    }
  }
  rung = FallbackRung::kUniform;
  return &uniform_;
}

void ServingLoop::aggregate_warm(const Worker& w) {
  stats_.warm_hits.fetch_add(w.warm.hits(), std::memory_order_relaxed);
  stats_.warm_misses.fetch_add(w.warm.misses(), std::memory_order_relaxed);
  for (std::size_t k = 0; k < lp::kWarmFallbackCount; ++k)
    stats_.warm_fallbacks[k].fetch_add(w.warm.miss_reasons()[k],
                                       std::memory_order_relaxed);
}

}  // namespace figret::te
