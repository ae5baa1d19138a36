// Streaming TE serving loop — the controller-shaped runtime around the
// paper's pipeline. A single producer submits trace indices onto a bounded
// lock-free ring; worker threads pick snapshots up run-to-completion:
//
//   NN inference (advise_into)  ->  WCMP install (quantize)  ->
//   failure reroute (§4.5)      ->  MLU scoring              ->
//   optional omniscient warm-LP resolve                      ->
//   lock-free publish (sequence-numbered results ring)
//
// Each worker owns its whole working set — TeScheme instance, lp::WarmStart
// chain, every scratch buffer — so the hot path takes no locks and performs
// no allocations once buffers reach steady-state capacity (the LP stage
// allocates internally; disable `oracle` for a strictly allocation-free
// serving path). Warm-LP chains are per worker by construction, so two
// concurrent callers can never interleave basis lineages.
//
// Each worker chains its LP warm starts indefinitely, trading bit-identity
// across worker counts for steady-state pivot savings. Batch evaluation (the
// Harness, te/harness.h) does not go through this loop: it runs its sweeps
// on util::parallel_for with one fresh warm chain per fixed chunk, which
// keeps its results bit-identical for any execution width.
//
// Failure handling mid-stream: install_failures() swaps in a path-liveness
// mask behind a shared_ptr + epoch counter; workers notice with one relaxed
// load per snapshot and only touch a mutex on the epoch that changes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/pathset.h"
#include "te/scheme.h"
#include "te/serving_stats.h"
#include "te/wcmp.h"
#include "traffic/demand.h"
#include "util/ring.h"

namespace figret::te {

class ChaosEngine;  // te/chaos.h

/// One served snapshot, published on the results ring. Plain data: ring
/// slots are pre-allocated and publishing is a copy + sequence release.
struct SnapshotResult {
  /// Monotone submission sequence number (drain order may differ).
  std::uint64_t seq = 0;
  std::uint32_t trace_index = 0;
  /// Simplex pivots of the omniscient resolve (0 when `oracle` is off).
  std::uint32_t lp_pivots = 0;
  /// MLU of the configuration actually served (post install/reroute).
  double raw_mlu = 0.0;
  /// Omniscient LP optimum for this snapshot (0 when `oracle` is off or the
  /// resolve failed — see ServingStats::oracle_failures).
  double oracle_mlu = 0.0;
  /// raw_mlu / oracle_mlu with the Harness' 1e-12 denominator floor.
  double normalized = 0.0;
  /// Largest per-path ratio change introduced by WCMP quantization.
  double quant_error = 0.0;
  double queue_seconds = 0.0;    // submit -> worker dequeue
  double infer_seconds = 0.0;    // advise_into
  double lp_seconds = 0.0;       // omniscient resolve
  double install_seconds = 0.0;  // WCMP quantize + ratio reconstruction
  double serve_seconds = 0.0;    // submit -> config installed (SLO quantity)
  double total_seconds = 0.0;    // submit -> result published
  bool slo_violation = false;
  /// Which rung of the degradation ladder actually served this snapshot.
  FallbackRung rung = FallbackRung::kFresh;
  /// Oracle resolve attempts spent (1 = first try succeeded; 0 = oracle off).
  std::uint8_t lp_attempts = 0;
  /// Demand volume whose every candidate path was dead (dropped, §4.5 edge
  /// case — priced, not silently rerouted).
  double dropped_demand = 0.0;
  /// config_fingerprint of the served config (0 unless chaos is attached) —
  /// the cross-worker bit-reproducibility probe.
  std::uint64_t config_hash = 0;
};

class ServingLoop {
 public:
  struct Options {
    /// Worker threads; 0 = util::default_threads().
    std::size_t workers = 0;
    /// Snapshot ring capacity (rounded up to a power of two). The results
    /// ring holds 2x this.
    std::size_t queue_capacity = 256;
    /// Serve-latency SLO (submit -> installed); 0 disables SLO accounting.
    double slo_seconds = 0.0;
    /// Quantize to WCMP weights and serve the realized switch ratios.
    bool install = true;
    /// Per-snapshot omniscient warm-LP resolve (the normalizer). Off by
    /// default: it dominates cost and allocates inside the solver.
    bool oracle = false;
    std::uint32_t wcmp_table_size = 16;
    /// LP solver knobs for oracle resolves.
    lp::SolverOptions solver;

    // --- graceful degradation ----------------------------------------------
    /// Reject advised configs carrying NaN/Inf/negative weights before
    /// install and serve from a lower ladder rung instead.
    bool validate_outputs = true;
    /// Rung 1: re-serve the most recent known-good config (renormalized over
    /// surviving paths on install). Off -> rejected outputs skip straight to
    /// uniform ECMP.
    bool fallback_last_good = true;
    /// Wall-clock budget per oracle resolve attempt; 0 = no deadline. A
    /// deadline hit returns a typed partial status (lp::Status::kDeadline)
    /// instead of throwing — the snapshot still serves.
    double solver_deadline_seconds = 0.0;
    /// Retry attempts (beyond the first) for a failed oracle resolve, with
    /// exponential backoff between attempts starting here (capped at 5 ms).
    std::size_t oracle_retries = 2;
    double oracle_backoff_seconds = 0.0002;
    /// Optional fault-injection schedule (borrowed; must outlive the run).
    /// Workers consult it read-only, keyed by trace index.
    const ChaosEngine* chaos = nullptr;
  };

  /// Borrows `ps` and `trace` — both must outlive the loop.
  ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace);
  ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace,
              const Options& opt);
  ~ServingLoop();

  ServingLoop(const ServingLoop&) = delete;
  ServingLoop& operator=(const ServingLoop&) = delete;

  std::size_t num_workers() const noexcept { return workers_; }
  const ServingStats& stats() const noexcept { return stats_; }
  /// Mutable access for monitoring resets (e.g. dropping warmup samples
  /// between benchmark passes). Only safe while no snapshot is in flight.
  ServingStats& stats() noexcept { return stats_; }

  /// Spawns the workers. `advisors` supplies exactly one fitted TeScheme per
  /// worker (advise is stateful, so instances must be distinct — clone via
  /// FigretScheme::save/load or construct per worker).
  void start(std::span<TeScheme* const> advisors);

  /// Single-producer submission of trace index `index` (which must have at
  /// least the advisors' history window before it). try_submit returns false
  /// and counts an overflow when the snapshot ring is full; submit blocks
  /// (yield-spin) until accepted.
  bool try_submit(std::uint32_t index);
  void submit(std::uint32_t index);

  /// Appends every currently published result to `out`; returns how many.
  /// Call concurrently with submission to bound the results ring.
  std::size_t drain(std::vector<SnapshotResult>& out);

  /// Waits for every submitted snapshot to be served, stops and joins the
  /// workers, folds per-worker warm-chain totals into stats(). Rethrows the
  /// first worker exception, if any. The loop may be start()ed again.
  void finish();

  /// §4.5 mid-stream failure events: swap the path-liveness mask derived
  /// from `failed` in (or out) without pausing the stream. Workers pick the
  /// new mask up on their next snapshot; LP warm chains fall back to a cold
  /// start on their own when the constraint structure changes.
  void install_failures(const std::vector<net::EdgeId>& failed);
  void clear_failures();

  std::uint64_t submitted() const noexcept { return next_seq_; }
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Ring unit of work: one submitted trace index.
  struct Job {
    std::uint64_t seq = 0;
    std::uint32_t index = 0;
    Clock::time_point enqueued{};
  };

  /// Per-worker run-to-completion state: everything a snapshot touches.
  struct Worker {
    TeScheme* advisor = nullptr;
    std::size_t window = 1;
    lp::WarmStart warm;
    TeConfig cfg;
    TeConfig installed;
    TeConfig rerouted;
    WcmpWeights weights;
    WcmpScratch wcmp_scratch;
    std::vector<double> edge_scratch;
    std::shared_ptr<const std::vector<bool>> alive;
    /// Pair ids with no surviving path under `alive` (same epoch swap).
    std::shared_ptr<const std::vector<std::uint32_t>> dead_pairs;
    std::uint64_t failure_epoch_seen = 0;
    /// Rung-1 cache: the most recent known-good advised config. Under chaos
    /// the donor epoch is pinned by ChaosEngine::last_clean_before so every
    /// worker recomputes the identical donor; without chaos it is simply the
    /// last config that passed validation on this worker.
    TeConfig last_good_cfg;
    std::uint32_t last_good_index = 0xffffffffu;
    bool has_last_good = false;
    /// History copies used when chaos corrupts the advisor's input snapshot.
    std::vector<traffic::DemandMatrix> history_scratch;
    std::thread thread;
  };

  void worker_loop(Worker& w);
  void process_snapshot(Worker& w, const Job& job);
  /// Steps the ladder down after a rejected advise: returns the config to
  /// serve and sets `rung` (kLastGood when a donor exists, else kUniform).
  const TeConfig* fallback_config(Worker& w, std::uint32_t index,
                                  FallbackRung& rung);
  void refresh_failures(Worker& w);
  void aggregate_warm(const Worker& w);
  void check_submittable(std::uint32_t index) const;

  const PathSet* ps_;
  const traffic::TrafficTrace* trace_;
  Options opt_;
  std::size_t workers_;
  TeConfig uniform_;
  util::MpmcRing<Job> jobs_;
  util::MpmcRing<SnapshotResult> results_;
  ServingStats stats_;

  std::vector<std::unique_ptr<Worker>> stream_workers_;
  std::atomic<bool> stop_{true};
  bool running_ = false;
  std::uint64_t next_seq_ = 0;  // producer-side submission count
  std::atomic<std::uint64_t> completed_{0};
  std::size_t window_ = 1;
  std::exception_ptr stream_error_;  // guarded by error_mu_
  std::mutex error_mu_;

  // Failure mask, swapped atomically-by-epoch (mask + epoch share the mutex).
  std::shared_ptr<const std::vector<bool>> failure_alive_;
  /// Pairs with zero surviving paths under failure_alive_ (same epoch).
  std::shared_ptr<const std::vector<std::uint32_t>> failure_dead_pairs_;
  std::atomic<std::uint64_t> failure_epoch_{0};
  std::mutex failure_mu_;
};

}  // namespace figret::te
