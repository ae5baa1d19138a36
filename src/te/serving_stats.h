// Observability for the streaming TE serving loop: per-stage latency
// histograms, SLO-violation and queue-overflow counters, warm-LP chain
// accounting. All members are lock-free — workers record with relaxed
// atomics and a monitoring reader never blocks the hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "lp/problem.h"
#include "lp/warm_start.h"
#include "util/latency.h"

namespace figret::te {

/// The serving loop's graceful-degradation ladder. Every served snapshot
/// comes from exactly one rung:
///  * kFresh — this epoch's advise passed output validation;
///  * kLastGood — the advise was rejected (non-finite / negative weights),
///    the most recent known-good config is re-served and renormalized over
///    the surviving paths on install;
///  * kUniform — no known-good config either: uniform ECMP over surviving
///    paths, the unconditional floor that needs no model and no history.
enum class FallbackRung : std::uint8_t {
  kFresh = 0,
  kLastGood = 1,
  kUniform = 2,
};
inline constexpr std::size_t kFallbackRungCount = 3;
const char* to_string(FallbackRung rung) noexcept;

struct ServingStats {
  // --- per-stage latency (seconds) -----------------------------------------
  util::LatencyHistogram queue;    // submit -> worker dequeue
  util::LatencyHistogram infer;    // NN/scheme advise
  util::LatencyHistogram lp;       // omniscient warm-LP resolve (accounting)
  util::LatencyHistogram install;  // WCMP quantization + publish of ratios
  util::LatencyHistogram serve;    // submit -> installed (the SLO quantity)
  util::LatencyHistogram e2e;      // submit -> result published (everything)

  // --- counters ------------------------------------------------------------
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> slo_violations{0};
  /// Submissions rejected because the snapshot ring was full (try_submit).
  std::atomic<std::uint64_t> overflows{0};
  /// Spins because the completion ring was full (drainer falling behind).
  std::atomic<std::uint64_t> result_backpressure{0};
  /// Omniscient resolves that did not reach optimality (streaming mode
  /// degrades gracefully: the snapshot still serves, normalized MLU is 0).
  std::atomic<std::uint64_t> oracle_failures{0};
  /// Aggregated per-worker warm-start chain outcomes (filled on finish()).
  std::atomic<std::uint64_t> warm_hits{0};
  std::atomic<std::uint64_t> warm_misses{0};
  /// warm_misses broken down by lp::WarmFallback reason (same indexing), so
  /// a chain that silently degrades to cold solves is diagnosable from the
  /// serving report alone.
  std::array<std::atomic<std::uint64_t>, lp::kWarmFallbackCount>
      warm_fallbacks{};
  /// Times a failure mask was installed/cleared mid-stream.
  std::atomic<std::uint64_t> failure_epochs{0};

  // --- graceful degradation -------------------------------------------------
  /// Served snapshots per ladder rung (kFresh + kLastGood + kUniform ==
  /// served when validation is on).
  std::array<std::atomic<std::uint64_t>, kFallbackRungCount> fallback_rungs{};
  /// Advised configs rejected by output validation (NaN/Inf/negative
  /// weights) before install — each one stepped the ladder down.
  std::atomic<std::uint64_t> invalid_outputs{0};
  /// Pair-snapshots whose demand was dropped because every candidate path
  /// was dead (summed over snapshots; see SnapshotResult::dropped_demand for
  /// the per-snapshot volume).
  std::atomic<std::uint64_t> dropped_pair_snapshots{0};
  /// Oracle resolve attempts beyond the first (the backoff+retry loop).
  std::atomic<std::uint64_t> oracle_retries{0};
  /// Snapshots whose oracle recovered on a retry after a failed attempt.
  std::atomic<std::uint64_t> oracle_retry_successes{0};
  /// Failed oracle attempts by lp::Status reason (kOptimal slot stays 0).
  std::array<std::atomic<std::uint64_t>, lp::kStatusCount>
      oracle_attempt_failures{};
  /// Chaos-injected worker stalls executed (te/chaos.h).
  std::atomic<std::uint64_t> chaos_stalls{0};

  ServingStats() = default;
  ServingStats(const ServingStats&) = delete;
  ServingStats& operator=(const ServingStats&) = delete;

  void reset() noexcept;

  /// Plain-value copy for reporting (racy while workers run; exact after
  /// finish()).
  struct Snapshot {
    std::uint64_t served = 0;
    std::uint64_t slo_violations = 0;
    std::uint64_t overflows = 0;
    std::uint64_t result_backpressure = 0;
    std::uint64_t oracle_failures = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t warm_misses = 0;
    std::array<std::uint64_t, lp::kWarmFallbackCount> warm_fallbacks{};
    std::uint64_t failure_epochs = 0;
    std::array<std::uint64_t, kFallbackRungCount> fallback_rungs{};
    std::uint64_t invalid_outputs = 0;
    std::uint64_t dropped_pair_snapshots = 0;
    std::uint64_t oracle_retries = 0;
    std::uint64_t oracle_retry_successes = 0;
    std::array<std::uint64_t, lp::kStatusCount> oracle_attempt_failures{};
    std::uint64_t chaos_stalls = 0;
    /// Served snapshots that left rung 0 (kLastGood + kUniform).
    std::uint64_t degraded() const noexcept {
      return fallback_rungs[1] + fallback_rungs[2];
    }
    double serve_p50 = 0.0, serve_p99 = 0.0, serve_p999 = 0.0;
    double e2e_p50 = 0.0, e2e_p99 = 0.0, e2e_p999 = 0.0;
    double infer_p50 = 0.0, infer_p99 = 0.0;
    double lp_p50 = 0.0, lp_p99 = 0.0;
    double install_p50 = 0.0, install_p99 = 0.0;
    double queue_p50 = 0.0, queue_p99 = 0.0;
    double serve_max = 0.0, e2e_max = 0.0;
  };
  Snapshot snapshot() const;

  /// Human-readable stage/percentile table (used by `figret_cli serve`).
  void print(std::ostream& os) const;
};

}  // namespace figret::te
