// The streaming part of every workload: te::ServingLoop with two workers and
// the calling thread as the single producer, driven through an open-loop
// light phase, an open-loop heavy phase and a closed-loop peak phase; then
// the single-threaded replay through the public layer functions that every
// streamed result is checked against bit for bit.
#pragma once

#include "optimum.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct StreamPlan {
  double light_rate = 0.0;  // snapshots/s, open loop
  double heavy_rate = 0.0;  // snapshots/s, open loop
  std::size_t peak_inflight = 4;  // closed loop: snapshots in flight
  int rounds = 1;  // light, heavy and peak alternate this many times
  double light_seconds = 0.0;  // per round
  double heavy_seconds = 0.0;  // per round
  double peak_seconds = 0.0;   // per round
};

/// Runs the three phases, the replay check and the optimum of every stream
/// index (its LP solves go into `led`). Adds the stream end-to-end metrics
/// (light.*, heavy.*, peak_tput_sps, mlu_mean, served_norm_mlu_mean), the
/// replay timing as sweep_s / sweep_cpu_s when `replay_is_sweep`, and — with
/// tracing on — the serving_loop.*, nn.*, wcmp.*, failover.*, mlu.*, gen.*
/// and trace.* per-layer metrics.
void run_stream(Instance& in, const StreamPlan& plan, bool replay_is_sweep,
                Tracer& tracer, LpLedger& led, Report& report);

}  // namespace perfbench
