// The Fig 5 sweep of the geant-sweep workload: te::Harness with two threads
// computes the omniscient LP normalizer, scores the trained FIGRET model
// over every test snapshot, then repeats both around two safe link failures.
#pragma once

#include "te/harness.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Harness options the sweep runs with (and set-up uses for the split).
te::Harness::Options sweep_options(std::size_t history);

/// Runs the sweep and its output checks. Adds sweep_s, sweep_cpu_s,
/// norm_mlu_mean and fail_norm_mlu_mean; with tracing on, replays every
/// normalizer LP serially through te::solve_mlu_lp with the Harness' warm
/// chunking and adds the lp.* and harness.* per-layer metrics.
void run_harness_sweep(Instance& in, Tracer& tracer, Report& report);

}  // namespace perfbench
