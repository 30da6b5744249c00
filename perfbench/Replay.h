//===- perfbench/Replay.h - Layer-by-layer pipeline replays -----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays of PGODriver::run / runPostLink and of ProfileService from the
/// public entry points of each layer, with a span around every call. The
/// replays make the same calls in the same order as the library does, so
/// their results must equal the library's bit for bit; the benchmark
/// checks that on every traced run, which is what makes the per-layer
/// times trustworthy.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PERFBENCH_REPLAY_H
#define CSSPGO_PERFBENCH_REPLAY_H

#include "Tracer.h"

#include "pgo/PGODriver.h"
#include "service/ProfileService.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What a pipeline repetition shipped; compared exactly between the
/// library run and its replay.
struct PipelineResult {
  double EvalCyclesMean = 0;
  double BaselineEvalCyclesMean = 0;
  uint64_t CodeSizeBytes = 0;
  int64_t ExitValue = 0;

  bool operator==(const PipelineResult &) const = default;
};

/// Replays `PGODriver(C).run(V)`, or `runPostLink(V)` when \p PostLink,
/// including PGODriver's constructor (program generation). Supports the
/// None, AutoFDO and CSSPGOFull variants with one profiling iteration;
/// returns false with \p Error set otherwise or when a layer fails.
bool replayPipeline(const csspgo::ExperimentConfig &C, csspgo::PGOVariant V,
                    bool PostLink, Tracer &T, PipelineResult &Out,
                    std::string &Error);

/// Store bytes and last freshness-probe recovery rate of every service.
struct FleetResult {
  std::vector<std::string> Stores;
  std::vector<double> RecoveredSampleRates;

  bool operator==(const FleetResult &) const = default;
};

/// Serial replay of `ProfileService(C)` followed by one `run(N)` per
/// entry of \p Passes. Returns false with \p Error set on a fatal error.
bool replayFleet(const csspgo::ServiceConfig &C,
                 const std::vector<unsigned> &Passes, Tracer &T,
                 FleetResult &Out, std::string &Error);

/// The current release of service \p S after \p Epochs epochs: the
/// service's program with every release drift the service applied.
std::unique_ptr<csspgo::Module> currentRelease(const csspgo::ServiceConfig &C,
                                               unsigned S, unsigned Epochs);

} // namespace perfbench

#endif // CSSPGO_PERFBENCH_REPLAY_H
