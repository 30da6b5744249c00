//===- perfbench/perfbench.cpp - The repository benchmark -------------------===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Drives one workload through the library's public API for about
/// --seconds, checks every output against a reference, and prints one JSON
/// line as the last line of stdout: the end-to-end metrics with --trace 0,
/// the per-layer metrics of a traced replay with --trace 1. The seed only
/// chooses the inputs: the train/eval inputs of the pipelines, the traffic
/// window and sampling period of the fleet; the program under test is the
/// same for every seed. WORKLOADS.md explains the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Tracer.h"

#include "pgo/PGODriver.h"
#include "service/ProfileService.h"
#include "sim/Executor.h"
#include "store/ProfileStore.h"
#include "workload/Workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace csspgo;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload definitions.
//===----------------------------------------------------------------------===//

/// Train/eval input sets a pipeline run cycles through, one per
/// repetition. The pipeline's work depends on its training input (seed to
/// seed, one repetition's wall time moved by up to 20% over ten seeds,
/// mostly in inference), so each run takes its median over
/// several inputs; every run times each set at least once, and a 35 s run
/// about twice.
constexpr unsigned PipelineInputSets = 5;
/// PGODriver constructions timed per repetition (setup_s is their median;
/// one construction takes milliseconds, too little to time alone).
constexpr unsigned SetupsPerRep = 5;
/// Traced repetitions per traced run, at least (their counts must agree).
constexpr unsigned MinTracedReps = 2;

/// The fleet: 24 hosts over 3 services, a release deploy every 4 epochs.
/// A repetition is a fresh service that first runs 1 to 4 warm-up epochs
/// (untimed) and is then drained PassesPerRep times, each pass
/// EpochsPerPass epochs long: every timed pass holds exactly one deploy,
/// and every repetition ends on the same fifth release.
///
/// FleetConfig::Seed also chooses the services' programs, and the programs
/// of different seeds differ in size by tens of percent; so, like the HHVM
/// program of the pipelines, they stay fixed (FleetProgramSeed), and the
/// benchmark seed picks the traffic instead: the warm-up length, which
/// shifts the timed window over the per-host request streams, sampler
/// seeds and diurnal loads, and the base sampling period.
constexpr uint64_t FleetProgramSeed = 1;
constexpr unsigned FleetHosts = 24;
constexpr unsigned FleetServices = 3;
constexpr unsigned FleetDriftEvery = 4;
constexpr unsigned EpochsPerPass = 4;
constexpr unsigned PassesPerRep = 4;
/// Eval inputs per service for the build-farm check of the fleet stores.
constexpr unsigned FleetEvalRuns = 6;

struct PipelineSpec {
  PGOVariant Variant;
  bool PostLink;
  /// Sampled profiling runs one repetition makes (host-epochs).
  unsigned ProfilingRuns;
};

const std::map<std::string, PipelineSpec> PipelineWorkloads = {
    {"csspgo_hhvm", {PGOVariant::CSSPGOFull, false, 1}},
    {"autofdo_bolt_hhvm", {PGOVariant::AutoFDO, true, 2}},
};
const char *FleetWorkload = "fleet_ingest";

uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

unsigned nproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

/// Two shards plus the producer and the folder: four threads, or one
/// shard below four CPUs.
unsigned fleetShards() { return nproc() >= 4 ? 2 : 1; }

/// Input set \p Set of the run with seed \p Seed.
ExperimentConfig pipelineConfig(uint64_t Seed, unsigned Set) {
  ExperimentConfig C;
  C.Workload = workloadPreset("HHVM", 1.0);
  C.Parallelism = 1;
  uint64_t Base = mixSeed(Seed) + 2 * Set;
  C.TrainSeed = mixSeed(Base);
  C.EvalSeedBase = mixSeed(Base + 1);
  return C;
}

ServiceConfig fleetConfig(uint64_t Seed) {
  ServiceConfig C;
  C.Fleet.Hosts = FleetHosts;
  C.Fleet.Services = FleetServices;
  C.Fleet.Epochs = EpochsPerPass;
  C.Fleet.Seed = FleetProgramSeed;
  C.Fleet.BaseSamplePeriod = 4001 + 2 * (Seed / FleetDriftEvery % 64);
  C.Shards = fleetShards();
  C.DriftEveryEpochs = FleetDriftEvery;
  return C;
}

//===----------------------------------------------------------------------===//
// Results and checks.
//===----------------------------------------------------------------------===//

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, double>> Metrics;

  /// One checked operation; a failure is reported and counted.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
    }
  }
  void add(const std::string &Name, double V) { Metrics.push_back({Name, V}); }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void printSamples(const char *Name, const std::vector<double> &V) {
  std::printf("samples %s:", Name);
  for (double X : V)
    std::printf(" %.4f", X);
  std::printf("\n");
}

/// Resets the kernel's peak-RSS mark of this process (Linux clear_refs
/// mode 5), so that each repetition's peak can be read on its own.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident memory since the last resetPeakRss(), in MiB.
double peakRssMB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return 0;
}

struct EvalInput {
  uint64_t Seed;
  double Shift;
};

/// Exit values of the reference build of \p Source on \p Inputs: every
/// OptOptions pass and the inliner off, run on the reference interpreter.
std::vector<int64_t> referenceExits(const Module &Source,
                                    const WorkloadConfig &W,
                                    const std::vector<EvalInput> &Inputs,
                                    Outcome &O) {
  BuildConfig BC;
  OptOptions &Opt = BC.Opt;
  Opt.EnableSimplifyCFG = Opt.EnableTailMerge = Opt.EnableIfConvert = false;
  Opt.EnableJumpThreading = Opt.EnableLoopUnroll = false;
  Opt.EnableCodeMotion = Opt.EnableDCE = Opt.EnableConstantFold = false;
  Opt.EnableLayout = Opt.EnableFunctionSplit = false;
  BC.Inline.MaxIterations = 0;
  BuildResult Ref = buildWithPGO(Source, BC, nullptr);
  ExecConfig EC;
  EC.ReferenceMode = true;
  std::vector<int64_t> Exits;
  for (const EvalInput &In : Inputs) {
    std::vector<int64_t> Mem = generateInput(W, In.Seed, In.Shift);
    RunResult R = execute(*Ref.Bin, "main", Mem, EC);
    O.check(R.Completed, "reference run completes: " + R.Error);
    Exits.push_back(R.ExitValue);
  }
  return Exits;
}

/// Checks \p Bin's exit value on every input against the reference.
/// \p Exit0 is the exit value the library already reported for input 0.
void checkShipped(const Binary &Bin, int64_t Exit0, const WorkloadConfig &W,
                  const std::vector<EvalInput> &Inputs,
                  const std::vector<int64_t> &Ref, const std::string &What,
                  Outcome &O) {
  O.check(Exit0 == Ref[0], What + " exit value on eval input 0");
  for (size_t E = 1; E < Inputs.size(); ++E) {
    std::vector<int64_t> Mem = generateInput(W, Inputs[E].Seed, Inputs[E].Shift);
    RunResult R = execute(Bin, "main", Mem, {});
    O.check(R.Completed && R.ExitValue == Ref[E],
            What + " exit value on eval input " + std::to_string(E));
  }
}

double speedupPct(double Plain, double Optimized) {
  return Plain ? 100.0 * (Plain - Optimized) / Plain : 0;
}

uint64_t profileStoreBytes(const ProfileBundle &P) {
  std::vector<EpochInfo> Epochs{
      {0, P.IsCS ? P.CS.totalSamples() : P.Flat.totalSamples(), 1000}};
  return (P.IsCS ? writeStore(P.CS, Epochs)
                 : writeStore(P.Flat, Epochs, {}, P.IsInstr))
      .size();
}

//===----------------------------------------------------------------------===//
// Pipeline workloads.
//===----------------------------------------------------------------------===//

struct PipelineRep {
  std::vector<double> Setup;
  double Wall = 0;
  double PeakRssMB = 0;
  PipelineResult Result;
  uint64_t StoreBytes = 0;
};

class PipelineBench {
public:
  PipelineBench(const PipelineSpec &P, uint64_t Seed, Outcome &O)
      : P(P), O(O) {
    for (unsigned K = 0; K != PipelineInputSets; ++K) {
      InputSet S;
      S.C = pipelineConfig(Seed, K);
      for (unsigned E = 0; E != S.C.EvalRuns; ++E)
        S.Inputs.push_back({S.C.EvalSeedBase + E, S.C.EvalShift});
      S.Ref = referenceExits(*generateProgram(S.C.Workload), S.C.Workload,
                             S.Inputs, O);
      Sets.push_back(std::move(S));
    }
  }

  /// One timed repetition through PGODriver on input set \p K, with every
  /// check.
  PipelineRep rep(unsigned K) {
    const ExperimentConfig &C = Sets[K].C;
    const std::vector<EvalInput> &Inputs = Sets[K].Inputs;
    const std::vector<int64_t> &Ref = Sets[K].Ref;
    PipelineRep R;
    resetPeakRss();
    std::unique_ptr<PGODriver> D;
    for (unsigned I = 0; I != SetupsPerRep; ++I) {
      double T0 = nowSeconds();
      auto Next = std::make_unique<PGODriver>(C);
      R.Setup.push_back(nowSeconds() - T0);
      D = std::move(Next); // Destroys the previous PGODriver untimed.
    }
    const VariantOutcome *Variant = nullptr;
    const Binary *Shipped = nullptr;
    std::optional<VariantOutcome> Run;
    std::optional<PostLinkOutcome> Post;
    double T0 = nowSeconds();
    if (P.PostLink)
      Post = D->runPostLink(P.Variant);
    else
      Run = D->run(P.Variant);
    R.Wall = nowSeconds() - T0;
    R.PeakRssMB = peakRssMB();

    if (Post) {
      Variant = &Post->Base;
      Shipped = Post->Bin.get();
      R.Result = {Post->EvalCyclesMean, 0, Post->CodeSizeBytes,
                  Post->ExitValue};
      checkShipped(*Variant->Build->Bin, Variant->ExitValue, C.Workload,
                   Inputs, Ref, "pre-rewrite binary", O);
    } else {
      Variant = &*Run;
      Shipped = Variant->Build->Bin.get();
      R.Result = {Variant->EvalCyclesMean, 0, Variant->CodeSizeBytes,
                  Variant->ExitValue};
    }
    const VariantOutcome &Base = D->baseline();
    R.Result.BaselineEvalCyclesMean = Base.EvalCyclesMean;
    checkShipped(*Shipped, R.Result.ExitValue, C.Workload, Inputs, Ref,
                 "shipped binary", O);
    checkShipped(*Base.Build->Bin, Base.ExitValue, C.Workload, Inputs, Ref,
                 "plain baseline", O);
    O.check(Variant->ProfGenVerify.ok(),
            "profile verification: " + Variant->ProfGenVerify.str());
    O.check(!Variant->Build->Loader.VerifyViolations,
            "loader-side profile verification");
    R.StoreBytes = profileStoreBytes(Variant->Profile);

    // Determinism: every repetition of a set ships exactly what the set's
    // first repetition did.
    std::optional<PipelineRep> &First = Sets[K].First;
    if (!First)
      First = R;
    else
      O.check(R.Result == First->Result && R.StoreBytes == First->StoreBytes,
              "repetition reproduces the first repetition's exact metrics");
    return R;
  }

  void timed(double Seconds) {
    std::vector<double> Setup, Walls, Rates, Rss;
    double Deadline = nowSeconds() + Seconds;
    while (Walls.size() < PipelineInputSets || nowSeconds() < Deadline) {
      PipelineRep R = rep(Walls.size() % PipelineInputSets);
      Setup.insert(Setup.end(), R.Setup.begin(), R.Setup.end());
      Walls.push_back(R.Wall);
      Rss.push_back(R.PeakRssMB);
      Rates.push_back(P.ProfilingRuns / R.Wall);
    }
    std::printf("timed: %zu pipeline repetitions over %u input sets, %zu "
                "setups, threads=1 shards=1 nproc=%u\n",
                Walls.size(), PipelineInputSets, Setup.size(), nproc());
    printSamples("pipeline_s", Walls);
    // The exact metrics are means over the input sets.
    double Eval = 0, Size = 0, Speedup = 0, Store = 0;
    for (const InputSet &S : Sets) {
      const PipelineResult &X = S.First->Result;
      Eval += X.EvalCyclesMean / PipelineInputSets;
      Size += static_cast<double>(X.CodeSizeBytes) / PipelineInputSets;
      Speedup += speedupPct(X.BaselineEvalCyclesMean, X.EvalCyclesMean) /
                 PipelineInputSets;
      Store += static_cast<double>(S.First->StoreBytes) / PipelineInputSets;
    }
    O.add("setup_s", median(Setup));
    O.add("pipeline_s_p50", median(Walls));
    O.add("host_epochs_per_s", median(Rates));
    O.add("eval_cycles", Eval);
    O.add("code_size_bytes", Size);
    O.add("speedup_pct", Speedup);
    O.add("store_bytes", Store);
    O.add("peak_rss_mb", median(Rss));
  }

  /// Alternates library repetitions with traced replays, all on the first
  /// input set so that every replay's counts must agree; the replays must
  /// reproduce the library's result exactly.
  void traced(double Seconds, std::vector<Tracer> &Traces,
              std::vector<double> &TracedWalls,
              std::vector<double> &UntracedWalls) {
    const ExperimentConfig &C = Sets[0].C;
    double Deadline = nowSeconds() + Seconds;
    while (Traces.size() < MinTracedReps || nowSeconds() < Deadline) {
      PipelineRep R = rep(0);
      UntracedWalls.push_back(median(R.Setup) + R.Wall);
      Traces.emplace_back(true);
      PipelineResult Replayed;
      std::string Error;
      double T0 = nowSeconds();
      bool Ok = replayPipeline(C, P.Variant, P.PostLink, Traces.back(),
                               Replayed, Error);
      TracedWalls.push_back(nowSeconds() - T0);
      O.check(Ok, "traced replay runs: " + Error);
      O.check(Ok && Replayed == R.Result,
              "traced replay reproduces eval cycles, code size and exit "
              "value");
    }
    std::printf("traced: %zu library repetitions, %zu traced replays, "
                "threads=1 shards=1 nproc=%u\n",
                UntracedWalls.size(), Traces.size(), nproc());
  }

private:
  struct InputSet {
    ExperimentConfig C;
    std::vector<EvalInput> Inputs;
    std::vector<int64_t> Ref; ///< Reference exit value per eval input.
    std::optional<PipelineRep> First;
  };

  PipelineSpec P;
  Outcome &O;
  std::vector<InputSet> Sets;
};

//===----------------------------------------------------------------------===//
// Fleet workload.
//===----------------------------------------------------------------------===//

struct FleetRep {
  double Setup = 0;
  double Wall = 0;
  double PeakRssMB = 0;
  std::vector<double> PassRates;
  FleetResult Result;
  FleetSnapshot Snap;
};

class FleetBench {
public:
  FleetBench(uint64_t Seed, Outcome &O)
      : C(fleetConfig(Seed)), Seed(Seed),
        Warmup(1 + Seed % FleetDriftEvery), O(O) {}

  /// One timed repetition: a fresh ProfileService, its warm-up epochs,
  /// then PassesPerRep timed drained passes, with the ingest gate and
  /// store checks.
  FleetRep rep() {
    FleetRep R;
    resetPeakRss();
    double T0 = nowSeconds();
    ProfileService S(C);
    R.Setup = nowSeconds() - T0;
    Status Warm = S.run(Warmup);
    O.check(Warm.ok(), "service warm-up: " + Warm.message());
    for (unsigned P = 0; P != PassesPerRep; ++P) {
      double T1 = nowSeconds();
      Status St = S.run(EpochsPerPass);
      double W = nowSeconds() - T1;
      O.check(St.ok(), "service pass: " + St.message());
      R.Wall += W;
      R.PassRates.push_back(FleetHosts * EpochsPerPass / W);
    }
    R.PeakRssMB = peakRssMB();
    R.Snap = S.snapshot();
    for (unsigned I = 0; I != FleetServices; ++I) {
      const ServiceSnapshot &Svc = R.Snap.Services[I];
      for (uint64_t E = 0; E != Svc.EpochsFolded + Svc.EpochsDropped; ++E)
        O.check(E < Svc.EpochsFolded, Svc.Name + " epoch passes the Full "
                                                 "verify ingest gate");
      O.check(Svc.EpochsFolded == epochs(),
              Svc.Name + " folded every epoch");
      Expected<ProfileStore> Reopened = ProfileStore::open(S.store(I));
      O.check(static_cast<bool>(Reopened),
              Svc.Name + " store reopens: " + Reopened.status().message());
      R.Result.Stores.push_back(S.store(I));
      R.Result.RecoveredSampleRates.push_back(Svc.RecoveredSampleRate);
    }
    if (!First)
      First = R.Result;
    else
      O.check(R.Result == *First, "repetition reproduces the first "
                                  "repetition's store bytes");
    return R;
  }

  void timed(double Seconds) {
    std::vector<double> Setup, Walls, Rates, Rss;
    double Deadline = nowSeconds() + Seconds;
    do {
      FleetRep R = rep();
      Setup.push_back(R.Setup);
      Walls.push_back(R.Wall);
      Rss.push_back(R.PeakRssMB);
      Rates.insert(Rates.end(), R.PassRates.begin(), R.PassRates.end());
    } while (nowSeconds() < Deadline);
    std::printf("timed: %zu service repetitions, %zu drained passes, "
                "threads=%u shards=%u nproc=%u\n",
                Walls.size(), Rates.size(), C.Shards + 2, C.Shards, nproc());
    printSamples("pipeline_s", Walls);
    printSamples("host_epochs_per_s", Rates);

    uint64_t StoreBytes = 0;
    double RecoveredSum = 0;
    for (size_t I = 0; I != First->Stores.size(); ++I) {
      StoreBytes += First->Stores[I].size();
      RecoveredSum += First->RecoveredSampleRates[I];
    }
    double Optimized = 0, Plain = 0, CodeSize = 0;
    buildFarm(Optimized, Plain, CodeSize);

    O.add("setup_s", median(Setup));
    O.add("pipeline_s_p50", median(Walls));
    O.add("host_epochs_per_s", median(Rates));
    O.add("eval_cycles", Optimized);
    O.add("code_size_bytes", CodeSize);
    O.add("speedup_pct", speedupPct(Plain, Optimized));
    O.add("store_bytes", static_cast<double>(StoreBytes));
    O.add("peak_rss_mb", median(Rss));
    std::printf("fleet: recovered_sample_rate %.6f (mean over services)\n",
                RecoveredSum / FleetServices);
  }

  /// One library repetition, then untraced and traced serial replays of
  /// it; both replays must reproduce every store byte.
  void traced(double Seconds, std::vector<Tracer> &Traces,
              std::vector<double> &TracedWalls,
              std::vector<double> &UntracedWalls, FleetSnapshot &Snap,
              double &Recovered) {
    FleetRep R = rep();
    Snap = R.Snap;
    Recovered = 0;
    for (double V : R.Result.RecoveredSampleRates)
      Recovered += V / FleetServices;
    std::vector<unsigned> Passes(PassesPerRep, EpochsPerPass);
    Passes.insert(Passes.begin(), Warmup);
    auto Replay = [&](Tracer &T) {
      FleetResult Replayed;
      std::string Error;
      double T0 = nowSeconds();
      bool Ok = replayFleet(C, Passes, T, Replayed, Error);
      double W = nowSeconds() - T0;
      O.check(Ok, "fleet replay runs: " + Error);
      O.check(Ok && Replayed == R.Result,
              "fleet replay reproduces every store byte");
      return W;
    };
    double Deadline = nowSeconds() + Seconds;
    while (Traces.size() < MinTracedReps || nowSeconds() < Deadline) {
      Tracer Off(false);
      UntracedWalls.push_back(Replay(Off));
      Traces.emplace_back(true);
      TracedWalls.push_back(Replay(Traces.back()));
    }
    std::printf("traced: 1 service repetition (threads=%u shards=%u), %zu "
                "untraced and %zu traced serial replays, nproc=%u\n",
                C.Shards + 2, C.Shards, UntracedWalls.size(), Traces.size(),
                nproc());
  }

private:
  /// The build farm's view of the fleet stores: each service's current
  /// release built with CSSPGO from its store, against a plain build,
  /// with every exit value checked against the reference build.
  void buildFarm(double &Optimized, double &Plain, double &CodeSize) {
    FleetSim Fleet(C.Fleet);
    for (unsigned S = 0; S != FleetServices; ++S) {
      WorkloadConfig W = Fleet.serviceWorkload(S);
      std::unique_ptr<Module> Src = currentRelease(C, S, epochs());
      std::vector<EvalInput> Inputs;
      for (unsigned E = 0; E != FleetEvalRuns; ++E)
        Inputs.push_back({mixSeed(Seed * 131 + S * 17 + E), 0.0});
      std::vector<int64_t> Ref = referenceExits(*Src, W, Inputs, O);

      Expected<ProfileStore> St = ProfileStore::open(First->Stores[S]);
      Expected<ContextProfile> CS =
          St ? St->loadContext() : Expected<ContextProfile>(St.status());
      O.check(static_cast<bool>(CS), "fleet store materializes");
      ProfileBundle Bundle;
      Bundle.Has = static_cast<bool>(CS);
      Bundle.IsCS = true;
      if (CS)
        Bundle.CS = CS.take();
      BuildConfig PGO;
      PGO.Variant = PGOVariant::CSSPGOFull;
      BuildResult Opt = buildWithPGO(*Src, PGO, &Bundle);
      BuildResult Base = buildWithPGO(*Src, BuildConfig(), nullptr);
      CodeSize += static_cast<double>(Opt.Bin->textSize());
      for (unsigned E = 0; E != FleetEvalRuns; ++E) {
        std::vector<int64_t> MemOpt = generateInput(W, Inputs[E].Seed);
        std::vector<int64_t> MemBase = MemOpt;
        RunResult RO = execute(*Opt.Bin, "main", MemOpt, {});
        RunResult RB = execute(*Base.Bin, "main", MemBase, {});
        O.check(RO.Completed && RO.ExitValue == Ref[E],
                W.Name + " fleet-profile build exit value");
        O.check(RB.Completed && RB.ExitValue == Ref[E],
                W.Name + " plain build exit value");
        Optimized += static_cast<double>(RO.Cycles) / FleetEvalRuns;
        Plain += static_cast<double>(RB.Cycles) / FleetEvalRuns;
      }
    }
  }

  unsigned epochs() const { return Warmup + PassesPerRep * EpochsPerPass; }

  ServiceConfig C;
  uint64_t Seed;
  unsigned Warmup;
  Outcome &O;
  std::optional<FleetResult> First;
};

//===----------------------------------------------------------------------===//
// Traced metrics.
//===----------------------------------------------------------------------===//

/// Per-layer metrics in output order. Names ending in ".self_s" report a
/// span's self time, other "_s" names its total; the rest are counts.
const std::vector<std::string> PerLayerMetrics = {
    "workload.gen_s", "workload.input_s", "probe.insert_s", "loader.apply_s",
    "loader.annotated", "loader.topdown_inlines", "loader.stale_matched",
    "inference.self_s", "inference.blocks", "opt.inliner.self_s",
    "opt.inliner.inlined", "opt.constfold.self_s", "opt.constfold.applied",
    "opt.simplifycfg.self_s", "opt.simplifycfg.applied",
    "opt.jumpthread.self_s", "opt.jumpthread.applied",
    "opt.ifconvert.self_s", "opt.ifconvert.applied", "opt.unroll.self_s",
    "opt.unroll.applied", "opt.codemotion.self_s", "opt.codemotion.applied",
    "opt.tailmerge.self_s", "opt.tailmerge.applied", "opt.dce.self_s",
    "opt.dce.applied", "opt.split.self_s", "opt.split.applied",
    "opt.layout.self_s", "opt.layout.applied", "ir.verify_s",
    "ir.insts_after_opt", "codegen.self_s", "codegen.text_bytes",
    "sim.profile_run_s", "sim.eval_s", "sim.instructions", "sim.mips",
    "sim.samples", "profgen.self_s", "profgen.contexts", "profile.trim_s",
    "preinline.self_s", "verify.self_s", "verify.violations",
    "postlink.self_s", "postlink.mapped_rate", "postlink.rewrite_kept",
    "service.release_build_s", "service.reduce_s", "store.ingest_s",
    "matcher.probe_s", "matcher.recovered_sample_rate",
    "service.queue_high_water", "service.max_epoch_lag",
    "service.epochs_dropped", "trace.coverage", "trace.overhead_s",
    "trace.overhead_share", "load.threads", "load.shards"};

bool endsWith(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

/// Turns the traced repetitions into the per-layer metrics. Times are
/// means per traced repetition; counts come from the first one, and every
/// other repetition must have counted exactly the same.
void tracedMetrics(const std::vector<Tracer> &Traces,
                   const std::vector<double> &TracedWalls,
                   const std::vector<double> &UntracedWalls,
                   std::map<std::string, double> Extra, Outcome &O) {
  std::map<std::string, double> Times;
  std::vector<double> Coverage;
  for (size_t I = 0; I != Traces.size(); ++I) {
    for (const auto &[Name, L] : Traces[I].layers())
      Times[Name] +=
          (endsWith(Name, ".self_s") ? L.Self : L.Total) / Traces.size();
    Coverage.push_back(Traces[I].attributedSeconds() / TracedWalls[I]);
    O.check(Traces[I].counts() == Traces[0].counts(),
            "traced repetition reproduces every layer count");
  }
  const std::map<std::string, double> &Counts = Traces[0].counts();

  double Untraced = median(UntracedWalls), Traced = median(TracedWalls);
  Extra["trace.coverage"] = median(Coverage);
  Extra["trace.overhead_s"] = Traced - Untraced;
  Extra["trace.overhead_share"] = Untraced ? (Traced - Untraced) / Untraced : 0;
  auto Lookup = [&](const std::map<std::string, double> &M,
                    const std::string &K) {
    auto It = M.find(K);
    return It == M.end() ? 0.0 : It->second;
  };
  double SimSeconds =
      Lookup(Times, "sim.profile_run_s") + Lookup(Times, "sim.eval_s");
  Extra["sim.mips"] =
      SimSeconds ? Lookup(Counts, "sim.instructions") / SimSeconds / 1e6 : 0;

  for (const std::string &Name : PerLayerMetrics) {
    if (Extra.count(Name))
      O.add(Name, Extra[Name]);
    else if (endsWith(Name, "_s"))
      O.add(Name, Lookup(Times, Name));
    else
      O.add(Name, Lookup(Counts, Name));
  }

  std::printf("traced: untraced p50 %.4f s, traced p50 %.4f s, spans "
              "attribute %.2f%% of traced wall\n",
              Untraced, Traced, 100.0 * median(Coverage));
  std::printf("%-26s %12s %8s\n", "layer", "seconds", "calls");
  std::map<std::string, Tracer::Layer> Layers = Traces[0].layers();
  for (const auto &[Name, L] : Layers)
    std::printf("%-26s %12.6f %8llu\n", Name.c_str(),
                endsWith(Name, ".self_s") ? L.Self : L.Total,
                static_cast<unsigned long long>(L.Calls));
}

//===----------------------------------------------------------------------===//
// Entry point.
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return false;
    std::string Flag = Argv[I];
    char *End = nullptr;
    const char *V = Argv[I + 1];
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (!(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      A.Trace = V[0] == '1';
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return HaveWorkload;
}

void printResult(const Outcome &O) {
  bool Correct = O.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I != O.Metrics.size(); ++I)
    std::printf("%s\"%s\": %.17g", I ? ", " : "", O.Metrics[I].first.c_str(),
                O.Metrics[I].second);
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Outcome O;
  std::vector<Tracer> Traces;
  std::vector<double> TracedWalls, UntracedWalls;
  std::map<std::string, double> Extra;
  auto Pipeline = PipelineWorkloads.find(A.Workload);
  if (Pipeline != PipelineWorkloads.end()) {
    PipelineBench B(Pipeline->second, A.Seed, O);
    if (!A.Trace) {
      B.timed(A.Seconds);
    } else {
      B.traced(A.Seconds, Traces, TracedWalls, UntracedWalls);
      Extra["load.threads"] = 1;
      Extra["load.shards"] = 1;
    }
  } else if (A.Workload == FleetWorkload) {
    FleetBench B(A.Seed, O);
    if (!A.Trace) {
      B.timed(A.Seconds);
    } else {
      FleetSnapshot Snap;
      double Recovered = 0;
      B.traced(A.Seconds, Traces, TracedWalls, UntracedWalls, Snap,
               Recovered);
      uint64_t Dropped = 0;
      for (const ServiceSnapshot &S : Snap.Services)
        Dropped += S.EpochsDropped;
      Extra["service.queue_high_water"] = Snap.QueueHighWater;
      Extra["service.max_epoch_lag"] = Snap.MaxEpochLag;
      Extra["service.epochs_dropped"] = static_cast<double>(Dropped);
      Extra["matcher.recovered_sample_rate"] = Recovered;
      Extra["load.threads"] = Snap.Shards + 2;
      Extra["load.shards"] = Snap.Shards;
    }
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (A.Trace) {
    tracedMetrics(Traces, TracedWalls, UntracedWalls, Extra, O);
  } else {
    O.add("success_rate", O.Attempted ? 1.0 - static_cast<double>(O.Failed) /
                                                  O.Attempted
                                      : 0);
  }
  printResult(O);
  return O.Failed ? 1 : 0;
}
