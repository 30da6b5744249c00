//===- perfbench/Replay.cpp - Layer-by-layer pipeline replays ---------------===//
//
// Each function here mirrors one library routine call for call:
//   Layers::build           pgo/BuildPipeline.cpp  buildWithPGO
//   Layers::midLevel/late   opt/PassManager.cpp    runMid/LatePipeline
//   PipelineReplay          pgo/PGODriver.cpp      run, collectProfile,
//                                                  stackPostLink
//   ProfilePipeline::generate (CS/AutoFDO) is inlined into collect()
//   FleetReplay             service/ProfileService.cpp
// A change to one of those routines must be mirrored here; the identity
// checks in perfbench.cpp fail until it is.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "ir/Verifier.h"
#include "pgo/ProfilePipeline.h"
#include "preinline/PreInliner.h"
#include "probe/ProbeInserter.h"
#include "profgen/BinarySizeExtractor.h"
#include "profile/ProfileArena.h"
#include "profile/Trimmer.h"
#include "store/ProfileStore.h"
#include "workload/Workloads.h"

#include <algorithm>
#include <optional>

using namespace csspgo;

namespace perfbench {

namespace {

struct ReplayError {
  std::string Message;
};

[[noreturn]] void fail(std::string Message) {
  throw ReplayError{std::move(Message)};
}

/// The layers' public entry points, each call wrapped in a span and its
/// work counted.
class Layers {
public:
  explicit Layers(Tracer &T) : T(T) {}

  std::vector<int64_t> input(const WorkloadConfig &W, uint64_t Seed,
                             double Shift = 0.0) {
    Tracer::Scope S(T, "workload.input_s");
    return generateInput(W, Seed, Shift);
  }

  RunResult execute(const Binary &Bin, std::vector<int64_t> &Mem,
                    const ExecConfig &EC) {
    RunResult R;
    {
      Tracer::Scope S(T, EC.Sampler.Enabled ? "sim.profile_run_s"
                                            : "sim.eval_s");
      R = csspgo::execute(Bin, "main", Mem, EC);
    }
    T.count("sim.instructions", R.Instructions);
    T.count("sim.samples", R.Samples.size());
    return R;
  }

  void verify(const Module &M, const char *When) {
    Tracer::Scope S(T, "ir.verify_s");
    verifyOrDie(M, When);
  }

  void infer(Module &M) {
    for (const auto &F : M.Functions)
      if (std::any_of(F->Blocks.begin(), F->Blocks.end(),
                      [](const auto &BB) { return BB->HasCount; }))
        T.count("inference.blocks", F->Blocks.size());
    Tracer::Scope S(T, "inference.self_s");
    inferModuleProfile(M);
  }

  VerifyReport verifyProfile(const ProfileBundle &B, const ProbeTable *P) {
    VerifierOptions VO;
    VO.Probes = P;
    VerifyReport R;
    {
      Tracer::Scope S(T, "verify.self_s");
      R = B.IsCS ? verifyContextProfile(B.CS, VO)
                 : verifyFlatProfile(B.Flat, VO);
    }
    T.count("verify.violations", R.Violations);
    return R;
  }

  /// buildWithPGO for the variants without counters or trace timing.
  BuildResult build(const Module &Source, const BuildConfig &Config,
                    const ProfileBundle *Profile) {
    if (Config.Variant != PGOVariant::None &&
        Config.Variant != PGOVariant::AutoFDO &&
        Config.Variant != PGOVariant::CSSPGOFull)
      fail(std::string("replay does not cover variant ") +
           variantName(Config.Variant));
    bool HasProfile = Profile && Profile->Has;
    if (HasProfile && Profile->Timing)
      fail("replay does not cover trace timing");

    BuildResult Result;
    {
      Tracer::Scope S(T, "ir.clone_s");
      Result.IR = Source.clone();
    }
    Module &M = *Result.IR;
    if (Config.Variant == PGOVariant::CSSPGOFull) {
      Tracer::Scope S(T, "probe.insert_s");
      insertProbes(M, AnchorKind::PseudoProbe);
      Result.ProbeDescs = ProbeTable::fromModule(M);
    }

    if (HasProfile) {
      {
        Tracer::Scope S(T, "loader.apply_s");
        ProfilePipeline Pipeline(PipelineOptions()
                                     .transport(Profile->Transport)
                                     .loader(Config.Loader));
        Expected<LoaderStats> Stats = Pipeline.apply(M, *Profile);
        if (!Stats)
          fail("profile transport failed: " + Stats.status().message());
        Result.Loader = Stats.take();
      }
      T.count("loader.annotated", Result.Loader.FunctionsAnnotated);
      T.count("loader.topdown_inlines", Result.Loader.InlinedCallsites);
      T.count("loader.stale_matched", Result.Loader.StaleMatched);
      if (Config.EnableInference)
        infer(M);
    }
    verify(M, "after profile loading");

    InlineParams Inline = Config.Inline;
    if (HasProfile && Result.Loader.HotThresholdUsed)
      Inline.HotCallsiteCount = Result.Loader.HotThresholdUsed;
    {
      Tracer::Scope S(T, "opt.inliner.self_s");
      Result.Inliner = runBottomUpInliner(M, Inline);
    }
    T.count("opt.inliner.inlined", Result.Inliner.NumInlined);
    verify(M, "after bottom-up inlining");
    if (HasProfile && Config.EnableInference)
      infer(M);

    midLevel(M, Config.Opt);
    late(M, Config.Opt);
    for (const auto &F : M.Functions)
      T.count("ir.insts_after_opt", F->instructionCount());

    {
      Tracer::Scope S(T, "codegen.self_s");
      Result.Bin = compileToBinary(M);
    }
    T.count("codegen.text_bytes", Result.Bin->textSize());
    return Result;
  }

private:
  using PassFn = unsigned (*)(Function &, const OptOptions &);

  unsigned pass(const char *Span, const char *Count, PassFn Run,
                Function &F, const OptOptions &Opts) {
    unsigned N;
    {
      Tracer::Scope S(T, Span);
      N = Run(F, Opts);
    }
    T.count(Count, N);
    return N;
  }

  // runMidLevelPipeline, pass for pass.
  void midLevel(Module &M, const OptOptions &Opts) {
    for (auto &F : M.Functions) {
      for (int Round = 0; Round != 3; ++Round) {
        unsigned Changed = 0;
        if (Opts.EnableConstantFold)
          Changed += pass("opt.constfold.self_s", "opt.constfold.applied",
                          runConstantFold, *F, Opts);
        if (Opts.EnableSimplifyCFG)
          Changed += pass("opt.simplifycfg.self_s",
                          "opt.simplifycfg.applied", runSimplifyCFG, *F,
                          Opts);
        if (Opts.EnableJumpThreading)
          Changed += pass("opt.jumpthread.self_s", "opt.jumpthread.applied",
                          runJumpThreading, *F, Opts);
        if (Opts.EnableIfConvert)
          Changed += pass("opt.ifconvert.self_s", "opt.ifconvert.applied",
                          runIfConvert, *F, Opts);
        if (Round == 0 && Opts.EnableLoopUnroll)
          Changed += pass("opt.unroll.self_s", "opt.unroll.applied",
                          runLoopUnroll, *F, Opts);
        if (Opts.EnableCodeMotion)
          Changed += pass("opt.codemotion.self_s", "opt.codemotion.applied",
                          runCodeMotion, *F, Opts);
        if (Opts.EnableTailMerge)
          Changed += pass("opt.tailmerge.self_s", "opt.tailmerge.applied",
                          runTailMerge, *F, Opts);
        if (Opts.EnableDCE)
          Changed += pass("opt.dce.self_s", "opt.dce.applied", runDCE, *F,
                          Opts);
        if (Opts.EnableSimplifyCFG)
          Changed += pass("opt.simplifycfg.self_s",
                          "opt.simplifycfg.applied", runSimplifyCFG, *F,
                          Opts);
        if (!Changed)
          break;
      }
    }
    verify(M, "after mid-level pipeline");
  }

  // runLatePipeline, pass for pass.
  void late(Module &M, const OptOptions &Opts) {
    for (auto &F : M.Functions) {
      if (Opts.EnableFunctionSplit)
        pass("opt.split.self_s", "opt.split.applied", runFunctionSplit, *F,
             Opts);
      if (Opts.EnableLayout)
        pass("opt.layout.self_s", "opt.layout.applied", runExtTSPLayout, *F,
             Opts);
    }
    verify(M, "after late pipeline");
  }

  Tracer &T;
};

/// PGODriver, replayed.
class PipelineReplay {
public:
  PipelineReplay(const ExperimentConfig &C, Tracer &T) : C(C), T(T), L(T) {
    if (C.ProfileIterations != 1)
      fail("replay covers one profiling iteration");
    Tracer::Scope S(T, "workload.gen_s");
    Source = generateProgram(C.Workload);
  }

  struct Variant {
    double EvalCyclesMean = 0;
    uint64_t CodeSizeBytes = 0;
    int64_t ExitValue = 0;
    std::unique_ptr<BuildResult> Build;
  };

  /// PGODriver::run.
  Variant run(PGOVariant V) {
    Variant Out;
    BuildResult ProfBuild = L.build(*Source, buildConfig(V), nullptr);
    ProfileBundle Profile;
    if (V != PGOVariant::None) {
      Profile = collect(V, ProfBuild);
      baseline();
    } else {
      // The plain binary's training run, PGODriver's overhead reference.
      std::vector<int64_t> TrainMem = L.input(C.Workload, C.TrainSeed);
      ExecConfig Plain;
      Plain.Costs = C.Costs;
      L.execute(*ProfBuild.Bin, TrainMem, Plain);
    }

    Out.Build = std::make_unique<BuildResult>(L.build(
        *Source, buildConfig(V), Profile.Has ? &Profile : nullptr));
    if (C.VerifyProfiles && C.VerifyStrict && Profile.Has &&
        Out.Build->Loader.VerifyViolations)
      fail("loader-side profile verification failed: " +
           Out.Build->Loader.VerifyFirst);
    Out.CodeSizeBytes = Out.Build->Bin->textSize();

    ExecConfig Eval;
    Eval.Costs = C.Costs;
    evaluate(*Out.Build->Bin, Eval, Out.EvalCyclesMean, Out.ExitValue);
    return Out;
  }

  /// PGODriver::runPostLink with default post-link options.
  PipelineResult runPostLink(PGOVariant V) {
    Variant Base = run(V);
    const Binary &OptBin = *Base.Build->Bin;
    if (!OptBin.Probes.empty())
      fail("replay does not cover probe-backed post-link profiles");

    std::vector<int64_t> TrainMem = L.input(C.Workload, C.TrainSeed, 0.0);
    ExecConfig Exec;
    Exec.Sampler.Enabled = true;
    Exec.Sampler.PeriodCycles = C.SamplePeriodCycles;
    Exec.Sampler.Precise = C.PreciseSampling;
    Exec.Sampler.Seed = C.TrainSeed;
    RunResult Train = L.execute(OptBin, TrainMem, Exec);

    std::unique_ptr<Binary> Bin;
    {
      Tracer::Scope S(T, "postlink.self_s");
      ProfilePipeline Pipeline(
          PipelineOptions().postLinkOptions(postlink::PostLinkOptions()));
      Expected<postlink::PostLinkResult> Rewritten = Pipeline.postlink(
          OptBin, Train.Samples, nullptr, Base.Build->IR.get());
      if (!Rewritten)
        fail(Rewritten.status().message());
      T.count("postlink.mapped_rate", Rewritten->Stats.Map.MappedSampleRate);
      Bin = std::move(Rewritten->Bin);
    }

    // Guarded rollout on the training input.
    std::vector<int64_t> MemVariant = L.input(C.Workload, C.TrainSeed);
    RunResult VariantRun = L.execute(OptBin, MemVariant, {});
    std::vector<int64_t> MemRewrite = L.input(C.Workload, C.TrainSeed);
    RunResult RewriteRun = L.execute(*Bin, MemRewrite, {});
    bool Kept = RewriteRun.ExitValue == VariantRun.ExitValue &&
                RewriteRun.Cycles < VariantRun.Cycles;
    T.count("postlink.rewrite_kept", Kept);
    if (!Kept)
      Bin = std::make_unique<Binary>(OptBin);

    PipelineResult Out;
    Out.CodeSizeBytes = Bin->textSize();
    evaluate(*Bin, {}, Out.EvalCyclesMean, Out.ExitValue);
    Out.BaselineEvalCyclesMean = baseline().EvalCyclesMean;
    return Out;
  }

  const Variant &baseline() {
    if (!Baseline)
      Baseline = std::make_unique<Variant>(run(PGOVariant::None));
    return *Baseline;
  }

private:
  // PGODriver::makeBuildConfig.
  BuildConfig buildConfig(PGOVariant V) const {
    BuildConfig B;
    B.Variant = V;
    B.Opt = C.Opt;
    B.Inline = C.Inline;
    B.Loader = C.Loader;
    B.EnableInference = C.EnableInference;
    if (C.VerifyProfiles)
      B.Loader.Verify = VerifyLevel::Full;
    if (V == PGOVariant::CSSPGOFull && C.RunPreInliner)
      B.Loader.InlineHotContexts = false;
    return B;
  }

  // PGODriver::collectProfile plus ProfilePipeline::generate, for the
  // sampled AutoFDO and CS kinds.
  ProfileBundle collect(PGOVariant V, const BuildResult &ProfBuild) {
    std::vector<int64_t> TrainMem = L.input(C.Workload, C.TrainSeed);
    ExecConfig Exec;
    Exec.Costs = C.Costs;
    Exec.Sampler.Enabled = true;
    Exec.Sampler.PeriodCycles = C.SamplePeriodCycles;
    Exec.Sampler.Precise = C.PreciseSampling;
    Exec.Sampler.Seed = C.TrainSeed;
    Exec.Trace = C.Trace;
    Exec.Trace.Enabled = false;
    RunResult Train = L.execute(*ProfBuild.Bin, TrainMem, Exec);

    bool CS = V == PGOVariant::CSSPGOFull;
    const ProbeTable *Probes = CS ? &ProfBuild.ProbeDescs : nullptr;
    ProfGenOptions GenOpts;
    GenOpts.Kind = CS ? ProfGenKind::CS : ProfGenKind::AutoFDO;
    GenOpts.InferMissingFrames = C.InferMissingFrames;
    GenOpts.Parallelism = C.Parallelism;
    GenOpts.Verify = VerifyLevel::Off; // Verified below, in its own span.

    ProfileBundle Bundle;
    Bundle.Has = true;
    Bundle.Transport = C.Transport;
    {
      Tracer::Scope S(T, "profgen.self_s");
      ProfileGenerator Gen(*ProfBuild.Bin, Probes, GenOpts);
      ProfGenResult R = Gen.generate(Train.Samples);
      Bundle.IsCS = R.IsCS;
      Bundle.CS = std::move(R.CS);
      Bundle.Flat = std::move(R.Flat);
    }
    T.count("profgen.contexts", Bundle.IsCS ? Bundle.CS.numProfiles()
                                            : Bundle.Flat.Functions.size());
    if (!C.VerifyProfiles)
      fail("replay expects profile verification on");
    checkVerify(L.verifyProfile(Bundle, Probes));

    if (Bundle.IsCS) {
      bool Transformed = false;
      if (C.TrimColdContexts) {
        Tracer::Scope S(T, "profile.trim_s");
        uint64_t Threshold = Bundle.CS.totalSamples() /
                             std::max<uint64_t>(1, C.TrimThresholdDivisor);
        trimColdContexts(Bundle.CS, std::max<uint64_t>(Threshold, 2));
        Transformed = true;
      }
      if (C.RunPreInliner) {
        Tracer::Scope S(T, "preinline.self_s");
        FuncSizeTable Sizes = extractFuncSizes(*ProfBuild.Bin);
        runPreInliner(Bundle.CS, Sizes);
        Transformed = true;
      }
      if (Transformed)
        checkVerify(L.verifyProfile(Bundle, Probes));
    }
    return Bundle;
  }

  void checkVerify(const VerifyReport &R) const {
    if (!R.ok() && C.VerifyStrict)
      fail("profile verification failed: " + R.str());
  }

  void evaluate(const Binary &Bin, const ExecConfig &Eval, double &Mean,
                int64_t &Exit) {
    long double Sum = 0;
    for (unsigned E = 0; E != C.EvalRuns; ++E) {
      std::vector<int64_t> Mem =
          L.input(C.Workload, C.EvalSeedBase + E, C.EvalShift);
      RunResult R = L.execute(Bin, Mem, Eval);
      Sum += R.Cycles;
      if (E == 0)
        Exit = R.ExitValue;
    }
    Mean = C.EvalRuns ? static_cast<double>(Sum / C.EvalRuns) : 0;
  }

  const ExperimentConfig &C;
  Tracer &T;
  Layers L;
  std::unique_ptr<Module> Source;
  std::unique_ptr<Variant> Baseline;
};

/// Release drift kind of the service's next deploy (ProfileService::run).
CFGDriftKind driftKind(unsigned Releases) {
  return Releases % 2 ? CFGDriftKind::GuardInsert : CFGDriftKind::BlockSplit;
}

bool deploysAt(const ServiceConfig &C, unsigned E) {
  return C.DriftEveryEpochs && E && E % C.DriftEveryEpochs == 0;
}

/// ProfileService, replayed serially: the producer, the shard workers and
/// the folder run one after another on this thread.
class FleetReplay {
public:
  FleetReplay(const ServiceConfig &Config, Tracer &T)
      : C(Config), Fleet(C.Fleet), T(T), L(T) {
    C.Fleet = Fleet.config();
    C.HotTopN = std::max(1u, C.HotTopN);
    for (unsigned S = 0; S != C.Fleet.Services; ++S) {
      Service Svc;
      Svc.Workload = Fleet.serviceWorkload(S);
      {
        Tracer::Scope Span(T, "workload.gen_s");
        Svc.Current = generateProgram(Svc.Workload);
      }
      Svc.Rel = release(*Svc.Current);
      Svc.Pipeline = ProfilePipeline(PipelineOptions()
                                         .kind(ProfGenKind::CS)
                                         .verify(VerifyLevel::Full)
                                         .strict(true)
                                         .decay(C.DecayPermille)
                                         .compactNames(C.CompactNames));
      Services.push_back(std::move(Svc));
    }
  }

  void run(unsigned NumEpochs) {
    for (unsigned E = NextEpoch; E != NextEpoch + NumEpochs; ++E) {
      if (deploysAt(C, E)) {
        for (Service &Svc : Services) {
          {
            Tracer::Scope S(T, "workload.drift_s");
            applyCFGDrift(*Svc.Current, driftKind(Svc.Releases), E);
          }
          Svc.Rel = release(*Svc.Current);
          ++Svc.Releases;
        }
      }
      std::vector<HostTask> Tasks = Fleet.epochTasks(E);
      std::vector<std::optional<ContextProfile>> Results(Tasks.size());
      for (const HostTask &Task : Tasks)
        Results[Task.Host] = profileHost(Services[Task.Service], Task);
      fold(E, Results);
    }
    NextEpoch += NumEpochs;
  }

  FleetResult result() const {
    FleetResult R;
    for (const Service &Svc : Services) {
      R.Stores.push_back(Svc.StoreBytes);
      R.RecoveredSampleRates.push_back(Svc.RecoveredSampleRate);
    }
    return R;
  }

private:
  struct Release {
    std::shared_ptr<const Module> Source;
    std::unique_ptr<Binary> Bin;
    ProbeTable Probes;
  };
  struct Service {
    WorkloadConfig Workload;
    std::unique_ptr<Module> Current;
    std::shared_ptr<Release> Rel;
    unsigned Releases = 1;
    ProfilePipeline Pipeline;
    std::string StoreBytes;
    std::vector<std::string> HotSet;
    double RecoveredSampleRate = 0;
  };

  // buildRelease in ProfileService.cpp.
  std::shared_ptr<Release> release(const Module &Source) {
    Tracer::Scope S(T, "service.release_build_s");
    auto R = std::make_shared<Release>();
    R->Source = std::shared_ptr<const Module>(Source.clone().release());
    BuildConfig BC;
    BC.Variant = PGOVariant::CSSPGOFull;
    BuildResult B = L.build(Source, BC, nullptr);
    R->Bin = std::move(B.Bin);
    R->Probes = B.ProbeDescs;
    return R;
  }

  // profileHost in ProfileService.cpp.
  ContextProfile profileHost(const Service &Svc, const HostTask &Task) {
    std::vector<int64_t> Mem = L.input(Svc.Workload, Task.InputSeed);
    ExecConfig EC;
    EC.Sampler.Enabled = true;
    EC.Sampler.PeriodCycles = Task.SamplePeriodCycles;
    EC.Sampler.Precise = true;
    EC.Sampler.Seed = Task.SamplerSeed;
    RunResult Run = L.execute(*Svc.Rel->Bin, Mem, EC);

    ProfGenOptions GO;
    GO.Kind = ProfGenKind::CS;
    GO.Parallelism = 1;
    GO.Verify = VerifyLevel::Off;
    ContextProfile CS;
    {
      Tracer::Scope S(T, "profgen.self_s");
      ProfileGenerator Gen(*Svc.Rel->Bin, &Svc.Rel->Probes, GO);
      CS = Gen.generate(Run.Samples).CS;
    }
    T.count("profgen.contexts", CS.numProfiles());
    return CS;
  }

  // hotFunctions in ProfileService.cpp.
  static std::vector<std::string> hotFunctions(const ProfileStore &St,
                                               unsigned N) {
    std::vector<std::pair<uint64_t, std::string>> All;
    for (size_t I = 0; I != St.numFunctions(); ++I)
      All.push_back(
          {St.functionTotalSamples(I), std::string(St.functionName(I))});
    std::sort(All.begin(), All.end(), [](const auto &A, const auto &B) {
      return A.first != B.first ? A.first > B.first : A.second < B.second;
    });
    if (All.size() > N)
      All.resize(N);
    std::vector<std::string> Names;
    for (auto &[Total, Name] : All)
      Names.push_back(std::move(Name));
    return Names;
  }

  // ProfileService::foldEpoch.
  void fold(unsigned E, std::vector<std::optional<ContextProfile>> &Results) {
    for (unsigned S = 0; S != C.Fleet.Services; ++S) {
      Service &Svc = Services[S];
      ContextProfile Epoch;
      uint64_t EpochSamples = 0;
      {
        Tracer::Scope Span(T, "service.reduce_s");
        std::vector<ContextProfileView> HostViews;
        for (unsigned H = 0; H != C.Fleet.Hosts; ++H) {
          if (Fleet.serviceOfHost(H) != S || !Results[H])
            continue;
          EpochSamples += Results[H]->totalSamples();
          HostViews.push_back(contextViewOf(*Results[H]));
        }
        std::vector<const ContextProfileView *> HostPtrs;
        for (const ContextProfileView &V : HostViews)
          HostPtrs.push_back(&V);
        MergeStats Stats;
        Epoch = contextProfileOf(
            mergeContextViews(HostPtrs, Stats, /*IntoEmptyDst=*/true));
      }
      if (!EpochSamples) {
        T.count("service.epochs_dropped", 1);
        continue;
      }

      ProfileBundle Bundle;
      Bundle.Has = true;
      Bundle.IsCS = true;
      Bundle.CS = std::move(Epoch);
      {
        Tracer::Scope Span(T, "store.ingest_s");
        if (!Svc.Pipeline.ingest(Svc.StoreBytes, Bundle, Fleet.timestamp(E))) {
          T.count("service.epochs_dropped", 1);
          continue;
        }
      }

      Tracer::Scope Span(T, "matcher.probe_s");
      Expected<ProfileStore> St = ProfileStore::openBorrowed(Svc.StoreBytes);
      if (!St)
        continue;
      Svc.HotSet = hotFunctions(*St, C.HotTopN);
      std::unique_ptr<Module> Target = Svc.Rel->Source->clone();
      insertProbes(*Target, AnchorKind::PseudoProbe);
      St->resolveNames(*Target);
      Expected<LoaderStats> Probe =
          loadProfileFromStore(*Target, *St, LoaderOptions(), /*Lazy=*/true);
      if (!Probe)
        continue;
      T.count("loader.annotated", Probe->FunctionsAnnotated);
      T.count("loader.topdown_inlines", Probe->InlinedCallsites);
      T.count("loader.stale_matched", Probe->StaleMatched);
      uint64_t StoreSamples = St->totalSamples();
      Svc.RecoveredSampleRate =
          StoreSamples ? static_cast<double>(Probe->StaleCountsRecovered) /
                             static_cast<double>(StoreSamples)
                       : 0;
    }
  }

  ServiceConfig C;
  FleetSim Fleet;
  Tracer &T;
  Layers L;
  std::vector<Service> Services;
  unsigned NextEpoch = 0;
};

} // namespace

bool replayPipeline(const ExperimentConfig &C, PGOVariant V, bool PostLink,
                    Tracer &T, PipelineResult &Out, std::string &Error) {
  try {
    PipelineReplay R(C, T);
    if (PostLink) {
      Out = R.runPostLink(V);
    } else {
      PipelineReplay::Variant Res = R.run(V);
      Out.EvalCyclesMean = Res.EvalCyclesMean;
      Out.CodeSizeBytes = Res.CodeSizeBytes;
      Out.ExitValue = Res.ExitValue;
      Out.BaselineEvalCyclesMean = R.baseline().EvalCyclesMean;
    }
    return true;
  } catch (const ReplayError &E) {
    Error = E.Message;
    return false;
  }
}

bool replayFleet(const ServiceConfig &C, const std::vector<unsigned> &Passes,
                 Tracer &T, FleetResult &Out, std::string &Error) {
  try {
    FleetReplay R(C, T);
    for (unsigned N : Passes)
      R.run(N);
    Out = R.result();
    return true;
  } catch (const ReplayError &E) {
    Error = E.Message;
    return false;
  }
}

std::unique_ptr<Module> currentRelease(const ServiceConfig &C, unsigned S,
                                       unsigned Epochs) {
  FleetSim Fleet(C.Fleet);
  std::unique_ptr<Module> M = generateProgram(Fleet.serviceWorkload(S));
  unsigned Releases = 1;
  for (unsigned E = 0; E != Epochs; ++E)
    if (deploysAt(C, E))
      applyCFGDrift(*M, driftKind(Releases++), E);
  return M;
}

} // namespace perfbench
