//===- campbench/campbench.cpp - End-to-end campaign benchmark ----------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fixed-seed campaign workload through the public API the way
/// `classfuzz fuzz --incidents --reduce` does: runCampaign, the
/// five-profile differential pass, one HDD reduction per discrepancy and
/// the markdown report. Each stage is timed from outside, the outputs
/// are checked, and one JSON object of metrics is printed on stdout.
/// run.py builds this binary and drives it; see README.md there.
///
///   campbench run --workload W --seed N --seconds S --trace 0|1
///                 [--spans FILE]
///   campbench selftest
///
/// `run --trace 0` repeats the pipeline for S seconds and reports the
/// end-to-end metrics, scaled to a reference host speed. `run --trace 1` measures the untraced wall time,
/// then reruns the pipeline with spans and telemetry on, replays the
/// committed mutants layer by layer, probes a quarter-length campaign,
/// and reports the per-layer metrics. `selftest` checks that a short
/// dd-fine campaign has the same digest at jobs 1 and jobs 2.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"
#include "classfile/ClassReader.h"
#include "classfile/ClassWriter.h"
#include "coverage/Uniqueness.h"
#include "difftest/DiffTest.h"
#include "difftest/Report.h"
#include "fuzzing/Campaign.h"
#include "fuzzing/Provenance.h"
#include "fuzzing/SeedScheduler.h"
#include "jir/Jir.h"
#include "jvm/ClassPath.h"
#include "jvm/Phase.h"
#include "jvm/Policy.h"
#include "jvm/Vm.h"
#include "reducer/Reducer.h"
#include "runtime/RuntimeLib.h"
#include "runtime/SeedCorpus.h"
#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace classfuzz;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// User + system CPU seconds of this process, all threads. Unlike wall
/// time it does not count time the process waited for a CPU.
double cpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}

/// Starts a new peak for peakRssMb (Linux: "5" to /proc/self/clear_refs).
void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// Peak resident memory in MiB since the last resetPeakRss (VmHWM), or
/// over the process's life where /proc is missing.
double peakRssMb() {
  long Kb = -1;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (Kb < 0 && std::fgets(Line, sizeof Line, F))
      std::sscanf(Line, "VmHWM: %ld kB", &Kb);
    std::fclose(F);
  }
  if (Kb < 0) {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    Kb = U.ru_maxrss;
  }
  return static_cast<double>(Kb) / 1024.0;
}

/// Linear-interpolated quantile of \p V (0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One benchmark workload: a `classfuzz fuzz` configuration at a fixed
/// campaign length and jobs 1, plus how many discrepancies the triage
/// stage reduces. Jobs 1 because at jobs 2 the campaign's wall time
/// followed other tenants' load on a shared host (up to 2x between runs)
/// while its CPU time did not; the traced run probes jobs 2 instead.
struct Workload {
  const char *Name;
  FuzzAlgorithm Algo;
  size_t Iterations;
  /// Discrepancies reduced per campaign, spread evenly over commit
  /// order; 0 reduces all.
  size_t ReduceLimit;
};

constexpr size_t DefaultSeeds = 64; // `classfuzz fuzz --seeds` default.

const Workload Workloads[] = {
    {"stbr-triage", FuzzAlgorithm::ClassfuzzStBr, 6000, 0},
    {"ddfine", FuzzAlgorithm::ClassfuzzDdFine, 2000, 50},
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

CampaignConfig configFor(const Workload &W, uint64_t Seed, size_t Iters) {
  CampaignConfig C;
  C.Algo = W.Algo;
  C.Iterations = Iters;
  C.RngSeed = Seed;
  C.NumSeeds = DefaultSeeds;
  return C;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the benchmark's own calls into each
/// layer: name, start, end and the enclosing span. Disabled, a scope
/// costs one branch. Single-threaded: spans are only opened on the
/// main thread.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent; ///< Index of the enclosing span, -1 at the top.
  };

  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T.On ? &T : nullptr) {
      if (!this->T)
        return;
      Index = static_cast<int32_t>(T.Spans.size());
      T.Spans.push_back({Name, T.nowNs(), 0,
                         T.Stack.empty() ? -1 : T.Stack.back()});
      T.Stack.push_back(Index);
    }
    ~Scope() {
      if (!T)
        return;
      T->Spans[static_cast<size_t>(Index)].EndNs = T->nowNs();
      T->Stack.pop_back();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Index = -1;
  };

  void enable(bool Enable) { On = Enable; }

  /// Durations in microseconds of every span named \p Name.
  std::vector<double> durationsUs(std::string_view Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (Name == S.Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    return Out;
  }

  /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto).
  bool writeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"traceEvents\":[\n", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%" PRId32 "}}\n",
                   I ? "," : "", S.Name,
                   static_cast<double>(S.StartNs) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                   S.Parent);
    }
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Epoch)
        .count();
  }

  bool On = false;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

/// Output checks attempted and failed, with the first few failures kept
/// for the log.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Messages.size() < 16)
      Messages.push_back(What);
  }
};

//===----------------------------------------------------------------------===//
// The pipeline
//===----------------------------------------------------------------------===//

/// Campaign telemetry read right after runCampaign (traced runs only),
/// before the differential pass adds its own VM runs.
struct CampaignTelemetry {
  uint64_t MutateNs = 0, ExecuteNs = 0, CommitNs = 0;
  uint64_t VmRuns = 0, VmSteps = 0;
};

CampaignTelemetry readCampaignTelemetry() {
  auto &M = telemetry::metrics();
  CampaignTelemetry T;
  T.MutateNs = M.histogram("campaign.stage.mutate_ns").sum();
  T.ExecuteNs = M.histogram("campaign.stage.execute_ns").sum();
  T.CommitNs = M.histogram("campaign.stage.commit_ns").sum();
  T.VmRuns = M.counter("jvm.instances").value();
  T.VmSteps = M.counter("jvm.interp_steps").value();
  return T;
}

/// One reduction of the triage stage.
struct Reduction {
  size_t GenIndex = 0;
  std::string Target; ///< Encoded sequence the reduction preserves.
  std::optional<Bytes> Reduced;
  std::string Error;
  ReductionStats Stats;
  double Ms = 0;
};

/// Everything one pass of the pipeline produced and measured.
struct PipelineRun {
  CampaignResult R;
  CampaignTelemetry Telem;
  DiffStats Stats;
  std::vector<std::string> Encoded; ///< Per TestClassIndices entry.
  std::vector<Reduction> Reductions;
  std::string Report;
  double CampaignS = 0, DifftestS = 0, WallS = 0, CpuS = 0, PeakRssMb = 0;
  Checks Check;
  uint64_t Digest = 0;
  std::map<std::string, uint64_t> Counts;
};

/// The trajectory digest: accepted names and bytes, the post-campaign
/// outcome census, the campaign's δ census and the reduced bytes.
uint64_t digestOf(const PipelineRun &P) {
  Hasher H;
  H.addU64(P.R.Iterations);
  H.addU64(P.R.numGenerated());
  for (size_t I : P.R.TestClassIndices) {
    H.addString(P.R.GenClasses[I].Name);
    H.addU64(hashBytes(P.R.GenClasses[I].Data));
  }
  H.addU64(P.Stats.Total);
  H.addU64(P.Stats.AllInvoked);
  H.addU64(P.Stats.AllRejectedSameStage);
  H.addU64(P.Stats.Discrepancies);
  for (const auto &[Encoded, Count] : P.Stats.DistinctDiscrepancies) {
    H.addString(Encoded);
    H.addU64(Count);
  }
  for (const auto &Row : P.Stats.PhaseCounts)
    for (size_t Count : Row)
      H.addU64(Count);
  for (const auto &[Encoded, Count] : P.R.DdOutcomeCounts) {
    H.addString(Encoded);
    H.addU64(Count);
  }
  for (const Reduction &Red : P.Reductions)
    H.addU64(Red.Reduced ? hashBytes(*Red.Reduced) : 0);
  return H.value();
}

/// The campaign's frozen base environment (runtime library + seeds) and
/// its class-name universe, as lineage replay rebuilds them.
struct BaseEnv {
  ClassPath Env;
  std::vector<std::string> Known;

  BaseEnv(const JvmPolicy &Policy, const std::vector<SeedClass> &Seeds)
      : Env(runtimeLibraryFor(Policy)) {
    for (const SeedClass &Seed : Seeds) {
      Env.add(Seed.Name, Seed.Data);
      for (const auto &[Name, Data] : Seed.Helpers)
        Env.add(Name, Data);
    }
    Env.freeze();
    Known = Env.names();
  }
};

/// Checks every output of \p P that the benchmark can verify
/// independently of the timing.
void checkOutputs(const CampaignConfig &Cfg, const DifferentialTester &Tester,
                  PipelineRun &P) {
  Checks &C = P.Check;
  const CampaignResult &R = P.R;
  // dd modes: the outcome recorded at acceptance equals the
  // post-campaign differential outcome.
  if (usesDeltaDiversity(R.Algo))
    for (size_t K = 0; K != R.TestClassIndices.size(); ++K) {
      const GeneratedClass &G = R.GenClasses[R.TestClassIndices[K]];
      C.check(G.DdEncoded == P.Encoded[K],
              "dd outcome of " + G.Name + " recorded " + G.DdEncoded +
                  ", re-run " + P.Encoded[K]);
    }
  // Every reduction reproduces its target and does not grow the input.
  for (const Reduction &Red : P.Reductions) {
    const GeneratedClass &G = R.GenClasses[Red.GenIndex];
    C.check(Red.Reduced.has_value(),
            "reduction of " + G.Name + " failed: " + Red.Error);
    if (!Red.Reduced)
      continue;
    std::string Got = Tester.testClass(G.Name, *Red.Reduced).encodedString();
    C.check(Got == Red.Target, "reduced " + G.Name + " encodes " + Got +
                                   ", expected " + Red.Target);
    C.check(Red.Reduced->size() <= G.Data.size(),
            "reduced " + G.Name + " grew to " +
                std::to_string(Red.Reduced->size()) + " bytes");
  }
  // A deterministic sample of accepted mutants re-derives byte for byte.
  if (!R.TestClassIndices.empty()) {
    BaseEnv Base(Cfg.ReferencePolicy, R.Seeds);
    const size_t Stride = std::max<size_t>(1, R.TestClassIndices.size() / 24);
    for (size_t K = 0; K < R.TestClassIndices.size(); K += Stride) {
      const GeneratedClass &G = R.GenClasses[R.TestClassIndices[K]];
      auto Replayed = replayLineage(R.Seeds[G.Prov.RootSeedIndex].Data,
                                    G.Prov.Steps, Base.Known);
      C.check(Replayed && Replayed->ClassName == G.Name &&
                  Replayed->Data == G.Data,
              "lineage replay of " + G.Name + " differs");
    }
  }
  C.check(R.SelfChecks.empty(),
          std::to_string(R.SelfChecks.size()) + " analyzer self-checks");
  C.check(R.PrefilterMispredicts == 0,
          std::to_string(R.PrefilterMispredicts) + " prefilter mispredicts");
  C.check(P.Stats.EncodingErrors == 0,
          std::to_string(P.Stats.EncodingErrors) + " encoding errors");
  // The report has one section per distinct category.
  bool AllListed = true;
  for (const auto &[Encoded, Count] : P.Stats.DistinctDiscrepancies)
    AllListed &= P.Report.find("## Category `" + Encoded + "`") !=
                 std::string::npos;
  C.check(AllListed, "report misses a discrepancy category");
}

/// Campaign -> differential pass -> reductions -> report, timed from
/// outside; then the output checks (untimed).
PipelineRun runPipeline(const Workload &W, const CampaignConfig &Cfg,
                        Tracer &T, bool Check = true) {
  PipelineRun P;
  resetPeakRss();
  const double Cpu0 = cpuSeconds();
  const auto T0 = Clock::now();
  {
    Tracer::Scope S(T, "fuzzing.campaign");
    P.R = runCampaign(Cfg);
  }
  P.CampaignS = secondsSince(T0);
  if (telemetry::enabled())
    P.Telem = readCampaignTelemetry();

  std::optional<DifferentialTester> Tester;
  {
    Tracer::Scope S(T, "difftest.tester");
    Tester.emplace(DifferentialTester::withAllProfiles(
        P.R.corpusClassPath(), EnvironmentMode::PerJvm));
  }

  const auto T2 = Clock::now();
  std::vector<DiscrepancyRecord> Records;
  std::vector<size_t> Discrepant;
  P.Encoded.reserve(P.R.TestClassIndices.size());
  for (size_t I : P.R.TestClassIndices) {
    const GeneratedClass &G = P.R.GenClasses[I];
    DiffOutcome O;
    {
      Tracer::Scope S(T, "difftest.class");
      O = Tester->testClass(G.Name);
    }
    P.Stats.add(O);
    P.Encoded.push_back(O.encodedString());
    if (O.isDiscrepancy()) {
      Records.push_back({G.Name, O,
                         extendedMutatorRegistry()[G.MutatorIndex].Description});
      Discrepant.push_back(I);
    }
  }
  P.DifftestS = secondsSince(T2);

  const size_t NumReduce = W.ReduceLimit
                               ? std::min(W.ReduceLimit, Discrepant.size())
                               : Discrepant.size();
  for (size_t J = 0; J != NumReduce; ++J) {
    const size_t K = J * Discrepant.size() / NumReduce;
    Reduction Red;
    Red.GenIndex = Discrepant[K];
    Red.Target = Records[K].Outcome.encodedString();
    const Bytes &Input = P.R.GenClasses[Red.GenIndex].Data;
    ReductionOracle Oracle = [&](const std::string &Name,
                                 const Bytes &Candidate) {
      Tracer::Scope S(T, "reducer.query");
      return Tester->testClass(Name, Candidate).encodedString() == Red.Target;
    };
    ReducerOptions Opts; // One probe lane: `--reduce-jobs 1`.
    // CPU time: the reduction runs on this thread alone, so it is the
    // latency less any time the thread waited for a CPU.
    const double Cpu = cpuSeconds();
    {
      Tracer::Scope S(T, "reducer.reduce");
      auto Out = reduceClassfile(Input, Oracle, Opts, &Red.Stats);
      if (Out)
        Red.Reduced = Out.take();
      else
        Red.Error = Out.error();
    }
    Red.Ms = (cpuSeconds() - Cpu) * 1e3;
    P.Reductions.push_back(std::move(Red));
  }

  {
    Tracer::Scope S(T, "difftest.report");
    P.Report = renderDiscrepancyReport(Tester->policies(), Records, P.Stats);
  }
  P.WallS = secondsSince(T0);
  P.CpuS = cpuSeconds() - Cpu0;
  P.PeakRssMb = peakRssMb();

  P.Digest = digestOf(P);
  uint64_t ReducedBytes = 0;
  for (const Reduction &Red : P.Reductions)
    ReducedBytes += Red.Reduced ? Red.Reduced->size() : 0;
  P.Counts = {
      {"iterations", P.R.Iterations},
      {"produced", P.R.numGenerated()},
      {"accepted", P.R.numTests()},
      {"discrepancies", P.Stats.Discrepancies},
      {"distinct", P.Stats.DistinctDiscrepancies.size()},
      {"reductions", P.Reductions.size()},
      {"reduced_bytes", ReducedBytes},
      {"sched_epochs", P.R.SchedEpochs},
      {"dd_discrepancies", P.R.DdDiscrepancies},
  };
  if (Check)
    checkOutputs(Cfg, *Tester, P);
  return P;
}

//===----------------------------------------------------------------------===//
// Metric output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  size_t Samples;
};

std::string jsonString(const std::string &S) {
  return "\"" + telemetry::jsonEscape(S) + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// Measures how fast the host runs at the moment, with a fixed kernel that
/// calls no classfuzz code: it allocates and frees small strings and
/// buffers, updates a hash map and hashes bytes, as the pipeline does, in
/// a working set under 200 KiB. On a shared host the stages of the
/// pipeline slow down and speed up together with this kernel, so the
/// end-to-end timings are reported at a reference speed: scaled by
/// ReferenceMs / the run's median kernel time. A change to classfuzz does
/// not change the kernel, so its effect on the timings shows in full.
class SpeedProbe {
public:
  /// About the kernel's time on the 4-vCPU host the bounds were set on,
  /// so that scaled times read close to measured ones there.
  static constexpr double ReferenceMs = 16.0;

  /// Runs the kernel once and records its wall time.
  void sample() {
    const auto T0 = Clock::now();
    uint64_t X = 0x9E3779B97F4A7C15ull, Sum = 0;
    std::unordered_map<uint64_t, std::string> Map;
    std::vector<std::vector<uint8_t>> Buffers(256);
    for (int I = 0; I != 12000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Map[X % 4096] = std::to_string(X);
      std::vector<uint8_t> Buffer(64 + X % 512);
      for (size_t K = 0; K != Buffer.size(); ++K)
        Buffer[K] = static_cast<uint8_t>((X >> (K % 56)) ^ K);
      uint64_t H = 1469598103934665603ull;
      for (uint8_t B : Buffers[(X >> 8) % 256])
        H = (H ^ B) * 1099511628211ull;
      Sum += H;
      Buffers[X % 256] = std::move(Buffer);
    }
    std::vector<uint64_t> Keys;
    for (const auto &[Key, Text] : Map)
      Keys.push_back(Key ^ Text.size());
    std::sort(Keys.begin(), Keys.end());
    Sink = Sum + Keys[Keys.size() / 2];
    Samples.push_back(secondsSince(T0) * 1e3);
  }

  double medianMs() const { return median(Samples); }
  /// Factor that takes a time measured in this run to the reference speed.
  double scale() const { return ReferenceMs / medianMs(); }
  size_t samples() const { return Samples.size(); }

private:
  std::vector<double> Samples;
  volatile uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// Rounds
//===----------------------------------------------------------------------===//

/// Campaigns per run. Each run pools this many campaigns, at the
/// workload seed and at seeds derived from it, so that one seed's
/// trajectory does not set the run's figures.
constexpr size_t SubCampaigns = 16;

std::vector<uint64_t> campaignSeeds(uint64_t Seed) {
  std::vector<uint64_t> Seeds;
  for (uint64_t I = 0; I != SubCampaigns; ++I)
    Seeds.push_back(Seed + I * 1000003);
  return Seeds;
}

/// What the end-to-end metrics need from one pipeline pass.
struct PassSample {
  double CampaignS = 0, WallS = 0, DifftestS = 0, CpuS = 0, PeakRssMb = 0;
  std::vector<double> ReduceMs;
  uint64_t Digest = 0;
  std::map<std::string, uint64_t> Counts;

  explicit PassSample(const PipelineRun &P)
      : CampaignS(P.CampaignS), WallS(P.WallS), DifftestS(P.DifftestS),
        CpuS(P.CpuS), PeakRssMb(P.PeakRssMb), Digest(P.Digest),
        Counts(P.Counts) {
    for (const Reduction &Red : P.Reductions)
      ReduceMs.push_back(Red.Ms);
  }
};

/// One pass over every campaign seed of the run.
using Round = std::vector<PassSample>;

/// Folds \p P's checks into \p C; when \p Earlier is given, also
/// checks that \p P's digest and exact counts match it.
void foldChecks(Checks &C, const PipelineRun &P,
                const PassSample *Earlier) {
  C.Attempted += P.Check.Attempted;
  C.Failed += P.Check.Failed;
  for (const std::string &M : P.Check.Messages)
    if (C.Messages.size() < 16)
      C.Messages.push_back(M);
  if (Earlier)
    C.check(P.Digest == Earlier->Digest && P.Counts == Earlier->Counts,
            "digest or counts differ from an earlier pass at the same seed");
}

/// Prints the run's result: per campaign seed the trajectory digest and
/// exact counts, the output checks, and the metrics.
void printResult(const Workload &W, uint64_t Seed, bool Traced,
                 size_t Rounds, const std::vector<uint64_t> &Seeds,
                 const Round &First, const Checks &C,
                 const std::vector<Metric> &Metrics,
                 const SpeedProbe *Speed = nullptr) {
  std::string Out = "{\"workload\":" + jsonString(W.Name) +
                    ",\"seed\":" + std::to_string(Seed) +
                    ",\"trace\":" + (Traced ? "1" : "0") +
                    ",\"rounds\":" + std::to_string(Rounds) +
                    ",\"campaigns\":[";
  for (size_t I = 0; I != First.size(); ++I) {
    char Hex[32];
    std::snprintf(Hex, sizeof Hex, "%016" PRIx64, First[I].Digest);
    Out += std::string(I ? "," : "") + "{\"seed\":" +
           std::to_string(Seeds[I]) + ",\"digest\":\"" + Hex +
           "\",\"counts\":{";
    bool FirstKey = true;
    for (const auto &[Key, Value] : First[I].Counts) {
      Out += (FirstKey ? "" : ",") + jsonString(Key) + ":" +
             std::to_string(Value);
      FirstKey = false;
    }
    Out += "}}";
  }
  Out += "]";
  if (Speed)
    Out += ",\"speed\":{\"kernel_ms\":" + jsonNumber(Speed->medianMs()) +
           ",\"reference_ms\":" + jsonNumber(SpeedProbe::ReferenceMs) +
           ",\"scale\":" + jsonNumber(Speed->scale()) +
           ",\"n\":" + std::to_string(Speed->samples()) + "}";
  Out += ",\"attempted\":" + std::to_string(C.Attempted) +
         ",\"failed\":" + std::to_string(C.Failed) + ",\"failures\":[";
  for (size_t I = 0; I != C.Messages.size(); ++I)
    Out += (I ? "," : "") + jsonString(C.Messages[I]);
  Out += "],\"metrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? "," : "") + jsonString(M.Name) +
           ":{\"value\":" + jsonNumber(M.Value) + ",\"unit\":\"" + M.Unit +
           "\",\"n\":" + std::to_string(M.Samples) + "}";
  }
  Out += "}}";
  std::puts(Out.c_str());
}

/// One set-up timing: runCampaign at zero iterations (seed corpus,
/// runtime libraries, base environments, seed registration runs) plus
/// the tester's construction. Measured in CPU time of the whole process,
/// so that time spent waiting for a CPU on a shared host does not count.
double timeSetup(const Workload &W, uint64_t Seed) {
  const double Cpu0 = cpuSeconds();
  CampaignResult R = runCampaign(configFor(W, Seed, 0));
  DifferentialTester Tester = DifferentialTester::withAllProfiles(
      R.corpusClassPath(), EnvironmentMode::PerJvm);
  return cpuSeconds() - Cpu0;
}

/// What the end-to-end metrics sample besides the passes.
struct RunSamples {
  std::vector<double> Setup;
  SpeedProbe Speed;
};

/// Runs rounds of the untraced pipeline over \p Seeds until \p Budget
/// seconds are used, and at least \p MinRounds rounds. When \p Extra is
/// given, times set-up three times before each pass and samples the host
/// speed before and after it, so these samples spread over the whole run
/// like the passes do.
std::vector<Round> runRounds(const Workload &W,
                             const std::vector<uint64_t> &Seeds,
                             double Budget, size_t MinRounds, Checks &C,
                             RunSamples *Extra = nullptr) {
  Tracer Off;
  std::vector<Round> Rounds;
  const auto Start = Clock::now();
  double Longest = 0;
  while (Rounds.size() < MinRounds ||
         secondsSince(Start) + Longest <= Budget) {
    const auto T0 = Clock::now();
    Round This;
    for (uint64_t Seed : Seeds) {
      if (Extra) {
        Extra->Speed.sample();
        for (int I = 0; I != 3; ++I)
          Extra->Setup.push_back(timeSetup(W, Seed));
      }
      PipelineRun P = runPipeline(W, configFor(W, Seed, W.Iterations), Off);
      if (Extra)
        Extra->Speed.sample();
      foldChecks(C, P, Rounds.empty() ? nullptr : &Rounds[0][This.size()]);
      This.emplace_back(P);
    }
    Rounds.push_back(std::move(This));
    Longest = std::max(Longest, secondsSince(T0));
  }
  return Rounds;
}

/// Each round pools its campaigns; each metric is the median over
/// rounds. Times per pass are means over the round's campaigns. Times
/// and rates are at the reference host speed (see SpeedProbe).
std::vector<Metric> endToEndMetrics(const RunSamples &Extra,
                                    const std::vector<Round> &Rounds) {
  const std::vector<double> &Setup = Extra.Setup;
  const double Scale = Extra.Speed.scale();
  std::vector<double> Iters, Wall, Diff, P50, P95, DiscRate, Cpu, Rss;
  size_t Reductions = 0;
  for (const Round &Rd : Rounds) {
    double It = 0, CampaignS = 0, WallS = 0, DiffS = 0, CpuS = 0, Disc = 0;
    double RssMb = 0;
    std::vector<double> Ms;
    for (const PassSample &P : Rd) {
      It += static_cast<double>(P.Counts.at("iterations"));
      Disc += static_cast<double>(P.Counts.at("discrepancies"));
      CampaignS += P.CampaignS;
      WallS += P.WallS;
      DiffS += P.DifftestS;
      CpuS += P.CpuS;
      RssMb += P.PeakRssMb;
      Ms.insert(Ms.end(), P.ReduceMs.begin(), P.ReduceMs.end());
    }
    const double N = static_cast<double>(Rd.size());
    Iters.push_back(ratio(It, CampaignS));
    Wall.push_back(WallS / N);
    Diff.push_back(DiffS / N);
    Cpu.push_back(CpuS / N);
    Rss.push_back(RssMb / N);
    DiscRate.push_back(ratio(Disc, WallS));
    P50.push_back(quantile(Ms, 0.5));
    P95.push_back(quantile(Ms, 0.95));
    Reductions += Ms.size();
  }
  // Exact counts: the same in every round.
  double Kiters = 0, Distinct = 0;
  for (const PassSample &P : Rounds.front()) {
    Kiters += static_cast<double>(P.Counts.at("iterations")) / 1e3;
    Distinct += static_cast<double>(P.Counts.at("distinct"));
  }
  const size_t Passes = Rounds.size() * Rounds.front().size();
  return {
      {"setup_s", median(Setup) * Scale, "s", Setup.size()},
      {"iter_per_s", median(Iters) / Scale, "iter/s", Passes},
      {"wall_s", median(Wall) * Scale, "s", Passes},
      {"difftest_s", median(Diff) * Scale, "s", Passes},
      {"reduce_p50_ms", median(P50) * Scale, "ms", Reductions},
      {"reduce_p95_ms", median(P95) * Scale, "ms", Reductions},
      {"discrepancies_per_s", median(DiscRate) / Scale, "1/s", Passes},
      {"distinct_per_kiter", ratio(Distinct, Kiters), "1/kiter",
       Rounds.front().size()},
      {"cpu_s", median(Cpu) * Scale, "s", Passes},
      {"peak_rss_mb", median(Rss), "MB", Passes},
  };
}

//===----------------------------------------------------------------------===//
// Layer replay (traced runs)
//===----------------------------------------------------------------------===//

/// Feeds the committed mutants of \p R, in commit order, through each
/// layer's public functions under spans, rebuilding the campaign's
/// environments, acceptance state and seed scheduler as it goes.
/// Returns how many executed mutants the replayed acceptance check
/// accepted.
size_t replayLayers(const CampaignConfig &Cfg, const CampaignResult &R,
                    Tracer &T, size_t &Executed) {
  const JvmPolicy &Ref = Cfg.ReferencePolicy;
  for (int I = 0; I != 3; ++I) {
    Tracer::Scope S(T, "runtime.seed_corpus");
    Rng SeedRng(Cfg.RngSeed);
    (void)generateSeedCorpus(SeedRng, Cfg.NumSeeds);
  }
  BaseEnv Base(Ref, R.Seeds);
  ClassPath RefEnv = Base.Env;
  StaticAnalyzer HoleAnalyzer(Base.Env, Ref);
  StaticAnalyzer Analyzer(Base.Env, Ref);

  const bool Dd = usesDeltaDiversity(R.Algo);
  const std::vector<JvmPolicy> Policies = allJvmPolicies();
  std::vector<ClassPath> DdEnvs;
  if (Dd)
    for (const JvmPolicy &P : Policies)
      DdEnvs.push_back(BaseEnv(P, R.Seeds).Env);

  // The workloads' acceptance criteria: [stbr] or [dd-fine].
  UniquenessChecker Unique(UniquenessCriterion::StBr);
  std::optional<DeltaDiversityChecker> Delta;
  if (Dd)
    Delta.emplace(UniquenessCriterion::DdFine);

  SeedScheduler::Options SchedOpts;
  SchedOpts.Policy = Cfg.SeedSched;
  SchedOpts.RareThreshold = Cfg.RareBranchThreshold;
  SeedScheduler Sched(SchedOpts);

  auto refTrace = [&](const std::string &Name, const Bytes &Data) {
    ClassPath Env = RefEnv;
    Env.add(Name, Data);
    CoverageRecorder Rec;
    Vm Jvm(Ref, Env, &Rec);
    Jvm.run(Name);
    return Rec.takeTrace();
  };
  auto ddObservations = [&](const std::string &Name, const Bytes &Data) {
    std::vector<ProfileObservation> Obs;
    for (size_t I = 0; I != Policies.size(); ++I) {
      ClassPath Env = DdEnvs[I];
      Env.add(Name, Data);
      CoverageRecorder Rec;
      Vm Jvm(Policies[I], Env, &Rec);
      int Code = encodePhase(Jvm.run(Name));
      Obs.push_back(ProfileObservation::of(Code, Rec.trace()));
    }
    return Obs;
  };

  // Seeds join the acceptance pool and the scheduler, as in the
  // campaign (Algorithm 1 line 1).
  for (const SeedClass &Seed : R.Seeds) {
    Tracefile Trace = refTrace(Seed.Name, Seed.Data);
    if (Dd)
      Delta->insert(ddObservations(Seed.Name, Seed.Data));
    else
      Unique.insert(Trace);
    Sched.addEntry(Trace);
    Sched.noteTrace(Trace);
  }
  Sched.rebuild();

  // Parent bytes by lineage: a mutant's parent is the accepted mutant
  // (or seed) whose chain is the mutant's minus its last step.
  auto lineageKey = [](const Provenance &Prov, size_t Steps) {
    Hasher H;
    H.addU64(Prov.RootSeedIndex);
    for (size_t I = 0; I != Steps; ++I) {
      H.addU64(Prov.Steps[I].MutatorIndex);
      H.addU64(Prov.Steps[I].RngBefore.Draws);
    }
    return H.value();
  };
  std::map<uint64_t, const Bytes *> Parents;
  for (size_t I = 0; I != R.Seeds.size(); ++I) {
    Provenance Root;
    Root.RootSeedIndex = I;
    Parents[lineageKey(Root, 0)] = &R.Seeds[I].Data;
  }

  size_t Accepted = 0;
  Executed = 0;
  for (const GeneratedClass &G : R.GenClasses) {
    {
      std::optional<ClassFile> CF;
      {
        Tracer::Scope S(T, "classfile.parse");
        if (auto P = parseClassFile(G.Data))
          CF = P.take();
      }
      if (CF) {
        Tracer::Scope S(T, "classfile.write");
        (void)writeClassFile(*CF);
      }
    }
    {
      std::optional<JirClass> J;
      {
        Tracer::Scope S(T, "jir.lower");
        if (auto L = lowerClassBytes(G.Data))
          J = L.take();
      }
      if (J) {
        Tracer::Scope S(T, "jir.assemble");
        (void)assembleToBytes(*J);
      }
    }
    if (!G.Prov.Steps.empty()) {
      auto It = Parents.find(lineageKey(G.Prov, G.Prov.Steps.size() - 1));
      if (It != Parents.end()) {
        Tracer::Scope S(T, "mutation.step");
        (void)replayLineage(*It->second, {G.Prov.Steps.back()}, Base.Known);
      }
    }
    {
      Tracer::Scope S(T, "analysis.holes");
      (void)HoleAnalyzer.typedHolesFor(G.Name, G.Data);
    }
    {
      Tracer::Scope S(T, "analysis.analyze");
      (void)Analyzer.analyzeClass(G.Name, G.Data);
    }
    // Pre-filter skips had no reference run in the campaign.
    if (G.RefPhase >= 0) {
      ++Executed;
      ClassPath Env = RefEnv;
      Env.add(G.Name, G.Data);
      {
        Tracer::Scope S(T, "jvm.run");
        Vm Jvm(Ref, Env);
        Jvm.run(G.Name);
      }
      CoverageRecorder Rec;
      {
        Tracer::Scope S(T, "coverage.run");
        Vm Jvm(Ref, Env, &Rec);
        Jvm.run(G.Name);
      }
      bool Novel;
      if (Dd) {
        std::vector<ProfileObservation> Obs = ddObservations(G.Name, G.Data);
        Tracer::Scope S(T, "coverage.unique");
        Novel = Delta->tryInsert(Obs).Tuple;
      } else {
        Tracer::Scope S(T, "coverage.unique");
        Novel = Unique.tryInsert(Rec.trace());
      }
      Accepted += Novel ? 1 : 0;
    }
    Sched.noteTrace(G.Trace);
    if (!G.Representative)
      continue;
    {
      Tracer::Scope S(T, "fuzzing.env_freeze");
      RefEnv.add(G.Name, G.Data);
      RefEnv.freeze();
      for (ClassPath &E : DdEnvs) {
        E.add(G.Name, G.Data);
        E.freeze();
      }
    }
    Analyzer.addEnvironmentClass(G.Name, G.Data);
    Sched.addEntry(G.Trace);
    {
      Tracer::Scope S(T, "fuzzing.sched_rebuild");
      Sched.rebuild();
    }
    Parents[lineageKey(G.Prov, G.Prov.Steps.size())] = &G.Data;
  }
  return Accepted;
}

/// Per-profile VM runs of the differential pass, replayed on a sample of
/// accepted classes with each profile's environment built the way the
/// tester builds it.
void replayProfiles(const CampaignResult &R, Tracer &T) {
  if (R.TestClassIndices.empty())
    return;
  ClassPath Corpus = R.corpusClassPath();
  const size_t Stride = std::max<size_t>(1, R.TestClassIndices.size() / 400);
  for (const JvmPolicy &P : allJvmPolicies()) {
    ClassPath Env = runtimeLibraryFor(P).overlaidWith(Corpus);
    Env.freeze();
    for (size_t K = 0; K < R.TestClassIndices.size(); K += Stride) {
      const std::string &Name = R.GenClasses[R.TestClassIndices[K]].Name;
      Tracer::Scope S(T, "difftest.profile");
      Vm Jvm(P, Env);
      Jvm.run(Name);
    }
  }
}

std::vector<Metric> perLayerMetrics(const CampaignConfig &Cfg, Checks &C,
                                    const PipelineRun &Traced,
                                    double UntracedWall, Tracer &T) {
  const CampaignResult &R = Traced.R;
  const CampaignTelemetry &TM = Traced.Telem;
  const double Iters = static_cast<double>(R.Iterations);
  const double Produced = static_cast<double>(R.numGenerated());

  size_t Executed = 0;
  const size_t ReplayAccepted = replayLayers(Cfg, R, T, Executed);
  replayProfiles(R, T);

  // Length-growth probe: the same configuration at a quarter length.
  telemetry::metrics().reset();
  CampaignConfig Quarter = Cfg;
  Quarter.Iterations = std::max<size_t>(1, Cfg.Iterations / 4);
  CampaignResult QR = runCampaign(Quarter);
  const double QuarterCommit = ratio(
      static_cast<double>(
          telemetry::metrics().histogram("campaign.stage.commit_ns").sum()),
      static_cast<double>(QR.Iterations));
  const double FullCommit = ratio(static_cast<double>(TM.CommitNs), Iters);

  // Speculation probe: the same campaign at jobs 2. Its committed
  // trajectory must equal the jobs-1 one; its counters show how much
  // speculative work the second job wastes.
  telemetry::metrics().reset();
  CampaignConfig Parallel = Cfg;
  Parallel.Jobs = 2;
  CampaignResult PR = runCampaign(Parallel);
  const double SpecHits = static_cast<double>(
      telemetry::metrics().counter("campaign.speculation.hits").value());
  const double SpecCancelled = static_cast<double>(
      telemetry::metrics().counter("campaign.speculation.cancelled").value());
  bool SameTrajectory = PR.numGenerated() == R.numGenerated() &&
                        PR.TestClassIndices == R.TestClassIndices;
  for (size_t I : R.TestClassIndices)
    SameTrajectory =
        SameTrajectory && PR.GenClasses[I].Data == R.GenClasses[I].Data;
  C.check(SameTrajectory, "the jobs-2 campaign differs from jobs 1");

  std::vector<Metric> Out;
  auto span = [&](const char *Metric, const char *Span, double Scale,
                  const char *Unit) {
    std::vector<double> D = T.durationsUs(Span);
    for (double &V : D)
      V *= Scale;
    Out.push_back({Metric, median(D), Unit, D.size()});
  };
  span("runtime.seed_corpus_ms", "runtime.seed_corpus", 1e-3, "ms");
  span("analysis.holes_us", "analysis.holes", 1, "us");
  span("analysis.analyze_us", "analysis.analyze", 1, "us");
  span("classfile.parse_us", "classfile.parse", 1, "us");
  span("classfile.write_us", "classfile.write", 1, "us");
  span("jir.lower_us", "jir.lower", 1, "us");
  span("jir.assemble_us", "jir.assemble", 1, "us");
  span("mutation.mutate_us", "mutation.step", 1, "us");
  Out.push_back({"mutation.produced_frac", ratio(Produced, Iters), "ratio",
                 R.Iterations});
  // The success rate the MCMC selector ranks mutators by.
  Out.push_back({"mcmc.accept_frac",
                 ratio(static_cast<double>(R.numTests()), Iters), "ratio",
                 R.Iterations});
  span("jvm.run_us", "jvm.run", 1, "us");
  Out.push_back({"jvm.runs_per_iter", ratio(static_cast<double>(TM.VmRuns),
                                            Iters),
                 "count", R.Iterations});
  Out.push_back({"jvm.steps_per_run",
                 ratio(static_cast<double>(TM.VmSteps),
                       static_cast<double>(TM.VmRuns)),
                 "count", TM.VmRuns});
  {
    // Per mutant: the run with a coverage recorder minus the run
    // without (spans are recorded pairwise, in the same order).
    std::vector<double> Plain = T.durationsUs("jvm.run");
    std::vector<double> Cov = T.durationsUs("coverage.run");
    std::vector<double> Diff;
    for (size_t I = 0; I != std::min(Plain.size(), Cov.size()); ++I)
      Diff.push_back(Cov[I] - Plain[I]);
    Out.push_back({"coverage.record_us", median(Diff), "us", Diff.size()});
  }
  span("coverage.unique_us", "coverage.unique", 1, "us");
  Out.push_back({"coverage.accept_frac",
                 ratio(static_cast<double>(ReplayAccepted),
                       static_cast<double>(Executed)),
                 "ratio", Executed});
  const double CampaignNs = Traced.CampaignS * 1e9;
  Out.push_back({"fuzzing.mutate_ns_per_iter",
                 ratio(static_cast<double>(TM.MutateNs), Iters), "ns",
                 R.Iterations});
  Out.push_back({"fuzzing.execute_ns_per_iter",
                 ratio(static_cast<double>(TM.ExecuteNs), Iters), "ns",
                 R.Iterations});
  Out.push_back({"fuzzing.commit_ns_per_iter", FullCommit, "ns",
                 R.Iterations});
  // At jobs 1 the three stages run one after another on one thread.
  Out.push_back({"fuzzing.unaccounted_frac",
                 1.0 - ratio(static_cast<double>(TM.MutateNs + TM.ExecuteNs +
                                                 TM.CommitNs),
                             CampaignNs),
                 "ratio", 1});
  span("fuzzing.sched_rebuild_us", "fuzzing.sched_rebuild", 1, "us");
  Out.push_back({"fuzzing.sched_epochs", static_cast<double>(R.SchedEpochs),
                 "count", 1});
  span("fuzzing.env_freeze_us", "fuzzing.env_freeze", 1, "us");
  Out.push_back({"fuzzing.commit_growth", ratio(FullCommit, QuarterCommit),
                 "ratio", 2});
  Out.push_back({"fuzzing.spec_hit_frac",
                 ratio(SpecHits, SpecHits + SpecCancelled), "ratio",
                 static_cast<size_t>(SpecHits + SpecCancelled)});
  Out.push_back({"fuzzing.spec_cancelled_per_iter",
                 ratio(SpecCancelled, static_cast<double>(PR.Iterations)),
                 "count", PR.Iterations});
  span("difftest.class_ms", "difftest.class", 1e-3, "ms");
  span("difftest.profile_us", "difftest.profile", 1, "us");
  {
    std::vector<double> Queries;
    double Hits = 0, Charged = 0;
    for (const Reduction &Red : Traced.Reductions) {
      Queries.push_back(static_cast<double>(Red.Stats.OracleQueries));
      Hits += static_cast<double>(Red.Stats.CacheHits);
      Charged += static_cast<double>(Red.Stats.OracleQueries);
    }
    Out.push_back({"reducer.queries_per_reduction", median(Queries), "count",
                   Queries.size()});
    Out.push_back({"reducer.cache_hit_frac", ratio(Hits, Hits + Charged),
                   "ratio", Queries.size()});
  }
  span("reducer.query_us", "reducer.query", 1, "us");
  span("telemetry.report_ms", "difftest.report", 1e-3, "ms");
  Out.push_back({"trace_overhead_frac",
                 ratio(Traced.WallS, UntracedWall) - 1.0, "ratio", 1});
  std::fprintf(stderr,
               "replay: %zu of %zu executed mutants accepted (campaign "
               "accepted %zu of %zu produced)\n",
               ReplayAccepted, Executed, R.numTests(), R.numGenerated());
  return Out;
}

//===----------------------------------------------------------------------===//
// Commands
//===----------------------------------------------------------------------===//

int usage() {
  std::fputs("usage: campbench run --workload W --seed N --seconds S "
             "--trace 0|1 [--spans FILE]\n"
             "       campbench selftest\n",
             stderr);
  return 2;
}

int cmdRun(int Argc, char **Argv) {
  std::string WorkloadName, SpansPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Traced = false, HaveSeed = false;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    if (Key == "--workload")
      WorkloadName = Value;
    else if (Key == "--seed") {
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Key == "--seconds")
      Seconds = std::atof(Value.c_str());
    else if (Key == "--trace")
      Traced = Value == "1";
    else if (Key == "--spans")
      SpansPath = Value;
    else
      return usage();
  }
  const Workload *W = findWorkload(WorkloadName);
  if (!W || !HaveSeed || Seconds <= 0) {
    if (!W)
      std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return usage();
  }
  const std::vector<uint64_t> Seeds = campaignSeeds(Seed);
  Checks C;

  if (!Traced) {
    timeSetup(*W, Seed); // Warm-up, not counted.
    RunSamples Extra;
    std::vector<Round> Rounds = runRounds(*W, Seeds, Seconds, 1, C, &Extra);
    printResult(*W, Seed, false, Rounds.size(), Seeds, Rounds.front(), C,
                endToEndMetrics(Extra, Rounds), &Extra.Speed);
    return 0;
  }

  // The traced run covers the first campaign seed: its untraced wall
  // time first, then one traced pass, the layer replay and the
  // quarter-length probe.
  const CampaignConfig Cfg = configFor(*W, Seeds.front(), W->Iterations);
  std::vector<Round> Rounds =
      runRounds(*W, {Seeds.front()}, 0.5 * Seconds, 2, C);
  std::vector<double> Walls;
  for (const Round &Rd : Rounds)
    Walls.push_back(Rd.front().WallS);
  Tracer T;
  T.enable(true);
  telemetry::setEnabled(true);
  telemetry::metrics().reset();
  PipelineRun TracedRun = runPipeline(*W, Cfg, T, /*Check=*/false);
  foldChecks(C, TracedRun, &Rounds.front().front());
  std::vector<Metric> Metrics =
      perLayerMetrics(Cfg, C, TracedRun, median(Walls), T);
  if (!SpansPath.empty() && !T.writeJson(SpansPath))
    std::fprintf(stderr, "cannot write spans to %s\n", SpansPath.c_str());
  printResult(*W, Seed, true, Rounds.size(), {Seeds.front()},
              Rounds.front(), C, Metrics);
  return 0;
}

/// The dd-fine digest must not depend on --jobs: a short campaign at
/// jobs 1 and jobs 2 yields the same accepted classes and census.
int cmdSelftest() {
  const Workload &W = *findWorkload("ddfine");
  CampaignConfig Cfg = configFor(W, 7, 300);
  Tracer Off;
  Cfg.Jobs = 1;
  PipelineRun One = runPipeline(W, Cfg, Off);
  Cfg.Jobs = 2;
  PipelineRun Two = runPipeline(W, Cfg, Off);
  const bool Same = One.Digest == Two.Digest && One.Counts == Two.Counts;
  std::printf("{\"jobs1\":\"%016" PRIx64 "\",\"jobs2\":\"%016" PRIx64
              "\",\"same\":%s,\"failed\":%" PRIu64 "}\n",
              One.Digest, Two.Digest, Same ? "true" : "false",
              One.Check.Failed + Two.Check.Failed);
  return Same && One.Check.Failed == 0 && Two.Check.Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Cmd = Argv[1];
  if (Cmd == "run")
    return cmdRun(Argc, Argv);
  if (Cmd == "selftest")
    return cmdSelftest();
  return usage();
}
