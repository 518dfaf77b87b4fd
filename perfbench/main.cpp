//===- main.cpp - End-to-end benchmark ------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--emit-reference]
//
// Runs one workload through the public session API and prints every
// metric by name and unit, then one JSON summary as the last line of
// stdout. With --trace 0 the end-to-end metrics are measured; with
// --trace 1 each cell is also rebuilt layer by layer (ledger.cpp) and the
// per-layer ledger is printed instead. Every cell's semantic results are
// checked against the reference table; any mismatch sets "correct" to
// false and the exit code to 1. perfbench/README.md describes the
// workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <thread>

using namespace jackee;
using namespace jackee::core;
using namespace perfbench;
using synth::BenchApp;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class WorkloadKind { Heavy, CiWide, LiveEdit };

struct Workload {
  const char *Name;
  WorkloadKind Kind;
  unsigned Jobs;          ///< matrix workers
  unsigned SolverThreads; ///< per-cell solver workers
};

constexpr Workload Workloads[] = {
    {"heavy-2objH", WorkloadKind::Heavy, 1, 2},
    {"ci-wide", WorkloadKind::CiWide, 2, 1},
    {"live-edit", WorkloadKind::LiveEdit, 1, 2},
};

constexpr BenchApp AllApps[] = {
    BenchApp::Alfresco, BenchApp::Bitbucket,  BenchApp::DotCMS,
    BenchApp::OpenCms,  BenchApp::Pybbs,      BenchApp::Shopizer,
    BenchApp::SpringBlog, BenchApp::WebGoat,
};

/// Edits per live-edit pass: half warm (insert-only), half reset.
constexpr unsigned WarmEdits = 5, ResetEdits = 5;
/// `explain()` reads after every edit.
constexpr unsigned ExplainBatch = 8;
/// The seed `reference.tsv`'s seed-dependent rows were produced at.
constexpr uint64_t BaselineSeed = 1;
/// `snapshot::buildBase` repetitions per model in the traced run.
constexpr unsigned BuildReps = 5;

SessionOptions sessionOptions(const Workload &W) {
  SessionOptions O;
  O.Jobs = W.Jobs;
  O.SolverThreads = W.SolverThreads;
  O.DatalogThreads = 1;
  return O;
}

/// The analysis kinds a workload runs (their snapshots are built during
/// set-up).
std::vector<AnalysisKind> workloadKinds(const Workload &W) {
  switch (W.Kind) {
  case WorkloadKind::Heavy:
    return {AnalysisKind::TwoObjH, AnalysisKind::Mod2ObjH};
  case WorkloadKind::CiWide:
    return {AnalysisKind::DoopBaselineCI, AnalysisKind::CI};
  case WorkloadKind::LiveEdit:
    return {AnalysisKind::Mod2ObjH};
  }
  return {};
}

/// The workload's cells in the order the seed gives pass \p Pass.
/// heavy-2objH shuffles its four cells; ci-wide shuffles the app order and
/// the kind order of its matrix (runMatrix runs app-major). Every pass
/// draws its own order, so a run's medians average over orders rather
/// than depend on one.
struct CellPlan {
  std::vector<CellSpec> Cells;       ///< run order
  std::vector<BenchApp> MatrixApps;  ///< ci-wide only
  std::vector<AnalysisKind> MatrixKinds;
};

CellPlan planCells(const Workload &W, uint64_t Seed, uint32_t Pass) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + Pass);
  CellPlan Plan;
  switch (W.Kind) {
  case WorkloadKind::Heavy:
    for (BenchApp A : {BenchApp::DotCMS, BenchApp::Alfresco})
      for (AnalysisKind K : workloadKinds(W))
        Plan.Cells.push_back({A, K});
    std::shuffle(Plan.Cells.begin(), Plan.Cells.end(), Rng);
    break;
  case WorkloadKind::CiWide:
    Plan.MatrixApps.assign(std::begin(AllApps), std::end(AllApps));
    Plan.MatrixKinds = workloadKinds(W);
    std::shuffle(Plan.MatrixApps.begin(), Plan.MatrixApps.end(), Rng);
    std::shuffle(Plan.MatrixKinds.begin(), Plan.MatrixKinds.end(), Rng);
    for (BenchApp A : Plan.MatrixApps)
      for (AnalysisKind K : Plan.MatrixKinds)
        Plan.Cells.push_back({A, K});
    break;
  case WorkloadKind::LiveEdit:
    Plan.Cells.push_back({BenchApp::Alfresco, AnalysisKind::Mod2ObjH});
    break;
  }
  return Plan;
}

/// One live-edit step: the delta, whether it takes the reset path, and the
/// class whose bean the explain batch asks about first (warm edits only).
struct EditStep {
  CellDelta Delta;
  bool Reset = false;
  std::string Focus;
};

/// The edit sequence of live-edit pass \p Pass: WarmEdits edits that wire
/// a dead `app.dead.DeadN` class as an XML bean and ResetEdits edits that
/// retract either a config added earlier in the pass or a dead class, in a
/// seeded order. Every class is used at most once per pass.
std::vector<EditStep> drawEdits(uint64_t Seed, uint32_t Pass) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + Pass + 1);
  std::vector<uint32_t> Dead(synth::profileFor(BenchApp::Alfresco).DeadClasses);
  std::iota(Dead.begin(), Dead.end(), 0u);
  std::shuffle(Dead.begin(), Dead.end(), Rng);
  std::vector<bool> IsReset(WarmEdits, false);
  IsReset.resize(WarmEdits + ResetEdits, true);
  std::shuffle(IsReset.begin(), IsReset.end(), Rng);

  size_t NextDead = 0;
  std::vector<std::string> LiveConfigs;
  std::vector<EditStep> Steps;
  for (bool Reset : IsReset) {
    EditStep Step;
    Step.Reset = Reset;
    if (!Reset) {
      std::string N = std::to_string(Dead[NextDead++]);
      std::string File = "edit-dead" + N + ".xml";
      Step.Focus = "app.dead.Dead" + N;
      Step.Delta.AddConfigs.push_back(
          {File, "<beans>\n  <bean id=\"dead" + N + "\" class=\"" +
                     Step.Focus + "\"/>\n</beans>\n"});
      LiveConfigs.push_back(File);
    } else if (!LiveConfigs.empty() && Rng() % 2 == 0) {
      size_t I = Rng() % LiveConfigs.size();
      Step.Delta.RetractConfigs.push_back(LiveConfigs[I]);
      LiveConfigs.erase(LiveConfigs.begin() + static_cast<long>(I));
    } else {
      Step.Delta.RetractClasses.push_back("app.dead.Dead" +
                                          std::to_string(Dead[NextDead++]));
    }
    Steps.push_back(std::move(Step));
  }
  return Steps;
}

/// Explain queries over tuples every live-edit state keeps: beans of the
/// XML-wired services and repositories, and the REST entry points.
std::vector<std::string> explainPool() {
  const synth::SynthProfile &Prof = synth::profileFor(BenchApp::Alfresco);
  std::vector<std::string> Pool;
  for (uint32_t I = 0; I != Prof.Services; ++I)
    Pool.push_back("Bean(\"app.service.Service" + std::to_string(I) + "\")");
  for (uint32_t I = 0; I != Prof.Repositories; ++I)
    Pool.push_back("Bean(\"app.repo.Repository" + std::to_string(I) + "\")");
  for (uint32_t I = 0; I != Prof.RestResources; ++I)
    Pool.push_back("EntryPointClass(\"app.rest.Resource" + std::to_string(I) +
                   "\")");
  return Pool;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile with at least ten samples beyond it. With fewer
/// than eleven samples no percentile qualifies, and the maximum is
/// reported instead (and labelled so).
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Samples = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N < 11) {
    T.Value = V.back();
    return T;
  }
  size_t I = N - 11;
  T.Value = V[I];
  T.Percentile = 100.0 * static_cast<double>(I + 1) / static_cast<double>(N);
  return T;
}

std::string describeTail(const Tail &T) {
  char Buf[128];
  if (T.Samples < 11)
    std::snprintf(Buf, sizeof(Buf), "max of n=%zu (fewer than 11 samples)",
                  T.Samples);
  else
    std::snprintf(Buf, sizeof(Buf), "p%.1f of n=%zu", T.Percentile, T.Samples);
  return Buf;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Metrics for the JSON summary, in print order.
struct Report {
  std::vector<std::tuple<std::string, double, std::string>> Values;
  uint64_t Attempted = 0, Failed = 0;

  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "") {
    Values.emplace_back(Name, Value, Unit);
    std::printf("metric %-32s %14.6f %-6s %s\n", Name.c_str(), Value,
                Unit.c_str(), Note.c_str());
  }

  void fail(const std::string &Why) {
    ++Failed;
    std::printf("FAIL %s\n", Why.c_str());
  }

  void printJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    bool First = true;
    for (const auto &[Name, Value, Unit] : Values) {
      double V = std::isfinite(Value) ? Value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), V, Unit.c_str());
      First = false;
    }
    std::printf("}}\n");
  }
};

//===----------------------------------------------------------------------===//
// Reference table
//===----------------------------------------------------------------------===//

/// Checked-in semantic results, one row per (workload, cell) key.
class ReferenceTable {
public:
  bool load(const std::string &Path) {
    std::ifstream In(Path);
    if (!In)
      return false;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      Rows[Line.substr(0, Line.find('\t'))] = Line;
    }
    return true;
  }

  /// Checks \p S against the row for \p Key; records an attempt, and a
  /// failure on mismatch or a missing row.
  void check(Report &R, const std::string &Key, const Semantic &S) const {
    ++R.Attempted;
    std::string Got = referenceRow(Key, S);
    auto It = Rows.find(Key);
    if (It == Rows.end())
      R.fail("no reference row for " + Key + "; computed:\n  " + Got);
    else if (It->second != Got)
      R.fail("reference mismatch for " + Key + "\n  want " + It->second +
             "\n  got  " + Got);
  }

private:
  std::map<std::string, std::string> Rows;
};

//===----------------------------------------------------------------------===//
// Workload passes (tracing off)
//===----------------------------------------------------------------------===//

/// One untraced pass over the workload's cells; returns its wall time and
/// each cell's metrics, keyed by cell name.
struct PassResult {
  double Wall = 0;
  std::map<std::string, Metrics> Cells;
  std::vector<std::string> Errors;
};

PassResult runBatchPass(AnalysisSession &Session, const Workload &W,
                        const CellPlan &Plan) {
  PassResult R;
  if (W.Kind == WorkloadKind::Heavy) {
    std::vector<AnalysisResult> Results;
    Results.reserve(Plan.Cells.size());
    Clock::time_point Start = Clock::now();
    for (const CellSpec &C : Plan.Cells)
      Results.push_back(Session.run(synth::applicationFor(C.App), C.Kind));
    R.Wall = secondsSince(Start);
    for (size_t I = 0; I != Plan.Cells.size(); ++I) {
      if (Results[I].ok())
        R.Cells.emplace(cellName(Plan.Cells[I]), *Results[I]);
      else
        R.Errors.push_back(cellName(Plan.Cells[I]) + ": " +
                           Results[I].error().Message);
    }
    return R;
  }
  std::vector<Application> Apps;
  for (BenchApp A : Plan.MatrixApps)
    Apps.push_back(synth::applicationFor(A));
  Clock::time_point Start = Clock::now();
  std::vector<AnalysisResult> Results =
      Session.runMatrix(Apps, Plan.MatrixKinds);
  R.Wall = secondsSince(Start);
  for (size_t I = 0; I != Results.size(); ++I) {
    if (Results[I].ok())
      R.Cells.emplace(cellName(Plan.Cells[I]), *Results[I]);
    else
      R.Errors.push_back(cellName(Plan.Cells[I]) + ": " +
                         Results[I].error().Message);
  }
  return R;
}

/// Samples of one live-edit pass.
struct LivePass {
  double Wall = 0;  ///< open through teardown, digest checks excluded
  double Open = 0;
  double Teardown = 0;
  std::vector<double> WarmMs, ResetMs, ExplainMs;
  Metrics OpenMetrics, FinalMetrics;
  bool Completed = false; ///< the pass ran to its end
  // Update-path counters: solver work and provenance records per reset
  // update, and tuples the evaluator derived over all of the pass's updates.
  std::vector<double> ResetWorkItems, ResetRecorded;
  uint64_t UpdateTuplesDerived = 0;
};

LivePass runLivePass(AnalysisSession &Session, uint64_t Seed, uint32_t Pass,
                     const std::vector<std::string> &Pool, Report &R) {
  LivePass LP;
  CellSpec Spec{BenchApp::Alfresco, AnalysisKind::Mod2ObjH};
  Application App = synth::applicationFor(Spec.App);
  std::vector<EditStep> Steps = drawEdits(Seed, Pass);
  std::mt19937_64 Rng(Seed ^ (0xA5A5A5A5ull + Pass));

  Clock::time_point Start = Clock::now();
  CellResult Opened = Session.open(App, Spec.Kind);
  LP.Open = secondsSince(Start);
  ++R.Attempted;
  if (!Opened.ok()) {
    R.fail("open " + cellName(Spec) + ": " + Opened.error().Message);
    return LP;
  }
  std::unique_ptr<AnalysisCell> Cell = std::move(Opened).value();
  LP.OpenMetrics = Cell->metrics();
  uint64_t DerivedAtOpen = Cell->metrics().DatalogTuplesDerived;

  for (const EditStep &Step : Steps) {
    Clock::time_point U = Clock::now();
    AnalysisResult Res = Cell->update(Step.Delta);
    double Ms = 1e3 * secondsSince(U);
    ++R.Attempted;
    if (!Res.ok()) {
      R.fail("update: " + Res.error().Message);
      return LP;
    }
    (Step.Reset ? LP.ResetMs : LP.WarmMs).push_back(Ms);
    if (Step.Reset) {
      LP.ResetWorkItems.push_back(
          static_cast<double>(Cell->solver().stats().WorkItems));
      LP.ResetRecorded.push_back(
          static_cast<double>(Cell->metrics().ProvenanceTuplesRecorded));
    }

    for (unsigned Q = 0; Q != ExplainBatch; ++Q) {
      std::string Query = Q == 0 && !Step.Focus.empty()
                              ? "Bean(\"" + Step.Focus + "\")"
                              : Pool[Rng() % Pool.size()];
      std::string Error;
      Clock::time_point E = Clock::now();
      size_t Trees = Cell->explain(Query, Error).size();
      LP.ExplainMs.push_back(1e3 * secondsSince(E));
      ++R.Attempted;
      if (Trees == 0 || !Error.empty())
        R.fail("explain " + Query + " returned no derivation " + Error);
    }
    ++R.Attempted;
    if (Cell->metrics().AppReachableMethods == 0)
      R.fail("metrics() read an empty fixpoint");
  }
  double Ops = secondsSince(Start);
  LP.UpdateTuplesDerived = Cell->metrics().DatalogTuplesDerived - DerivedAtOpen;

  // Outside the timed region: the final state must equal a from-scratch
  // cell over the same edits.
  std::string LiveDigest = Cell->canonicalDigest();
  LP.FinalMetrics = Cell->metrics();

  Clock::time_point T = Clock::now();
  Cell.reset();
  LP.Teardown = secondsSince(T);
  LP.Wall = Ops + LP.Teardown;

  std::vector<CellDelta> Deltas;
  for (const EditStep &Step : Steps)
    Deltas.push_back(Step.Delta);
  ++R.Attempted;
  CellResult Scratch = Session.open(applyDelta(App, Deltas), Spec.Kind);
  if (!Scratch.ok())
    R.fail("from-scratch cell: " + Scratch.error().Message);
  else if (Scratch->canonicalDigest() != LiveDigest)
    R.fail("live-edit pass " + std::to_string(Pass) +
           ": updated cell digest differs from the from-scratch cell");
  LP.Completed = true;
  return LP;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Builds a session and fills its snapshot cache by running the tiny
/// petstore application under each of the workload's analyses.
std::unique_ptr<AnalysisSession> setUpSession(const Workload &W, Report &R) {
  auto Session = std::make_unique<AnalysisSession>(sessionOptions(W));
  Application Warm = synth::petstoreApp();
  for (AnalysisKind K : workloadKinds(W)) {
    AnalysisResult Res = Session->run(Warm, K);
    ++R.Attempted;
    if (!Res.ok())
      R.fail("set-up cell petstore/" + std::string(analysisName(K)) + ": " +
             Res.error().Message);
  }
  return Session;
}

/// Times one set-up and appends the time to \p Times.
std::unique_ptr<AnalysisSession> timedSetUp(const Workload &W, Report &R,
                                            std::vector<double> &Times) {
  Clock::time_point Start = Clock::now();
  std::unique_ptr<AnalysisSession> Session = setUpSession(W, R);
  Times.push_back(secondsSince(Start));
  return Session;
}

/// Runs passes until the next one would overrun \p Seconds, but at least
/// \p MinPasses.
template <typename PassFn>
void runTimed(double Seconds, unsigned MinPasses, PassFn Pass) {
  Clock::time_point Start = Clock::now();
  std::vector<double> Durations;
  while (true) {
    double Elapsed = secondsSince(Start);
    if (Durations.size() >= MinPasses &&
        Elapsed + median(Durations) > Seconds)
      break;
    Clock::time_point P = Clock::now();
    Pass(static_cast<uint32_t>(Durations.size()));
    Durations.push_back(secondsSince(P));
  }
}

void checkPass(const Workload &W, const CellPlan &Plan, const PassResult &P,
               const ReferenceTable &Ref, Report &R) {
  for (const std::string &E : P.Errors) {
    ++R.Attempted;
    R.fail(E);
  }
  for (const CellSpec &C : Plan.Cells) {
    auto It = P.Cells.find(cellName(C));
    if (It != P.Cells.end())
      Ref.check(R, std::string(W.Name) + ":" + cellName(C),
                semanticOf(It->second));
  }
}

//===----------------------------------------------------------------------===//
// End-to-end run (--trace 0)
//===----------------------------------------------------------------------===//

void liveSummary(const std::vector<LivePass> &Passes) {
  std::vector<double> Open, Warm, Reset, All, Explain;
  for (const LivePass &LP : Passes) {
    Open.push_back(LP.Open);
    Warm.insert(Warm.end(), LP.WarmMs.begin(), LP.WarmMs.end());
    Reset.insert(Reset.end(), LP.ResetMs.begin(), LP.ResetMs.end());
    Explain.insert(Explain.end(), LP.ExplainMs.begin(), LP.ExplainMs.end());
  }
  All = Warm;
  All.insert(All.end(), Reset.begin(), Reset.end());
  Tail UT = tailOf(All);
  std::printf("live open_s               %12.6f s   (median of n=%zu)\n",
              median(Open), Open.size());
  std::printf("live update_warm_p50_ms   %12.3f ms  (n=%zu)\n", median(Warm),
              Warm.size());
  std::printf("live update_reset_p50_ms  %12.3f ms  (n=%zu)\n", median(Reset),
              Reset.size());
  std::printf("live update_tail_ms       %12.3f ms  (%s)\n", UT.Value,
              describeTail(UT).c_str());
  std::printf("live explain_p50_ms       %12.4f ms  (n=%zu)\n",
              median(Explain), Explain.size());
  if (!Open.empty())
    std::printf("live reset/open ratio     %12.3f\n",
                median(Reset) / (1e3 * median(Open)));
}

void runEndToEnd(const Workload &W, uint64_t Seed, double Seconds,
                 const ReferenceTable &Ref, Report &R) {
  // The session used by every pass is the first set-up. Set-up is timed
  // again after each pass, so that its median spans the run instead of
  // one moment of it.
  std::vector<double> SetupTimes;
  std::unique_ptr<AnalysisSession> Session = timedSetUp(W, R, SetupTimes);
  std::vector<double> PassWalls;

  if (W.Kind == WorkloadKind::LiveEdit) {
    CellPlan Plan = planCells(W, Seed, 0);
    std::vector<std::string> Pool = explainPool();
    std::vector<LivePass> Passes;
    runTimed(Seconds, 3, [&](uint32_t P) {
      Passes.push_back(runLivePass(*Session, Seed, P, Pool, R));
      timedSetUp(W, R, SetupTimes);
    });
    for (size_t P = 0; P != Passes.size(); ++P) {
      const LivePass &LP = Passes[P];
      if (!LP.Completed)
        continue;
      PassWalls.push_back(LP.Wall);
      Ref.check(R, std::string(W.Name) + ":" + cellName(Plan.Cells[0]) +
                       "@open",
                semanticOf(LP.OpenMetrics));
      if (P == 0 && Seed == BaselineSeed)
        Ref.check(R, std::string(W.Name) + ":" + cellName(Plan.Cells[0]) +
                         "@final-seed" + std::to_string(BaselineSeed),
                  semanticOf(LP.FinalMetrics));
    }
    liveSummary(Passes);
  } else {
    runTimed(Seconds, 3, [&](uint32_t Pass) {
      CellPlan Plan = planCells(W, Seed, Pass);
      PassResult P = runBatchPass(*Session, W, Plan);
      PassWalls.push_back(P.Wall);
      checkPass(W, Plan, P, Ref, R);
      timedSetUp(W, R, SetupTimes);
    });
  }

  Tail PT = tailOf(PassWalls);
  std::printf("pass walls (s):");
  for (double Wall : PassWalls)
    std::printf(" %.4f", Wall);
  std::printf("\n");
  R.add("setup_s", median(SetupTimes), "s",
        "(median of " + std::to_string(SetupTimes.size()) + " set-ups)");
  R.add("pass_p50_s", median(PassWalls), "s",
        "(n=" + std::to_string(PassWalls.size()) + " passes)");
  R.add("pass_tail_s", PT.Value, "s", "(" + describeTail(PT) + ")");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  std::printf("failed_frac %.6f (%llu failed of %llu attempted)\n",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
}

//===----------------------------------------------------------------------===//
// Traced run (--trace 1): the layer ledger
//===----------------------------------------------------------------------===//

/// Sums the ledgers of one pass's cells (RSS delta: the largest cell).
Ledger sumLedgers(const std::vector<Ledger> &Cells) {
  Ledger S;
  for (const Ledger &L : Cells) {
    S.Wall += L.Wall;
    S.Clone += L.Clone;
    S.Populate += L.Populate;
    S.Register += L.Register;
    S.Extract += L.Extract;
    S.Wiring += L.Wiring;
    S.Eval += L.Eval;
    S.Fixpoint += L.Fixpoint;
    S.MetricsT += L.MetricsT;
    S.TdPointsto += L.TdPointsto;
    S.TdDatalog += L.TdDatalog;
    S.TdIr += L.TdIr;
    S.FactsTuples += L.FactsTuples;
    S.WiringRounds += L.WiringRounds;
    S.TuplesDerived += L.TuplesDerived;
    S.RelationBytes += L.RelationBytes;
    S.IndexBytes += L.IndexBytes;
    S.WorkItems += L.WorkItems;
    S.Edges += L.Edges;
    S.Rounds += L.Rounds;
    S.SetsTotal += L.SetsTotal;
    S.SetsDistinct += L.SetsDistinct;
    S.RssDeltaMb = std::max(S.RssDeltaMb, L.RssDeltaMb);
  }
  return S;
}

using BaseMap = std::map<javalib::CollectionModel,
                         std::unique_ptr<snapshot::BaseProgram>>;

/// Replica pass over \p Cells with \p Jobs worker threads; returns the pass
/// wall and fills one ledger and one metrics record per cell.
double runReplicaPass(const std::vector<CellSpec> &Cells, unsigned Jobs,
                      unsigned SolverThreads, bool Provenance,
                      const BaseMap &Bases,
                      std::vector<Ledger> &Ledgers,
                      std::vector<Metrics> &Results) {
  Ledgers.assign(Cells.size(), Ledger());
  Results.assign(Cells.size(), Metrics());
  std::vector<Application> Apps;
  for (const CellSpec &C : Cells)
    Apps.push_back(synth::applicationFor(C.App));
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Cells.size();)
      Results[I] = runReplicaCell(Apps[I], Cells[I].Kind,
                                  *Bases.at(collectionModel(Cells[I].Kind)),
                                  SolverThreads, Provenance, Ledgers[I]);
  };
  Clock::time_point Start = Clock::now();
  if (Jobs <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Threads;
    for (unsigned J = 0; J != Jobs; ++J)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
  }
  return secondsSince(Start);
}

void runTraced(const Workload &W, uint64_t Seed, double Seconds,
               const ReferenceTable &Ref, Report &R) {
  std::vector<double> SetupTimes;
  std::unique_ptr<AnalysisSession> Session = timedSetUp(W, R, SetupTimes);
  // snapshot: one base program per collection model, built like the
  // session's cache builds it (median of the set-up repetitions).
  BaseMap Bases;
  double BuildSeconds = 0;
  for (AnalysisKind K : workloadKinds(W)) {
    javalib::CollectionModel Model = collectionModel(K);
    if (Bases.count(Model))
      continue;
    std::vector<double> Times;
    for (unsigned I = 0; I != BuildReps; ++I) {
      Clock::time_point Start = Clock::now();
      auto Base = std::make_unique<snapshot::BaseProgram>(
          snapshot::buildBase(Model));
      Times.push_back(secondsSince(Start));
      Bases[Model] = std::move(Base);
    }
    BuildSeconds += median(Times);
  }

  bool Live = W.Kind == WorkloadKind::LiveEdit;
  std::vector<std::string> Pool;
  if (Live)
    Pool = explainPool();
  std::vector<Ledger> PassLedgers;
  std::vector<double> Untraced, Traced;
  std::vector<double> UpdWork, UpdDerived, Recorded;
  std::map<std::string, std::vector<double>> CellWall, CellUnattributed,
      CellCoverage, CellSolve, CellSessionSolve;

  runTimed(Seconds, 1, [&](uint32_t P) {
    CellPlan Plan = planCells(W, Seed, P);
    // Untraced reference pass through the session API.
    std::map<std::string, Metrics> SessionCells;
    if (Live) {
      LivePass LP = runLivePass(*Session, Seed, P, Pool, R);
      if (!LP.Completed)
        return;
      Untraced.push_back(LP.Open + LP.Teardown);
      Ref.check(R, std::string(W.Name) + ":" + cellName(Plan.Cells[0]) +
                       "@open",
                semanticOf(LP.OpenMetrics));
      SessionCells.emplace(cellName(Plan.Cells[0]), LP.OpenMetrics);
      UpdWork.insert(UpdWork.end(), LP.ResetWorkItems.begin(),
                     LP.ResetWorkItems.end());
      UpdDerived.push_back(static_cast<double>(LP.UpdateTuplesDerived));
      Recorded.insert(Recorded.end(), LP.ResetRecorded.begin(),
                      LP.ResetRecorded.end());
    } else {
      PassResult PR = runBatchPass(*Session, W, Plan);
      checkPass(W, Plan, PR, Ref, R);
      Untraced.push_back(PR.Wall);
      SessionCells = std::move(PR.Cells);
    }

    // The replica, layer by layer; it must reproduce the session's results.
    std::vector<Ledger> Ledgers;
    std::vector<Metrics> Results;
    Traced.push_back(runReplicaPass(Plan.Cells, W.Jobs, W.SolverThreads, Live,
                                    Bases, Ledgers, Results));
    for (size_t I = 0; I != Plan.Cells.size(); ++I) {
      std::string Name = cellName(Plan.Cells[I]);
      ++R.Attempted;
      const Ledger &L = Ledgers[I];
      auto It = SessionCells.find(Name);
      if (It == SessionCells.end()) {
        R.fail("no session result to compare the replica of " + Name);
      } else {
        CellSessionSolve[Name].push_back(It->second.ElapsedSeconds);
        if (!(semanticOf(It->second) == semanticOf(Results[I])))
          R.fail("layer replica drifted from AnalysisSession on " + Name +
                 "\n  session " + referenceRow(Name, semanticOf(It->second)) +
                 "\n  replica " + referenceRow(Name, semanticOf(Results[I])));
      }
      CellWall[Name].push_back(L.Wall);
      CellSolve[Name].push_back(L.Wiring + L.Fixpoint);
      CellUnattributed[Name].push_back(L.unattributed());
      CellCoverage[Name].push_back(L.Wall > 0 ? L.covered() / L.Wall : 0);
    }
    PassLedgers.push_back(sumLedgers(Ledgers));
  });

  // solve_s is the replica's wiring + fixpoint; session_solve_s is the
  // session's own solve time (Metrics::ElapsedSeconds) for the same cell.
  std::printf("%-28s %10s %12s %9s %10s %16s\n", "cell", "wall_s",
              "unattrib_s", "covered", "solve_s", "session_solve_s");
  double MinCoverage = 1.0;
  for (const CellSpec &C : planCells(W, Seed, 0).Cells) {
    std::string Name = cellName(C);
    double Cov = median(CellCoverage[Name]);
    MinCoverage = std::min(MinCoverage, Cov);
    std::printf("%-28s %10.6f %12.6f %8.2f%% %10.6f %16.6f\n", Name.c_str(),
                median(CellWall[Name]), median(CellUnattributed[Name]),
                100.0 * Cov, median(CellSolve[Name]),
                median(CellSessionSolve[Name]));
  }

  auto Med = [&](auto Field) {
    std::vector<double> V;
    for (const Ledger &L : PassLedgers)
      V.push_back(static_cast<double>(Field(L)));
    return median(V);
  };
  R.add("snapshot.build_s", BuildSeconds, "s");
  R.add("snapshot.clone_s", Med([](const Ledger &L) { return L.Clone; }), "s");
  R.add("synth.populate_s", Med([](const Ledger &L) { return L.Populate; }),
        "s");
  R.add("frameworks.register_s",
        Med([](const Ledger &L) { return L.Register; }), "s");
  R.add("facts.extract_s", Med([](const Ledger &L) { return L.Extract; }),
        "s");
  R.add("facts.tuples", Med([](const Ledger &L) { return L.FactsTuples; }),
        "count");
  R.add("frameworks.wiring_s", Med([](const Ledger &L) { return L.Wiring; }),
        "s", "(includes datalog.eval_s)");
  R.add("frameworks.wiring_rounds",
        Med([](const Ledger &L) { return L.WiringRounds; }), "count");
  R.add("datalog.eval_s", Med([](const Ledger &L) { return L.Eval; }), "s");
  R.add("datalog.tuples_derived",
        Med([](const Ledger &L) { return L.TuplesDerived; }), "count");
  R.add("datalog.relation_bytes",
        Med([](const Ledger &L) { return L.RelationBytes; }), "bytes");
  R.add("datalog.index_bytes",
        Med([](const Ledger &L) { return L.IndexBytes; }), "bytes");
  R.add("pointsto.fixpoint_s", Med([](const Ledger &L) { return L.Fixpoint; }),
        "s");
  R.add("pointsto.work_items", Med([](const Ledger &L) { return L.WorkItems; }),
        "count");
  R.add("pointsto.edges", Med([](const Ledger &L) { return L.Edges; }),
        "count");
  R.add("pointsto.rounds", Med([](const Ledger &L) { return L.Rounds; }),
        "count");
  R.add("pointsto.rss_delta_mb",
        Med([](const Ledger &L) { return L.RssDeltaMb; }), "MB",
        "(largest cell)");
  R.add("pointsto.sets_total", Med([](const Ledger &L) { return L.SetsTotal; }),
        "count");
  R.add("pointsto.sets_distinct",
        Med([](const Ledger &L) { return L.SetsDistinct; }), "count");
  R.add("core.metrics_s", Med([](const Ledger &L) { return L.MetricsT; }),
        "s");
  R.add("core.teardown_s", Med([](const Ledger &L) { return L.teardown(); }),
        "s");
  R.add("core.teardown.pointsto_s",
        Med([](const Ledger &L) { return L.TdPointsto; }), "s");
  R.add("core.teardown.datalog_s",
        Med([](const Ledger &L) { return L.TdDatalog; }), "s");
  R.add("core.teardown.ir_s", Med([](const Ledger &L) { return L.TdIr; }),
        "s");
  R.add("core.unattributed_s",
        Med([](const Ledger &L) { return L.unattributed(); }), "s");
  R.add("core.cell_wall_s", Med([](const Ledger &L) { return L.Wall; }), "s",
        "(sum over cells)");
  R.add("core.span_coverage_frac", MinCoverage, "frac", "(worst cell)");
  R.add("pointsto.update_work_items", median(UpdWork), "count",
        "(median per reset update)");
  R.add("datalog.update_tuples_derived", median(UpdDerived), "count",
        "(all updates of a pass, median over passes)");
  R.add("provenance.tuples_recorded", median(Recorded), "count",
        "(median after a reset update)");
  R.add("observe.trace_overhead_frac",
        median(Traced) / median(Untraced) - 1.0, "frac",
        "(replica wall / session wall - 1, n=" +
            std::to_string(Traced.size()) + ")");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --reference FILE [--emit-reference]\n"
               "workloads: heavy-2objH ci-wide live-edit\n");
  return 2;
}

/// Prints the reference rows of a workload at \p Seed (no timing).
int emitReference(const Workload &W, uint64_t Seed) {
  Report Scratch;
  std::unique_ptr<AnalysisSession> Session = setUpSession(W, Scratch);
  CellPlan Plan = planCells(W, Seed, 0);
  std::string Prefix = std::string(W.Name) + ":";
  if (W.Kind == WorkloadKind::LiveEdit) {
    LivePass LP = runLivePass(*Session, Seed, 0, explainPool(), Scratch);
    std::printf("%s\n", referenceRow(Prefix + cellName(Plan.Cells[0]) + "@open",
                                     semanticOf(LP.OpenMetrics))
                            .c_str());
    std::printf("%s\n",
                referenceRow(Prefix + cellName(Plan.Cells[0]) + "@final-seed" +
                                 std::to_string(Seed),
                             semanticOf(LP.FinalMetrics))
                    .c_str());
  } else {
    PassResult P = runBatchPass(*Session, W, Plan);
    for (const auto &[Name, M] : P.Cells)
      std::printf("%s\n", referenceRow(Prefix + Name, semanticOf(M)).c_str());
  }
  return Scratch.Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, ReferencePath;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  bool Emit = false;
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (!std::strcmp(Argv[I], "--workload") && (V = Next()))
      WorkloadName = V;
    else if (!std::strcmp(Argv[I], "--seed") && (V = Next()))
      Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(Argv[I], "--seconds") && (V = Next()))
      Seconds = std::atof(V);
    else if (!std::strcmp(Argv[I], "--trace") && (V = Next()))
      Trace = std::atoi(V);
    else if (!std::strcmp(Argv[I], "--reference") && (V = Next()))
      ReferencePath = V;
    else if (!std::strcmp(Argv[I], "--emit-reference"))
      Emit = true;
    else
      return usage();
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (WorkloadName == Cand.Name)
      W = &Cand;
  if (!W || Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();
  if (Emit)
    return emitReference(*W, Seed);

  ReferenceTable Ref;
  if (!Ref.load(ReferencePath)) {
    std::fprintf(stderr, "perfbench: cannot read reference table '%s'\n",
                 ReferencePath.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", W->Name,
              static_cast<unsigned long long>(Seed), Seconds, Trace);
  Report R;
  if (Trace)
    runTraced(*W, Seed, Seconds, Ref, R);
  else
    runEndToEnd(*W, Seed, Seconds, Ref, R);
  std::fflush(stdout);
  R.printJson();
  return R.Failed == 0 ? 0 : 1;
}
