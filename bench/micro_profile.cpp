//===- micro_profile.cpp - Deep-profiler overhead microbenchmarks ----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Measures what rule-level profiling costs — and what it costs when it is
// *off*. The contract (datalog/Evaluator.h) is that with profiling
// disabled every instrumentation site reduces to one untaken branch per
// pass and per duplicate head emit, so the disabled configuration must be
// indistinguishable from the pre-profiler engine. `main` enforces that
// with a deterministic bound rather than a flaky wall-clock diff: it
// measures the cost of one untaken branch directly, multiplies by a
// generous over-count of the sites the disabled run executes (taken from
// the enabled run's own counters), and asserts the product stays under 1%
// of the disabled run's wall time. The enabled overhead is measured
// A/B-interleaved and reported (EXPERIMENTS.md tracks both).
//
// The workload is the adversarial transitive closure from micro_trace:
// two rules, many rounds, wide deltas — maximal instrumentation-site
// density per unit of real join work.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "observe/Profile.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

using namespace jackee;
using namespace jackee::datalog;

namespace {

const char *TC_RULES = ".decl edge(a: symbol, b: symbol)\n"
                       ".decl path(a: symbol, b: symbol)\n"
                       "path(x, y) :- edge(x, y).\n"
                       "path(x, z) :- path(x, y), edge(y, z).\n";

/// Wide seeded random graph: many strata rounds with real work per round,
/// so the instrumentation sites fire as often as the engine allows.
void loadWideGraph(Database &DB, int64_t Nodes) {
  uint64_t Rng = 0x9e3779b97f4a7c15ull;
  auto next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (int64_t I = 0; I != Nodes * 4; ++I)
    DB.insertFact("edge", {"n" + std::to_string(next() % Nodes),
                           "n" + std::to_string(next() % Nodes)});
}

} // namespace

/// Transitive closure with profiling off vs on. Compare `profiling:0` here
/// against `BM_TCTrace/tracing:0` in micro_trace to confirm the
/// no-profiler path is unchanged.
static void BM_TCProfile(benchmark::State &State) {
  const int64_t Nodes = State.range(0);
  const bool Profiling = State.range(1) != 0;
  uint64_t Derivations = 0;
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules, TC_RULES, "bench");
    loadWideGraph(DB, Nodes);
    Evaluator Eval(DB, Rules);
    if (Profiling)
      Eval.enableRuleProfiling();
    State.ResumeTiming();
    Eval.run();
    benchmark::DoNotOptimize(DB.relation(DB.find("path")).size());
    State.PauseTiming();
    for (const Evaluator::RuleProfile &RP : Eval.ruleProfiles())
      Derivations += RP.Derivations;
    State.ResumeTiming();
  }
  State.counters["derivations"] = static_cast<double>(Derivations);
}
BENCHMARK(BM_TCProfile)
    ->ArgsProduct({{256, 512}, {0, 1}})
    ->ArgNames({"nodes", "profiling"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Report rendering on a synthetic profile shaped like a fig5 cell:
/// ~80 rules, ~120 relations, a populated census. Rendering happens once
/// per analysis, so this only needs to be "not embarrassing".
static void BM_RenderReport(benchmark::State &State) {
  observe::Profile P;
  P.Label = "bench/ci";
  for (unsigned I = 0; I != 80; ++I) {
    observe::ProfileRule R;
    R.Name = "Rel" + std::to_string(I % 20) + "#" + std::to_string(I / 20);
    R.Origin = "bench.dl:" + std::to_string(10 + I);
    R.Passes = 3 + I;
    R.RoundsFired = 2 * I;
    R.TuplesConsidered = 1000 + 17 * I;
    R.Derivations = 500 + 13 * I;
    R.Matches = 600 + 13 * I;
    R.EstimatedFanout = 900 + 11 * I;
    R.WallSeconds = 0.001 * I;
    P.Rules.push_back(R);
  }
  for (unsigned I = 0; I != 120; ++I) {
    observe::ProfileRelationRow R;
    R.Name = "Relation" + std::to_string(I);
    R.Arity = 2 + I % 3;
    R.Tuples = 100 * I;
    R.Live = 90 * I;
    R.Dead = 10 * I;
    R.DataBytes = 100 * I * R.Arity * 4;
    R.IndexBytesApprox = 64 * I;
    R.StoreBytesApprox = 128 * I;
    R.IndexesApprox = 1 + I % 4;
    P.Relations.push_back(R);
  }
  P.Census.VarNodes = 5000;
  P.Census.NonEmptySets = 4000;
  P.Census.DistinctSets = 400;
  P.Census.TotalEntries = 60000;
  P.Census.ReclaimableBytes = 180000;
  P.Census.DistinctEntries = 9000;
  P.Census.SetBytes = 240000;
  P.Census.MaxSetSize = 64;
  P.Census.Histogram = {1200, 900, 800, 700, 400};
  P.Census.Packages = {{"java.util", 20000}, {"java.lang", 9000}};
  P.Phases = {{"extract", 0.5, 1 << 20},
              {"solve", 2.5, 1 << 22},
              {"report", 0.01, 1 << 22}};
  const bool Json = State.range(0) != 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Json ? observe::profileToJson(P).size()
                                  : observe::renderProfileText(P).size());
}
BENCHMARK(BM_RenderReport)->Arg(0)->Arg(1)->ArgNames({"json"})
    ->Unit(benchmark::kMicrosecond);

namespace {

using Clock = std::chrono::steady_clock;

/// One TC evaluation; returns wall seconds and, when profiling, the summed
/// per-rule counters — a generous over-count of the branch sites the
/// *disabled* path executes (one per pass, per considered tuple, per head
/// emit; Considered + Matches + Derivations + Passes covers all of them).
std::pair<double, uint64_t> runOnce(bool Profiling) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  parseRules(DB, Rules, TC_RULES, "bench");
  loadWideGraph(DB, 512);
  Evaluator Eval(DB, Rules);
  if (Profiling)
    Eval.enableRuleProfiling();
  auto Start = Clock::now();
  Eval.run();
  double Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  uint64_t Sites = 0;
  for (const Evaluator::RuleProfile &RP : Eval.ruleProfiles())
    Sites += RP.TuplesConsidered + RP.Matches + RP.Derivations + RP.Passes;
  return {Seconds, Sites};
}

/// Direct check, independent of the benchmark harness. Two parts:
///
///  1. *Disabled overhead ≤ 1%* (hard assert): cost-of-one-untaken-branch
///     × site over-count must be under 1% of the disabled run's wall
///     time. This is the honest version of the claim — a wall-clock diff
///     between two builds of the same binary cannot resolve 1% reliably,
///     but the bound is stable run to run and holds with margin.
///  2. *Enabled overhead* (reported, not asserted): best-of-5 interleaved
///     disabled vs enabled wall time.
int assertDisabledOverhead() {
  double BestDisabled = -1, BestEnabled = -1;
  uint64_t Sites = 0;
  for (int I = 0; I != 5; ++I) {
    auto [D, _] = runOnce(false);
    auto [E, S] = runOnce(true);
    if (BestDisabled < 0 || D < BestDisabled)
      BestDisabled = D;
    if (BestEnabled < 0 || E < BestEnabled)
      BestEnabled = E;
    Sites = S;
  }

  // Cost of the disabled path's instrumentation: one untaken branch on a
  // cold flag. The volatile read defeats hoisting, so every iteration
  // pays the real test-and-skip.
  volatile bool Flag = false;
  uint64_t Sink = 0;
  constexpr uint64_t Iters = 1ull << 24;
  auto BranchStart = Clock::now();
  for (uint64_t I = 0; I != Iters; ++I)
    if (Flag)
      ++Sink;
  double PerBranch =
      std::chrono::duration<double>(Clock::now() - BranchStart).count() /
      double(Iters);
  benchmark::DoNotOptimize(Sink);

  double DisabledShare = PerBranch * double(Sites) / BestDisabled;
  double EnabledOverhead = (BestEnabled - BestDisabled) / BestDisabled;
  std::printf("profiling-disabled bound: branch=%.2fns x %llu sites "
              "= %.4f%% of %.4fs (budget 1%%)\n",
              PerBranch * 1e9, static_cast<unsigned long long>(Sites),
              100.0 * DisabledShare, BestDisabled);
  std::printf("profiling-enabled overhead: disabled=%.4fs enabled=%.4fs "
              "(+%.1f%%)\n",
              BestDisabled, BestEnabled, 100.0 * EnabledOverhead);
  if (DisabledShare > 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled-profiling instrumentation bound is "
                 "%.2f%% of run time (budget: 1%%)\n",
                 100.0 * DisabledShare);
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return assertDisabledOverhead();
}
