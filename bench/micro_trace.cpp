//===- micro_trace.cpp - Tracing overhead microbenchmarks ------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Measures what span tracing costs — and what it costs when it is *off*.
// The disabled configuration runs the exact same evaluation with no tracer
// attached; the contract (observe/Trace.h) is that every instrumentation
// site then reduces to an untaken pointer test, so `tracing:0` must be
// indistinguishable from the pre-tracing engine and `tracing:1` bounds the
// opt-in overhead (EXPERIMENTS.md tracks both). Raw begin/end span cost and
// the Chrome-JSON serialization are measured separately.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "observe/Trace.h"

#include <benchmark/benchmark.h>

using namespace jackee;
using namespace jackee::datalog;

namespace {

const char *TC_RULES = ".decl edge(a: symbol, b: symbol)\n"
                       ".decl path(a: symbol, b: symbol)\n"
                       "path(x, y) :- edge(x, y).\n"
                       "path(x, z) :- path(x, y), edge(y, z).\n";

/// Wide seeded random graph: many strata rounds with real work per span, so
/// the measured delta isolates the per-round instrumentation cost.
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

/// Transitive closure with tracing off vs on. Compare `tracing:0` here
/// against `BM_TCProvenance/recording:0` in micro_provenance (the same
/// workload) to confirm the no-tracer path is unchanged.
static void BM_TCTrace(benchmark::State &State) {
  const int64_t Nodes = State.range(0);
  const bool Tracing = State.range(1) != 0;
  uint64_t Spans = 0;
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules, TC_RULES, "bench");
    loadWideGraph(DB, Nodes);
    Evaluator Eval(DB, Rules);
    observe::Tracer Tracer;
    observe::MetricsRegistry Registry;
    if (Tracing) {
      Eval.setTracer(&Tracer);
      Eval.setMetricsRegistry(&Registry);
    }
    State.ResumeTiming();
    Eval.run();
    benchmark::DoNotOptimize(DB.relation(DB.find("path")).size());
    State.PauseTiming();
    Spans = Tracer.spanCount();
    State.ResumeTiming();
  }
  State.counters["spans"] = static_cast<double>(Spans);
}
BENCHMARK(BM_TCTrace)
    ->ArgsProduct({{256, 512}, {0, 1}})
    ->ArgNames({"nodes", "tracing"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Raw guard cost: one begin/end pair with two integer args, single
/// thread. The `enabled:0` row is the inert-guard path (pointer tests
/// only) that every untraced run pays at each instrumentation site.
static void BM_SpanGuard(benchmark::State &State) {
  const bool Enabled = State.range(0) != 0;
  observe::Tracer Tracer;
  observe::Tracer *T = Enabled ? &Tracer : nullptr;
  uint64_t I = 0;
  for (auto _ : State) {
    observe::Span S(T, "guard", "bench");
    S.arg("round", I++);
    S.arg("tuples", I);
    benchmark::DoNotOptimize(S.id());
  }
  State.counters["spans"] = static_cast<double>(Tracer.spanCount());
}
BENCHMARK(BM_SpanGuard)->Arg(0)->Arg(1)->ArgNames({"enabled"});

/// Chrome trace-event serialization of a populated tracer.
static void BM_ChromeExport(benchmark::State &State) {
  observe::Tracer Tracer;
  for (int64_t I = 0; I != State.range(0); ++I) {
    observe::Span S(&Tracer, "round", "datalog");
    S.arg("round", I);
    S.arg("kind", "delta");
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(observe::writeChromeTrace(Tracer).size());
  State.SetLabel(std::to_string(Tracer.spanCount()) + " spans");
}
BENCHMARK(BM_ChromeExport)->Arg(1024)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
