//===- perfbench.h - End-to-end benchmark: shared declarations --*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's main program (main.cpp) and the layer
/// replica (ledger.cpp). The replica rebuilds an analysis cell layer by
/// layer through each module's public functions and times every layer from
/// the outside; the program itself carries no benchmark instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_PERFBENCH_H
#define JACKEE_PERFBENCH_H

#include "core/Session.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One (application, analysis) cell of a workload.
struct CellSpec {
  jackee::synth::BenchApp App;
  jackee::core::AnalysisKind Kind;
};

std::string cellName(const CellSpec &C);

/// The result fields an optimization must not change: reachability, call
/// graph, precision and the Figure 5 attribution. Effort counters (work
/// items, rounds, tuples derived) are deliberately absent — a faster
/// solver may legitimately do different work.
struct Semantic {
  uint32_t AppConcrete = 0, AppReach = 0, ReachTotal = 0;
  uint64_t CgEdges = 0;
  uint32_t VCallSites = 0, PolyVCalls = 0, Casts = 0, MayFailCasts = 0;
  uint64_t VptTotal = 0, VptJavaUtil = 0;
  double ObjsPerVar = 0, ObjsPerAppVar = 0;
  uint32_t EntryPoints = 0, Beans = 0, Injections = 0;

  bool operator==(const Semantic &) const = default;
};

Semantic semanticOf(const jackee::core::Metrics &M);

/// Tab-separated reference row: `<key>\t<field>=<value>...`.
std::string referenceRow(const std::string &Key, const Semantic &S);

/// Per-cell layer ledger of one replica run. Times are seconds; the layer
/// spans are disjoint except `Eval`, which nests inside
/// `Wiring` (Datalog evaluation runs inside the bean-wiring plugin).
struct Ledger {
  double Wall = 0;      ///< clone through teardown, minus untimed reads
  double Clone = 0;     ///< SymbolTable::clone + Program::clone
  double Populate = 0;  ///< Application::Populate + Program::finalize
  double Register = 0;  ///< database + manager construction, rules, configs
  double Extract = 0;   ///< FrameworkManager::prepare
  double Wiring = 0;    ///< FrameworkManager::onFixpoint (all rounds)
  double Eval = 0;      ///< Datalog evaluation, from FrameworkManager::stats
  double Fixpoint = 0;  ///< solver construction + seeding + solve - wiring
  double MetricsT = 0;  ///< metrics collection over the fixpoint
  double TdPointsto = 0, TdDatalog = 0, TdIr = 0; ///< teardown, by layer

  uint64_t FactsTuples = 0, WiringRounds = 0, TuplesDerived = 0;
  uint64_t RelationBytes = 0, IndexBytes = 0;
  uint64_t WorkItems = 0, Edges = 0, Rounds = 0;
  uint64_t SetsTotal = 0, SetsDistinct = 0;
  double RssDeltaMb = 0; ///< resident-set growth across the solve

  double teardown() const { return TdPointsto + TdDatalog + TdIr; }
  double covered() const {
    return Clone + Populate + Register + Extract + Wiring + Fixpoint +
           MetricsT + teardown();
  }
  double unattributed() const { return Wall - covered(); }
};

/// Runs one cell layer by layer the way `AnalysisSession::openCell` does
/// (same options, same order of calls) on top of \p Base, the base
/// program of the cell's collection model from `snapshot::buildBase`.
/// Fills \p L and returns the cell's metrics. \p Provenance attaches a
/// provenance recorder, as `AnalysisSession::open` does.
jackee::core::Metrics runReplicaCell(const jackee::core::Application &App,
                                     jackee::core::AnalysisKind Kind,
                                     const jackee::snapshot::BaseProgram &Base,
                                     unsigned SolverThreads, bool Provenance,
                                     Ledger &L);

} // namespace perfbench

#endif // JACKEE_PERFBENCH_H
