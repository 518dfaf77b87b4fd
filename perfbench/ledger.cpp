//===- ledger.cpp - Layer-by-layer replica of one analysis cell -----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// `runReplicaCell` performs the calls `AnalysisSession::openCell` makes,
// in the same order and with the same options, and wraps each group of
// calls in a steady-clock span named after the module it enters. The
// traced run checks every replica cell against `AnalysisSession::run` on the
// same cell, so a change to the session's pipeline that the replica does
// not mirror fails the traced run instead of silently skewing the ledger.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "datalog/Database.h"

#include <cstdio>
#include <malloc.h>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace perfbench {

std::string cellName(const CellSpec &C) {
  return std::string(synth::profileFor(C.App).Name) + "/" +
         analysisName(C.Kind);
}

Semantic semanticOf(const Metrics &M) {
  Semantic S;
  S.AppConcrete = M.AppConcreteMethods;
  S.AppReach = M.AppReachableMethods;
  S.ReachTotal = M.ReachableMethodsTotal;
  S.CgEdges = M.CallGraphEdges;
  S.VCallSites = M.AppVirtualCallSites;
  S.PolyVCalls = M.AppPolyVCalls;
  S.Casts = M.AppCasts;
  S.MayFailCasts = M.AppMayFailCasts;
  S.VptTotal = M.VptTuplesTotal;
  S.VptJavaUtil = M.VptTuplesJavaUtil;
  S.ObjsPerVar = M.AvgObjsPerVar;
  S.ObjsPerAppVar = M.AvgObjsPerAppVar;
  S.EntryPoints = M.EntryPointsExercised;
  S.Beans = M.BeansCreated;
  S.Injections = M.InjectionsApplied;
  return S;
}

std::string referenceRow(const std::string &Key, const Semantic &S) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "%s\tapp_concrete=%u\tapp_reach=%u\treach_total=%u\tcg_edges=%llu"
      "\tvcall_sites=%u\tpoly_vcalls=%u\tcasts=%u\tmayfail_casts=%u"
      "\tvpt_total=%llu\tvpt_java_util=%llu\tobjs_per_var=%.9g"
      "\tobjs_per_app_var=%.9g\tentry_points=%u\tbeans=%u\tinjections=%u",
      Key.c_str(), S.AppConcrete, S.AppReach, S.ReachTotal,
      static_cast<unsigned long long>(S.CgEdges), S.VCallSites, S.PolyVCalls,
      S.Casts, S.MayFailCasts, static_cast<unsigned long long>(S.VptTotal),
      static_cast<unsigned long long>(S.VptJavaUtil), S.ObjsPerVar,
      S.ObjsPerAppVar, S.EntryPoints, S.Beans, S.Injections);
  return Buf;
}

namespace {

/// Current resident-set size in bytes (0 when /proc is unavailable).
uint64_t currentRssBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int Read = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (Read != 2)
    return 0;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Times `FrameworkManager::onFixpoint` — the bean-wiring layer — from
/// outside the manager, installed in the manager's place.
class TimedWiring : public Plugin {
public:
  explicit TimedWiring(frameworks::FrameworkManager &FM) : FM(FM) {}

  bool onFixpoint(Solver &S) override {
    Clock::time_point Start = Clock::now();
    bool Changed = FM.onFixpoint(S);
    Seconds += secondsSince(Start);
    ++Rounds;
    return Changed;
  }

  double Seconds = 0;
  uint64_t Rounds = 0;

private:
  frameworks::FrameworkManager &FM;
};

/// The metric collection `AnalysisCell::finishMetrics` performs over a
/// fixpoint, through the same public `Solver` and `Program` queries.
void collectMetrics(Metrics &M, const Program &P, const Solver &S) {
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    MethodId Method(MI);
    if (!P.isAppConcreteMethod(Method))
      continue;
    ++M.AppConcreteMethods;
    if (S.isMethodReachable(Method))
      ++M.AppReachableMethods;
  }
  M.ReachableMethodsTotal =
      static_cast<uint32_t>(S.reachableMethods().size());

  M.AvgObjsPerVar = S.averageVarPointsTo(/*AppOnly=*/false);
  M.AvgObjsPerAppVar = S.averageVarPointsTo(/*AppOnly=*/true);
  M.CallGraphEdges = S.callGraphEdges().size();

  std::unordered_map<uint32_t, uint32_t> TargetsPerInvoke;
  for (uint64_t Edge : S.callGraphEdges())
    ++TargetsPerInvoke[static_cast<uint32_t>(Edge >> 32)];
  std::unordered_set<uint32_t> AppVirtualInvokes;
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    const Method &Meth = P.method(MethodId(MI));
    const Type &Decl = P.type(Meth.DeclaringType);
    if (Meth.IsRetracted || Decl.IsRetracted || !Decl.IsApplication)
      continue;
    for (const Statement &Stmt : Meth.Statements) {
      if (Stmt.Op == Opcode::VirtualCall) {
        ++M.AppVirtualCallSites;
        AppVirtualInvokes.insert(Stmt.Invoke.index());
      } else if (Stmt.Op == Opcode::Cast) {
        ++M.AppCasts;
      }
    }
  }
  for (const auto &[Invoke, Count] : TargetsPerInvoke)
    if (Count >= 2 && AppVirtualInvokes.count(Invoke))
      ++M.AppPolyVCalls;

  for (const Solver::CastRecord &Rec : S.castRecords()) {
    if (!Rec.InApplication)
      continue;
    bool MayFail = false;
    for (NodeId N : Rec.SourceNodes) {
      for (uint32_t Raw : S.pointsTo(N))
        if (!P.isSubtype(S.valueType(ValueId(Raw)), Rec.TargetType)) {
          MayFail = true;
          break;
        }
      if (MayFail)
        break;
    }
    if (MayFail)
      ++M.AppMayFailCasts;
  }

  M.VptTuplesTotal = S.varPointsToTuplesTotal();
  M.VptTuplesJavaUtil = S.varPointsToTuples("java.util");
  M.SolverWorkItems = S.stats().WorkItems;
  M.SolverEdges = S.stats().EdgesAdded;
  M.SolverRounds = S.stats().Rounds;
}

} // namespace

Metrics runReplicaCell(const Application &App, AnalysisKind Kind,
                       const snapshot::BaseProgram &Base,
                       unsigned SolverThreads, bool Provenance, Ledger &L) {
  Metrics M;
  M.App = App.Name;
  M.Analysis = analysisName(Kind);
  double Untimed = 0; // reads made for the ledger, excluded from the wall
  Clock::time_point CellStart = Clock::now();
  Clock::time_point T = CellStart;
  auto lap = [&T](double &Slot) {
    Clock::time_point Now = Clock::now();
    Slot += std::chrono::duration<double>(Now - T).count();
    T = Now;
  };
  auto untimed = [&](auto &&Read) {
    Clock::time_point Start = Clock::now();
    Read();
    T = Clock::now();
    Untimed += std::chrono::duration<double>(T - Start).count();
  };

  // snapshot: deep-copy the base program.
  std::unique_ptr<SymbolTable> Symbols = Base.Symbols->clone();
  std::unique_ptr<Program> Prog = Base.Base->clone(*Symbols);
  javalib::JavaLib Lib = Base.Lib;
  frameworks::FrameworkLib Fw = Base.Frameworks;
  lap(L.Clone);

  // synth: the application's classes.
  Program &P = *Prog;
  std::vector<std::pair<std::string, std::string>> Configs =
      App.Populate(P, Lib, Fw);
  lap(L.Populate);

  // frameworks: database, manager, rules and configuration files.
  observe::MetricsRegistry Registry;
  auto DB = std::make_unique<datalog::Database>(P.symbols());
  auto FM = std::make_unique<frameworks::FrameworkManager>(
      P, *DB, frameworks::MockPolicyOptions{}, /*DatalogThreads=*/1,
      datalog::PlanMode::Auto);
  FM->setMetricsRegistry(&Registry);
  FM->setBaseFacts(&Base.Facts);
  std::unique_ptr<provenance::ProvenanceRecorder> Recorder;
  if (Provenance) {
    Recorder =
        std::make_unique<provenance::ProvenanceRecorder>(*DB, FM->rules());
    FM->setProvenance(Recorder.get());
  }
  if (usesBaselineRulesOnly(Kind))
    FM->addServletBaselineOnly();
  else
    FM->addDefaultFrameworks();
  for (const auto &[Name, Text] : App.ExtraRules)
    if (std::string Err = FM->addRules(Name, Text); !Err.empty())
      std::fprintf(stderr, "replica: %s: %s\n", App.Name.c_str(), Err.c_str());
  for (const auto &[Name, Text] : Configs)
    if (std::string Err = FM->addConfigXml(Name, Text); !Err.empty())
      std::fprintf(stderr, "replica: %s/%s: %s\n", App.Name.c_str(),
                   Name.c_str(), Err.c_str());
  lap(L.Register);

  P.finalize();
  lap(L.Populate);

  // facts: extraction.
  if (std::string Err = FM->prepare(); !Err.empty())
    std::fprintf(stderr, "replica: %s: %s\n", App.Name.c_str(), Err.c_str());
  lap(L.Extract);
  uint64_t RssBefore = 0;
  untimed([&] {
    for (size_t I = 0; I != DB->relationCount(); ++I)
      L.FactsTuples +=
          DB->relation(datalog::RelationId(static_cast<uint32_t>(I))).size();
    // Hand freed heap back to the OS first, so the delta counts what the
    // solve holds, not what earlier cells left on the allocator's lists.
    malloc_trim(0);
    RssBefore = currentRssBytes();
  });

  // pointsto: the fixpoint, with bean wiring timed by the plugin wrapper.
  SolverConfig SC = solverConfig(Kind);
  SC.Threads = SolverThreads;
  auto S = std::make_unique<Solver>(P, SC);
  TimedWiring Wiring(*FM);
  S->setMetricsRegistry(&Registry);
  S->addPlugin(&Wiring);
  M.SolverThreads = S->config().Threads;
  if (!App.MainClass.empty()) {
    TypeId MainTy = P.findType(App.MainClass);
    MethodId Main =
        MainTy.isValid() ? P.findMethod(MainTy, "main", {}) : MethodId();
    if (Main.isValid())
      S->makeReachable(Main, S->contexts().empty());
  }
  S->solve();
  double SolveAndWiring = 0;
  lap(SolveAndWiring);
  L.Wiring += Wiring.Seconds;
  L.Fixpoint += SolveAndWiring - Wiring.Seconds;
  L.WiringRounds += Wiring.Rounds;
  untimed([&] {
    uint64_t RssAfter = currentRssBytes();
    L.RssDeltaMb +=
        (static_cast<double>(RssAfter) - static_cast<double>(RssBefore)) /
        (1024.0 * 1024.0);
  });

  // core: metrics collection, as AnalysisCell::finishMetrics does it.
  collectMetrics(M, P, *S);
  M.EntryPointsExercised = FM->stats().EntryPointsExercised;
  M.BeansCreated = FM->stats().BeansCreated;
  M.InjectionsApplied = FM->stats().InjectionsApplied;
  if (const datalog::Evaluator::Stats *ES = FM->evaluatorStats()) {
    M.DatalogThreads = ES->Threads;
    M.DatalogTuplesDerived = ES->TuplesDerived;
    M.DatalogStrata = ES->StratumCount;
  }
  uint64_t RelationBytes = DB->bytes(), IndexBytes = DB->indexBytes();
  Registry.set("db.relation_bytes", static_cast<double>(RelationBytes));
  Registry.set("db.index_bytes", static_cast<double>(IndexBytes));
  for (const observe::MetricsRegistry::Sample &Sample : Registry.snapshot())
    M.Observed.emplace_back(Sample.Name, Sample.Value);
  if (Recorder) {
    M.ProvenanceEnabled = true;
    M.ProvenanceTuplesRecorded = Recorder->stats().TuplesRecorded;
  }
  lap(L.MetricsT);

  untimed([&] {
    L.Eval += FM->stats().EvaluatorSeconds;
    L.TuplesDerived += M.DatalogTuplesDerived;
    L.RelationBytes += RelationBytes;
    L.IndexBytes += IndexBytes;
    L.WorkItems += S->stats().WorkItems;
    L.Edges += S->stats().EdgesAdded;
    L.Rounds += S->stats().Rounds;
    observe::ProfileCensus Census = S->censusPointsTo({});
    L.SetsTotal += Census.NonEmptySets;
    L.SetsDistinct += Census.DistinctSets;
  });

  // core: teardown, one layer at a time, in the cell's destruction order.
  S.reset();
  lap(L.TdPointsto);
  Recorder.reset();
  FM.reset();
  DB.reset();
  lap(L.TdDatalog);
  Prog.reset();
  Symbols.reset();
  lap(L.TdIr);

  L.Wall += secondsSince(CellStart) - Untimed;
  return M;
}

} // namespace perfbench
