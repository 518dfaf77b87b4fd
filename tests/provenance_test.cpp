//===- provenance_test.cpp - Derivation recording and explain() -----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The provenance subsystem's contract, exercised end to end: the recorder
// keeps exactly one canonical (rule, witnesses) derivation per derived
// tuple and none for base facts; epochs attribute base facts to their
// insertion phase; re-running an evaluator never rewrites frozen records;
// explain() materializes trees that bottom out only in base facts, respect
// depth/node caps, and surface `Rule::Origin` as the source annotation;
// the query parser accepts the `--explain` syntax and reports usable
// errors; and the session API captures enough cell state to answer
// explain() queries against a finished analysis.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "provenance/Explain.h"
#include "provenance/Provenance.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::datalog;
using namespace jackee::provenance;

namespace {

constexpr const char *TransitiveClosureRules =
    ".decl edge(a: symbol, b: symbol)\n"
    ".decl path(a: symbol, b: symbol)\n"
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n";

/// One self-contained evaluation with an attached recorder.
struct RecordedRun {
  SymbolTable Symbols;
  Database DB;
  RuleSet Rules;
  std::unique_ptr<Evaluator> Eval;
  ProvenanceRecorder Recorder;

  RecordedRun(const char *RuleText, const char *Origin,
              const std::function<void(Database &)> &LoadFacts,
              PlanMode Plan = PlanMode::Auto, const char *Epoch = "base")
      : DB(Symbols), Recorder(DB, Rules) {
    ParserResult PR = parseRules(DB, Rules, RuleText, Origin);
    EXPECT_TRUE(PR.Ok) << PR.Error;
    Recorder.beginEpoch(Epoch);
    LoadFacts(DB);
    Eval = std::make_unique<Evaluator>(DB, Rules, Plan);
    EXPECT_EQ(Eval->validate(), "");
    Eval->setObserver(&Recorder);
    Eval->run();
  }

  uint32_t rel(const char *Name) const { return DB.find(Name).index(); }
};

void loadChain(Database &DB, int N) {
  for (int I = 0; I + 1 < N; ++I)
    DB.insertFact("edge",
                  {"n" + std::to_string(I), "n" + std::to_string(I + 1)});
}

/// Counts the nodes of a derivation tree.
uint32_t treeSize(const DerivationNode &N) {
  uint32_t Count = 1;
  for (const DerivationNode &C : N.Children)
    Count += treeSize(C);
  return Count;
}

/// True if some node in the tree satisfies \p Pred.
bool anyNode(const DerivationNode &N,
             const std::function<bool(const DerivationNode &)> &Pred) {
  if (Pred(N))
    return true;
  for (const DerivationNode &C : N.Children)
    if (anyNode(C, Pred))
      return true;
  return false;
}

/// Checks that every leaf of a complete (untruncated) tree is a base fact.
void expectBottomsOutInBaseFacts(const DerivationNode &N) {
  EXPECT_FALSE(N.Cyclic) << N.Atom;
  EXPECT_FALSE(N.Truncated) << N.Atom;
  if (N.Children.empty()) {
    EXPECT_TRUE(N.IsBase) << "leaf is not a base fact: " << N.Atom;
  } else {
    EXPECT_FALSE(N.IsBase) << N.Atom;
    for (const DerivationNode &C : N.Children)
      expectBottomsOutInBaseFacts(C);
  }
}

uint32_t maxDepth(const DerivationNode &N) {
  uint32_t Deepest = 0;
  for (const DerivationNode &C : N.Children)
    Deepest = std::max(Deepest, maxDepth(C) + 1);
  return Deepest;
}

TEST(Recorder, BaseFactsHaveNoDerivationDerivedTuplesHaveOne) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 5); });

  const Relation &Edge = R.DB.relation(R.DB.find("edge"));
  const Relation &Path = R.DB.relation(R.DB.find("path"));
  for (uint32_t T = 0; T != Edge.size(); ++T)
    EXPECT_EQ(R.Recorder.derivationOf(R.rel("edge"), T), nullptr);
  for (uint32_t T = 0; T != Path.size(); ++T)
    ASSERT_NE(R.Recorder.derivationOf(R.rel("path"), T), nullptr)
        << "path tuple " << T << " has no derivation";

  EXPECT_EQ(R.Recorder.stats().TuplesRecorded, Path.size());
  EXPECT_GE(R.Recorder.stats().CandidatesSeen,
            R.Recorder.stats().TuplesRecorded);
}

TEST(Recorder, WitnessRefsAreBodyOrderAndCompose) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 6); });
  const Relation &Path = R.DB.relation(R.DB.find("path"));
  const Relation &Edge = R.DB.relation(R.DB.find("edge"));

  bool SawRecursive = false;
  for (uint32_t T = 0; T != Path.size(); ++T) {
    const ProvenanceRecorder::Record *Rec =
        R.Recorder.derivationOf(R.rel("path"), T);
    ASSERT_NE(Rec, nullptr);
    std::span<const uint32_t> Refs = R.Recorder.refs(*Rec);
    if (Rec->RuleIdx == 0) {
      // path(x, y) :- edge(x, y): one witness, same columns.
      ASSERT_EQ(Refs.size(), 1u);
      ASSERT_LT(Refs[0], Edge.size());
      EXPECT_EQ(Edge.tuple(Refs[0])[0], Path.tuple(T)[0]);
      EXPECT_EQ(Edge.tuple(Refs[0])[1], Path.tuple(T)[1]);
    } else {
      // path(x, z) :- path(x, y), edge(y, z): witnesses in body order.
      SawRecursive = true;
      ASSERT_EQ(Rec->RuleIdx, 1u);
      ASSERT_EQ(Refs.size(), 2u);
      ASSERT_LT(Refs[0], Path.size());
      ASSERT_LT(Refs[1], Edge.size());
      EXPECT_LT(Refs[0], T) << "witness must predate the derived tuple";
      EXPECT_EQ(Path.tuple(Refs[0])[0], Path.tuple(T)[0]); // x
      EXPECT_EQ(Path.tuple(Refs[0])[1], Edge.tuple(Refs[1])[0]); // y
      EXPECT_EQ(Edge.tuple(Refs[1])[1], Path.tuple(T)[1]); // z
    }
  }
  EXPECT_TRUE(SawRecursive);
}

TEST(Recorder, CanonicalDerivationIsLeastRuleThenLeastRefs) {
  // Both rules derive out("v") in the same round; the canonical record must
  // be the lexicographically least candidate — rule 0 — under either plan
  // mode, regardless of evaluation order.
  const char *Rules = ".decl a(x: symbol)\n"
                      ".decl b(x: symbol)\n"
                      ".decl out(x: symbol)\n"
                      "out(x) :- a(x).\n"
                      "out(x) :- b(x).\n";
  for (PlanMode Plan : {PlanMode::Textual, PlanMode::Greedy}) {
    RecordedRun R(Rules, "test.dl",
                  [](Database &DB) {
                    DB.insertFact("a", {"v"});
                    DB.insertFact("b", {"v"});
                  },
                  Plan);
    const Relation &Out = R.DB.relation(R.DB.find("out"));
    ASSERT_EQ(Out.size(), 1u);
    const ProvenanceRecorder::Record *Rec =
        R.Recorder.derivationOf(R.rel("out"), 0);
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(Rec->RuleIdx, 0u) << "plan " << planModeName(Plan);
    EXPECT_EQ(R.Recorder.stats().CandidatesSeen, 2u);
    EXPECT_EQ(R.Recorder.stats().TuplesRecorded, 1u);
  }

  // Same rule, two witnesses: the scan meets a("v", "late") first, but
  // a("v", "early") orders first by contents ("early" is interned first),
  // so the later candidate must replace the earlier one.
  RecordedRun Same(".decl a(x: symbol, y: symbol)\n"
                   ".decl seen(y: symbol)\n"
                   ".decl out(x: symbol)\n"
                   "out(x) :- a(x, _y).\n",
                   "test.dl", [](Database &DB) {
                     DB.insertFact("seen", {"early"});
                     DB.insertFact("a", {"v", "late"});
                     DB.insertFact("a", {"v", "early"});
                   });
  const ProvenanceRecorder::Record *Rec =
      Same.Recorder.derivationOf(Same.rel("out"), 0);
  ASSERT_NE(Rec, nullptr);
  std::span<const uint32_t> Refs = Same.Recorder.refs(*Rec);
  ASSERT_EQ(Refs.size(), 1u);
  const Relation &A = Same.DB.relation(Same.DB.find("a"));
  EXPECT_EQ(Same.Symbols.text(A.tuple(Refs[0])[1]), "early");
  EXPECT_EQ(Same.Recorder.stats().CandidatesSeen, 2u);
  EXPECT_EQ(Same.Recorder.stats().CandidatesReplaced, 1u);
}

TEST(Recorder, EpochWatermarksAttributeBaseFacts) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ASSERT_TRUE(parseRules(DB, Rules, TransitiveClosureRules, "test.dl").Ok);
  ProvenanceRecorder Recorder(DB, Rules);

  DB.insertFact("edge", {"pre0", "pre1"}); // before any epoch
  Recorder.beginEpoch("extraction");
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  Recorder.beginEpoch("bean-wiring round 1");
  DB.insertFact("edge", {"c", "d"});

  uint32_t EdgeRel = DB.find("edge").index();
  EXPECT_EQ(Recorder.epochOf(EdgeRel, 0), "unknown");
  EXPECT_EQ(Recorder.epochOf(EdgeRel, 1), "extraction");
  EXPECT_EQ(Recorder.epochOf(EdgeRel, 2), "extraction");
  EXPECT_EQ(Recorder.epochOf(EdgeRel, 3), "bean-wiring round 1");
  EXPECT_EQ(Recorder.epochCount(), 2u);
}

TEST(Recorder, RerunFreezesExistingRecords) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 4); });
  uint32_t PathRel = R.rel("path");
  uint32_t FirstRunPaths = R.DB.relation(R.DB.find("path")).size();
  ASSERT_EQ(R.Recorder.stats().TuplesRecorded, FirstRunPaths);

  // Snapshot every record of the first run.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> Before;
  for (uint32_t T = 0; T != FirstRunPaths; ++T) {
    const ProvenanceRecorder::Record *Rec = R.Recorder.derivationOf(PathRel, T);
    std::span<const uint32_t> Refs = R.Recorder.refs(*Rec);
    Before.emplace_back(Rec->RuleIdx,
                        std::vector<uint32_t>(Refs.begin(), Refs.end()));
  }

  // The bean-wiring pattern: facts arrive between runs, evaluator re-runs.
  R.Recorder.beginEpoch("round 2");
  R.DB.insertFact("edge", {"n3", "n4"});
  R.Eval->run();

  uint32_t SecondRunPaths = R.DB.relation(R.DB.find("path")).size();
  EXPECT_GT(SecondRunPaths, FirstRunPaths);
  // Old records are frozen bit for bit; new tuples got records.
  for (uint32_t T = 0; T != FirstRunPaths; ++T) {
    const ProvenanceRecorder::Record *Rec = R.Recorder.derivationOf(PathRel, T);
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(Rec->RuleIdx, Before[T].first);
    std::span<const uint32_t> Refs = R.Recorder.refs(*Rec);
    EXPECT_EQ(std::vector<uint32_t>(Refs.begin(), Refs.end()),
              Before[T].second);
  }
  for (uint32_t T = FirstRunPaths; T != SecondRunPaths; ++T)
    EXPECT_NE(R.Recorder.derivationOf(PathRel, T), nullptr);
  EXPECT_EQ(R.Recorder.stats().TuplesRecorded, SecondRunPaths);
}

TEST(Explain, TreeBottomsOutInBaseFactsWithOrigins) {
  RecordedRun R(TransitiveClosureRules, "myframework.dl",
                [](Database &DB) { loadChain(DB, 4); },
                PlanMode::Auto, /*Epoch=*/"extraction");
  Explainer Ex(R.DB, R.Rules, R.Recorder);

  std::string Error;
  std::vector<DerivationNode> Trees =
      Ex.explainQuery("path(\"n0\", \"n3\")", Error);
  EXPECT_EQ(Error, "");
  ASSERT_EQ(Trees.size(), 1u);
  const DerivationNode &Root = Trees[0];
  EXPECT_EQ(Root.Atom, "path(\"n0\", \"n3\")");
  EXPECT_FALSE(Root.IsBase);
  expectBottomsOutInBaseFacts(Root);

  // Satellite 1: Rule::Origin (file:line from the parser) is the source of
  // every derived node; base facts carry their epoch label instead.
  std::function<void(const DerivationNode &)> CheckSources =
      [&](const DerivationNode &N) {
        if (N.IsBase)
          EXPECT_EQ(N.Source, "extraction") << N.Atom;
        else
          EXPECT_EQ(N.Source.rfind("myframework.dl:", 0), 0u)
              << N.Atom << " source: " << N.Source;
        for (const DerivationNode &C : N.Children)
          CheckSources(C);
      };
  CheckSources(Root);
}

TEST(Explain, DepthCapSetsTruncated) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 40); });
  ExplainOptions Opts;
  Opts.MaxDepth = 3;
  Explainer Ex(R.DB, R.Rules, R.Recorder, Opts);

  const Relation &Path = R.DB.relation(R.DB.find("path"));
  // The last tuple of the longest chain needs far more than 3 levels.
  DerivationNode Tree = Ex.explain(R.DB.find("path"), Path.size() - 1);
  EXPECT_LE(maxDepth(Tree), 3u);
  EXPECT_TRUE(anyNode(Tree, [](const DerivationNode &N) {
    return N.Truncated;
  }));
}

TEST(Explain, NodeBudgetCapsTreeSize) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 40); });
  ExplainOptions Opts;
  Opts.MaxNodes = 5;
  Explainer Ex(R.DB, R.Rules, R.Recorder, Opts);

  const Relation &Path = R.DB.relation(R.DB.find("path"));
  DerivationNode Tree = Ex.explain(R.DB.find("path"), Path.size() - 1);
  // The budget counts expanded children; the root rides for free.
  EXPECT_LE(treeSize(Tree), Opts.MaxNodes + 1);
  EXPECT_TRUE(anyNode(Tree, [](const DerivationNode &N) {
    return N.Truncated;
  }));
}

TEST(Explain, QueryWildcardsAndConstantsFilter) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 4); });
  Explainer Ex(R.DB, R.Rules, R.Recorder);
  std::string Error;

  // Bare relation name and all-wildcard args both match every tuple.
  uint32_t PathCount = R.DB.relation(R.DB.find("path")).size();
  EXPECT_EQ(Ex.explainQuery("path", Error).size(), PathCount);
  EXPECT_EQ(Error, "");
  EXPECT_EQ(Ex.explainQuery("path(_, _)", Error).size(), PathCount);
  EXPECT_EQ(Error, "");

  // A bound first column keeps only n0's successors: n1, n2, n3.
  EXPECT_EQ(Ex.explainQuery("path(\"n0\", _)", Error).size(), 3u);
  EXPECT_EQ(Error, "");

  // A constant never interned matches nothing — and is not an error.
  EXPECT_TRUE(Ex.explainQuery("path(\"ghost\", _)", Error).empty());
  EXPECT_EQ(Error, "");
}

TEST(Explain, QueryErrorsAreDiagnosed) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 3); });
  Explainer Ex(R.DB, R.Rules, R.Recorder);
  std::string Error;

  EXPECT_TRUE(Ex.explainQuery("", Error).empty());
  EXPECT_NE(Error.find("expected a relation name"), std::string::npos);

  EXPECT_TRUE(Ex.explainQuery("NoSuchRel(_)", Error).empty());
  EXPECT_NE(Error.find("unknown relation"), std::string::npos);

  EXPECT_TRUE(Ex.explainQuery("path(\"n0\")", Error).empty());
  EXPECT_FALSE(Error.empty()) << "arity mismatch must be diagnosed";

  EXPECT_TRUE(Ex.explainQuery("path \"n0\"", Error).empty());
  EXPECT_FALSE(Error.empty());
}

TEST(Explain, RenderersProduceAnnotatedOutput) {
  RecordedRun R(TransitiveClosureRules, "test.dl",
                [](Database &DB) { loadChain(DB, 3); });
  Explainer Ex(R.DB, R.Rules, R.Recorder);
  std::string Error;
  std::vector<DerivationNode> Trees =
      Ex.explainQuery("path(\"n0\", \"n2\")", Error);
  ASSERT_EQ(Trees.size(), 1u);

  std::string Text = Explainer::renderText(Trees[0]);
  EXPECT_NE(Text.find("path(\"n0\", \"n2\")"), std::string::npos);
  EXPECT_NE(Text.find("[rule: test.dl:"), std::string::npos);
  EXPECT_NE(Text.find("[base fact: epoch \"base\"]"), std::string::npos);
  EXPECT_NE(Text.find("\n  "), std::string::npos) << "children are indented";

  std::string Json = Explainer::renderJson(Trees[0]);
  EXPECT_NE(Json.find("\"kind\": \"rule\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"base\""), std::string::npos);
  EXPECT_NE(Json.find("\"children\": ["), std::string::npos);
  EXPECT_NE(Json.find("\\\"n0\\\""), std::string::npos)
      << "atom quotes must be JSON-escaped";
}

TEST(GlueTrail, EventsKeepOrderRoundsAndKindNames) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ProvenanceRecorder Recorder(DB, Rules);
  using Kind = ProvenanceRecorder::GlueEvent::Kind;

  Recorder.recordGlue(Kind::BeanObjectCreated, "shop.Repo", "bean definition",
                      1);
  Recorder.recordGlue(Kind::FieldInjection, "F#3", "bean into field", 1);
  Recorder.recordGlue(Kind::EntryPointExercised, "M#7", "Servlet.doPost", 2);

  ASSERT_EQ(Recorder.glueEvents().size(), 3u);
  EXPECT_EQ(Recorder.glueEvents()[0].Subject, "shop.Repo");
  EXPECT_EQ(Recorder.glueEvents()[1].Round, 1u);
  EXPECT_EQ(Recorder.glueEvents()[2].EventKind, Kind::EntryPointExercised);

  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::EntryPointExercised),
               "entry-point-exercised");
  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::MockObjectCreated),
               "mock-object-created");
  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::BeanObjectCreated),
               "bean-object-created");
  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::FieldInjection),
               "field-injection");
  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::MethodInjection),
               "method-injection");
  EXPECT_STREQ(ProvenanceRecorder::glueKindName(Kind::GetBeanResolved),
               "get-bean-resolved");
}

TEST(RuleListing, ReportShowsIndexOriginAndNegation) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  const char *Text = ".decl Bean(c: symbol)\n"
                     ".decl Wired(a: symbol, b: symbol)\n"
                     ".decl Unwired(c: symbol)\n"
                     "Unwired(c) :- Bean(c), !Wired(c, c).\n";
  ASSERT_TRUE(parseRules(DB, Rules, Text, "wiring.dl").Ok);

  std::string Report = core::ruleSetReport(DB, Rules);
  EXPECT_NE(Report.find("#0"), std::string::npos);
  EXPECT_NE(Report.find("wiring.dl:4"), std::string::npos)
      << "Rule::Origin must appear in the listing:\n" << Report;
  EXPECT_NE(Report.find("Unwired(V0) :- Bean(V0), !Wired(V0, V0)."),
            std::string::npos)
      << Report;
}

TEST(SessionCapture, ExplainsEntryPointsOfFinishedAnalysis) {
  core::AnalysisSession Session;
  core::CellResult Cell =
      Session.open(synth::petstoreApp(), core::AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  const core::Metrics &Result = Cell->metrics();

  EXPECT_TRUE(Result.ProvenanceEnabled);
  EXPECT_GT(Result.ProvenanceTuplesRecorded, 0u);
  EXPECT_GT(Result.ProvenanceGlueEvents, 0u);
  EXPECT_EQ(Result.ProvenanceTuplesRecorded,
            Cell->recorder().stats().TuplesRecorded);

  // The ISSUE acceptance query: an ExercisedEntryPoint tuple of the pet
  // store explains down to base facts only.
  std::string Error;
  std::vector<DerivationNode> Trees =
      Cell->explain("ExercisedEntryPoint", Error);
  EXPECT_EQ(Error, "");
  ASSERT_FALSE(Trees.empty());
  for (const DerivationNode &Tree : Trees)
    expectBottomsOutInBaseFacts(Tree);

  // The cell's explain path must match a hand-built Explainer over the
  // cell's own state byte for byte (the old capture-overload workflow).
  Explainer Ex(Cell->database(), Cell->rules(), Cell->recorder());
  std::string ManualError;
  std::vector<DerivationNode> Manual =
      Ex.explainQuery("ExercisedEntryPoint", ManualError);
  ASSERT_EQ(Manual.size(), Trees.size());
  for (size_t I = 0; I != Trees.size(); ++I)
    EXPECT_EQ(Explainer::renderText(Manual[I]),
              Explainer::renderText(Trees[I]));

  // The servlet's doPost is among the exercised entry points, and the glue
  // trail saw it get exercised.
  bool SawDoPost = false;
  for (const ProvenanceRecorder::GlueEvent &E : Cell->recorder().glueEvents())
    if (E.EventKind ==
            ProvenanceRecorder::GlueEvent::Kind::EntryPointExercised &&
        E.Detail.find("doPost") != std::string::npos)
      SawDoPost = true;
  EXPECT_TRUE(SawDoPost);
}

TEST(SessionCapture, RecordingStaysOffByDefault) {
  ASSERT_EQ(unsetenv("JACKEE_PROVENANCE"), 0);
  core::AnalysisSession Session;
  core::AnalysisResult Result =
      Session.run(synth::petstoreApp(), core::AnalysisKind::CI);
  ASSERT_TRUE(Result.ok()) << Result.error().Message;
  EXPECT_FALSE(Result->ProvenanceEnabled);
  EXPECT_EQ(Result->ProvenanceTuplesRecorded, 0u);
  EXPECT_EQ(Result->ProvenanceCandidatesSeen, 0u);
  EXPECT_EQ(Result->ProvenanceGlueEvents, 0u);
}

TEST(SessionCapture, EnvVarEnablesRecordingWithoutCapture) {
  ASSERT_EQ(setenv("JACKEE_PROVENANCE", "1", /*overwrite=*/1), 0);
  core::AnalysisSession Session;
  core::AnalysisResult Result =
      Session.run(synth::petstoreApp(), core::AnalysisKind::CI);
  ASSERT_EQ(unsetenv("JACKEE_PROVENANCE"), 0);
  ASSERT_TRUE(Result.ok()) << Result.error().Message;
  EXPECT_TRUE(Result->ProvenanceEnabled);
  EXPECT_GT(Result->ProvenanceTuplesRecorded, 0u);
}

} // namespace
