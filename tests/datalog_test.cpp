//===- datalog_test.cpp - Unit tests for the Datalog engine ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "datalog/Rule.h"
#include "provenance/Explain.h"
#include "provenance/Provenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::datalog;

namespace {

class DatalogTest : public ::testing::Test {
protected:
  DatalogTest() : DB(Symbols) {}

  Symbol sym(std::string_view Text) { return Symbols.intern(Text); }

  /// Builds `Head(headTerms) :- body...` with variables named by index.
  Rule makeRule(RelationId Head, std::vector<Term> HeadTerms,
                std::vector<Atom> Body, uint32_t VarCount,
                std::vector<Constraint> Constraints = {}) {
    Rule R;
    R.Head = {Head, std::move(HeadTerms), false};
    R.Body = std::move(Body);
    R.Constraints = std::move(Constraints);
    R.VariableCount = VarCount;
    R.Origin = "test";
    return R;
  }

  SymbolTable Symbols;
  Database DB;
  RuleSet Rules;
};

TEST_F(DatalogTest, RelationInsertAndDedup) {
  RelationId R = DB.declare("edge", 2);
  EXPECT_TRUE(DB.insertFact("edge", {"a", "b"}));
  EXPECT_FALSE(DB.insertFact("edge", {"a", "b"}));
  EXPECT_TRUE(DB.insertFact("edge", {"b", "a"}));
  EXPECT_EQ(DB.relation(R).size(), 2u);
  EXPECT_TRUE(DB.containsFact("edge", {"a", "b"}));
  EXPECT_FALSE(DB.containsFact("edge", {"a", "c"}));
}

TEST_F(DatalogTest, DeclareIsIdempotent) {
  RelationId A = DB.declare("r", 2);
  RelationId B = DB.declare("r", 2);
  EXPECT_EQ(A, B);
}

TEST_F(DatalogTest, IndexLookupFindsMatchingTuples) {
  RelationId R = DB.declare("edge", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"a", "c"});
  DB.insertFact("edge", {"b", "c"});

  std::vector<uint32_t> Cols{0};
  std::vector<Symbol> Key{sym("a")};
  const auto &Postings = DB.relation(R).lookup(Cols, Key);
  // Postings are hash-keyed; all true matches must be present.
  int Matches = 0;
  for (uint32_t Idx : Postings)
    if (DB.relation(R).tuple(Idx)[0] == sym("a"))
      ++Matches;
  EXPECT_EQ(Matches, 2);
}

TEST_F(DatalogTest, IndexStaysCurrentAfterInsert) {
  RelationId R = DB.declare("edge", 2);
  DB.insertFact("edge", {"a", "b"});
  std::vector<uint32_t> Cols{0};
  std::vector<Symbol> Key{sym("a")};
  (void)DB.relation(R).lookup(Cols, Key); // build index
  DB.insertFact("edge", {"a", "z"});
  const auto &Postings = DB.relation(R).lookup(Cols, Key);
  int Matches = 0;
  for (uint32_t Idx : Postings)
    if (DB.relation(R).tuple(Idx)[0] == sym("a"))
      ++Matches;
  EXPECT_EQ(Matches, 2);
}

TEST_F(DatalogTest, SimpleJoin) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId TwoHop = DB.declare("twohop", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  DB.insertFact("edge", {"c", "d"});

  // twohop(x, z) :- edge(x, y), edge(y, z).
  Rule R = makeRule(
      TwoHop, {Term::variable(0), Term::variable(2)},
      {{Edge, {Term::variable(0), Term::variable(1)}, false},
       {Edge, {Term::variable(1), Term::variable(2)}, false}},
      3);
  ASSERT_EQ(Rules.add(DB, R), "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();

  EXPECT_EQ(DB.relation(TwoHop).size(), 2u);
  EXPECT_TRUE(DB.containsFact("twohop", {"a", "c"}));
  EXPECT_TRUE(DB.containsFact("twohop", {"b", "d"}));
}

TEST_F(DatalogTest, TransitiveClosure) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  for (auto [A, B] : std::vector<std::pair<const char *, const char *>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}})
    DB.insertFact("edge", {A, B});

  // path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
  ASSERT_EQ(Rules.add(DB, makeRule(Path,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Path, {Term::variable(0), Term::variable(2)},
                             {{Path, {Term::variable(0), Term::variable(1)},
                               false},
                              {Edge, {Term::variable(1), Term::variable(2)},
                               false}},
                             3)),
      "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();

  // 4+3+2+1 = 10 pairs.
  EXPECT_EQ(DB.relation(Path).size(), 10u);
  EXPECT_TRUE(DB.containsFact("path", {"a", "e"}));
  EXPECT_FALSE(DB.containsFact("path", {"e", "a"}));
}

TEST_F(DatalogTest, ConstantInBodyFilters) {
  RelationId In = DB.declare("in", 2);
  RelationId Out = DB.declare("out", 1);
  DB.insertFact("in", {"x", "keep"});
  DB.insertFact("in", {"y", "drop"});

  // out(a) :- in(a, "keep").
  ASSERT_EQ(Rules.add(DB, makeRule(Out, {Term::variable(0)},
                                   {{In,
                                     {Term::variable(0),
                                      Term::constant(sym("keep"))},
                                     false}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Out).size(), 1u);
  EXPECT_TRUE(DB.containsFact("out", {"x"}));
}

TEST_F(DatalogTest, ConstantInHead) {
  RelationId In = DB.declare("in", 1);
  RelationId Out = DB.declare("out", 2);
  DB.insertFact("in", {"a"});

  // out(x, "tag") :- in(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Out,
                                   {Term::variable(0),
                                    Term::constant(sym("tag"))},
                                   {{In, {Term::variable(0)}, false}}, 1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("out", {"a", "tag"}));
}

TEST_F(DatalogTest, RepeatedVariableInAtom) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId SelfLoop = DB.declare("selfloop", 1);
  DB.insertFact("edge", {"a", "a"});
  DB.insertFact("edge", {"a", "b"});

  // selfloop(x) :- edge(x, x).
  ASSERT_EQ(Rules.add(DB, makeRule(SelfLoop, {Term::variable(0)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(0)},
                                     false}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(SelfLoop).size(), 1u);
  EXPECT_TRUE(DB.containsFact("selfloop", {"a"}));
}

TEST_F(DatalogTest, StratifiedNegation) {
  RelationId Node = DB.declare("node", 1);
  RelationId HasEdge = DB.declare("hasedge", 1);
  RelationId Isolated = DB.declare("isolated", 1);
  DB.insertFact("node", {"a"});
  DB.insertFact("node", {"b"});
  DB.insertFact("hasedge", {"a"});

  // isolated(x) :- node(x), !hasedge(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Isolated, {Term::variable(0)},
                                   {{Node, {Term::variable(0)}, false},
                                    {HasEdge, {Term::variable(0)}, true}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();
  EXPECT_EQ(DB.relation(Isolated).size(), 1u);
  EXPECT_TRUE(DB.containsFact("isolated", {"b"}));
}

TEST_F(DatalogTest, NegationAcrossStrata) {
  // reach via edges; unreach = node but not reach. Negation of a recursive
  // predicate from a later stratum.
  RelationId Node = DB.declare("node", 1);
  RelationId Edge = DB.declare("edge", 2);
  RelationId Reach = DB.declare("reach", 1);
  RelationId Unreach = DB.declare("unreach", 1);
  for (const char *N : {"a", "b", "c", "d"})
    DB.insertFact("node", {N});
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  DB.insertFact("reach", {"a"});

  // reach(y) :- reach(x), edge(x, y).
  ASSERT_EQ(
      Rules.add(DB, makeRule(Reach, {Term::variable(1)},
                             {{Reach, {Term::variable(0)}, false},
                              {Edge, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  // unreach(x) :- node(x), !reach(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Unreach, {Term::variable(0)},
                                   {{Node, {Term::variable(0)}, false},
                                    {Reach, {Term::variable(0)}, true}},
                                   1)),
            "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();
  EXPECT_EQ(DB.relation(Unreach).size(), 1u);
  EXPECT_TRUE(DB.containsFact("unreach", {"d"}));
}

TEST_F(DatalogTest, UnstratifiableIsRejected) {
  RelationId P = DB.declare("p", 1);
  RelationId Q = DB.declare("q", 1);
  DB.insertFact("p", {"a"});

  // q(x) :- p(x), !q(x).  -- negation within its own SCC
  ASSERT_EQ(Rules.add(DB, makeRule(Q, {Term::variable(0)},
                                   {{P, {Term::variable(0)}, false},
                                    {Q, {Term::variable(0)}, true}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  EXPECT_NE(Eval.validate(), "");
}

TEST_F(DatalogTest, UnsafeRuleRejected) {
  RelationId P = DB.declare("p", 1);
  RelationId Q = DB.declare("q", 1);
  // q(x) :- p(y).  -- head variable not bound
  Rule R = makeRule(Q, {Term::variable(0)},
                    {{P, {Term::variable(1)}, false}}, 2);
  EXPECT_NE(Rules.add(DB, R), "");
}

TEST_F(DatalogTest, ArityMismatchRejected) {
  RelationId P = DB.declare("p", 2);
  RelationId Q = DB.declare("q", 1);
  Rule R = makeRule(Q, {Term::variable(0)},
                    {{P, {Term::variable(0)}, false}}, 1);
  EXPECT_NE(Rules.add(DB, R), "");
}

TEST_F(DatalogTest, NotEqualConstraint) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId NonLoop = DB.declare("nonloop", 2);
  DB.insertFact("edge", {"a", "a"});
  DB.insertFact("edge", {"a", "b"});

  Constraint C;
  C.CompareKind = Constraint::Kind::NotEqual;
  C.Lhs = Term::variable(0);
  C.Rhs = Term::variable(1);
  ASSERT_EQ(
      Rules.add(DB, makeRule(NonLoop, {Term::variable(0), Term::variable(1)},
                             {{Edge, {Term::variable(0), Term::variable(1)},
                               false}},
                             2, {C})),
      "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(NonLoop).size(), 1u);
  EXPECT_TRUE(DB.containsFact("nonloop", {"a", "b"}));
}

TEST_F(DatalogTest, RerunPicksUpNewFacts) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  DB.insertFact("edge", {"a", "b"});
  ASSERT_EQ(Rules.add(DB, makeRule(Path,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Path, {Term::variable(0), Term::variable(2)},
                             {{Path, {Term::variable(0), Term::variable(1)},
                               false},
                              {Edge, {Term::variable(1), Term::variable(2)},
                               false}},
                             3)),
      "");

  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(), 1u);

  // Inject a fact externally (as the bean-wiring plugin loop does) and
  // re-run: the new consequences must appear.
  DB.insertFact("edge", {"b", "c"});
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(), 3u);
  EXPECT_TRUE(DB.containsFact("path", {"a", "c"}));
}

TEST_F(DatalogTest, FactRule) {
  RelationId P = DB.declare("p", 2);
  ASSERT_EQ(Rules.add(DB, makeRule(P,
                                   {Term::constant(sym("a")),
                                    Term::constant(sym("b"))},
                                   {}, 0)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("p", {"a", "b"}));
}

TEST_F(DatalogTest, MutualRecursion) {
  // even/odd over a successor chain: tests multi-predicate SCC.
  RelationId Succ = DB.declare("succ", 2);
  RelationId Even = DB.declare("even", 1);
  RelationId Odd = DB.declare("odd", 1);
  for (auto [A, B] : std::vector<std::pair<const char *, const char *>>{
           {"0", "1"}, {"1", "2"}, {"2", "3"}, {"3", "4"}})
    DB.insertFact("succ", {A, B});
  DB.insertFact("even", {"0"});

  // odd(y) :- even(x), succ(x, y).  even(y) :- odd(x), succ(x, y).
  ASSERT_EQ(
      Rules.add(DB, makeRule(Odd, {Term::variable(1)},
                             {{Even, {Term::variable(0)}, false},
                              {Succ, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Even, {Term::variable(1)},
                             {{Odd, {Term::variable(0)}, false},
                              {Succ, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("even", {"4"}));
  EXPECT_TRUE(DB.containsFact("odd", {"3"}));
  EXPECT_FALSE(DB.containsFact("even", {"3"}));
  EXPECT_EQ(DB.relation(Even).size(), 3u);
  EXPECT_EQ(DB.relation(Odd).size(), 2u);
}

TEST_F(DatalogTest, StatsCountDerivedTuples) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Copy = DB.declare("copy", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  ASSERT_EQ(Rules.add(DB, makeRule(Copy,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(Eval.stats().TuplesDerived, 2u);
  EXPECT_GE(Eval.stats().StratumCount, 1u);
}

/// Property-style sweep: transitive closure over chain graphs of various
/// lengths must contain exactly n*(n-1)/2 pairs.
class ChainClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainClosureTest, PairCountMatchesFormula) {
  int N = GetParam();
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  for (int I = 0; I + 1 < N; ++I)
    DB.insertFact("edge",
                  {std::to_string(I), std::to_string(I + 1)});

  Rule Base;
  Base.Head = {Path, {Term::variable(0), Term::variable(1)}, false};
  Base.Body = {{Edge, {Term::variable(0), Term::variable(1)}, false}};
  Base.VariableCount = 2;
  Base.Origin = "test";
  ASSERT_EQ(Rules.add(DB, Base), "");

  Rule Step;
  Step.Head = {Path, {Term::variable(0), Term::variable(2)}, false};
  Step.Body = {{Path, {Term::variable(0), Term::variable(1)}, false},
               {Edge, {Term::variable(1), Term::variable(2)}, false}};
  Step.VariableCount = 3;
  Step.Origin = "test";
  ASSERT_EQ(Rules.add(DB, Step), "");

  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(),
            static_cast<uint32_t>(N * (N - 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChainClosureTest,
                         ::testing::Values(2, 3, 5, 10, 25, 60));

//===----------------------------------------------------------------------===//
// Parsed fixtures: per-stratum stats and plan-mode invariance on the two hot
// shapes from the pipeline — plain transitive closure and a bean-wiring-
// style multi-stratum program with negation and mutual recursion.
//===----------------------------------------------------------------------===//

using Tuple = std::vector<uint32_t>;
using Contents = std::set<Tuple>;

std::vector<Contents> allContents(const Database &DB) {
  std::vector<Contents> Result(DB.relationCount());
  for (uint32_t Rel = 0; Rel != DB.relationCount(); ++Rel) {
    const Relation &R = DB.relation(RelationId(Rel));
    for (uint32_t T = 0; T != R.size(); ++T) {
      Tuple Tup;
      for (uint32_t C = 0; C != R.arity(); ++C)
        Tup.push_back(R.tuple(T)[C].rawValue());
      Result[Rel].insert(Tup);
    }
  }
  return Result;
}

/// Builds a program via the parser and loads facts, then evaluates under
/// \p Plan and returns all relation contents.
std::vector<Contents>
evaluateWith(const char *RuleText,
             const std::function<void(Database &)> &LoadFacts,
             Evaluator::Stats *StatsOut = nullptr,
             PlanMode Plan = PlanMode::Auto) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ParserResult PR = parseRules(DB, Rules, RuleText, "datalog-test");
  EXPECT_TRUE(PR.Ok) << PR.Error;
  LoadFacts(DB);
  Evaluator Eval(DB, Rules, Plan);
  EXPECT_EQ(Eval.validate(), "");
  Eval.run();
  if (StatsOut)
    *StatsOut = Eval.stats();
  return allContents(DB);
}

/// Renders the explain tree of every tuple, sorted: dense tuple order
/// depends on the join order, but every tree names its root tuple in full,
/// so the sorted set is a content-keyed comparison.
std::vector<std::string>
explainAll(PlanMode Plan, const char *RuleText,
           const std::function<void(Database &)> &LoadFacts) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ParserResult PR = parseRules(DB, Rules, RuleText, "datalog-test");
  EXPECT_TRUE(PR.Ok) << PR.Error;
  provenance::ProvenanceRecorder Recorder(DB, Rules);
  Recorder.beginEpoch("base");
  LoadFacts(DB);
  Evaluator Eval(DB, Rules, Plan);
  EXPECT_EQ(Eval.validate(), "");
  Eval.setObserver(&Recorder);
  Eval.run();

  provenance::Explainer Ex(DB, Rules, Recorder);
  std::vector<std::string> Trees;
  for (uint32_t Rel = 0; Rel != DB.relationCount(); ++Rel) {
    const Relation &R = DB.relation(RelationId(Rel));
    for (uint32_t T = 0; T != R.size(); ++T)
      Trees.push_back(provenance::Explainer::renderText(
          Ex.explain(RelationId(Rel), T)));
  }
  std::sort(Trees.begin(), Trees.end());
  return Trees;
}

constexpr const char *TransitiveClosureRules =
    ".decl edge(a: symbol, b: symbol)\n"
    ".decl path(a: symbol, b: symbol)\n"
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n";

void loadChain(Database &DB, int N) {
  for (int I = 0; I + 1 < N; ++I)
    DB.insertFact("edge",
                  {"n" + std::to_string(I), "n" + std::to_string(I + 1)});
}

/// A seeded random graph with wide per-round deltas.
void loadRandomGraph(Database &DB, int Nodes, int Edges, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  for (int I = 0; I != Edges; ++I)
    DB.insertFact("edge", {"n" + std::to_string(Rng() % Nodes),
                           "n" + std::to_string(Rng() % Nodes)});
}

/// A bean-wiring-style fixture: the vocabulary shape of the framework layer
/// (class facts feed beans, beans feed injections, `Wired` closes over the
/// injection graph recursively, and a later stratum uses negation to find
/// unwired beans).
constexpr const char *BeanWiringRules =
    ".decl Class(c: symbol)\n"
    ".decl Annotated(c: symbol, a: symbol)\n"
    ".decl Injection(site: symbol, from: symbol, to: symbol)\n"
    ".decl Bean(c: symbol)\n"
    ".decl Wired(a: symbol, b: symbol)\n"
    ".decl Unwired(c: symbol)\n"
    "Bean(c) :- Annotated(c, \"@Component\").\n"
    "Bean(c) :- Annotated(c, \"@Service\").\n"
    "Wired(a, b) :- Injection(_s, a, b), Bean(a), Bean(b).\n"
    "Wired(a, c) :- Wired(a, b), Wired(b, c).\n"
    "Unwired(c) :- Bean(c), !Wired(c, c), Class(c).\n";

void loadBeanFacts(Database &DB, int Classes, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  for (int I = 0; I != Classes; ++I) {
    std::string C = "app.C" + std::to_string(I);
    DB.insertFact("Class", {C});
    if (Rng() % 3 != 0)
      DB.insertFact("Annotated", {C, Rng() % 2 ? "@Component" : "@Service"});
  }
  for (int I = 0; I != Classes * 3; ++I)
    DB.insertFact("Injection",
                  {"site" + std::to_string(I),
                   "app.C" + std::to_string(Rng() % Classes),
                   "app.C" + std::to_string(Rng() % Classes)});
}

TEST(DatalogStats, PerStratumRecordsAddUp) {
  Evaluator::Stats Stats;
  evaluateWith(
      BeanWiringRules, [](Database &DB) { loadBeanFacts(DB, 30, 5); }, &Stats);

  EXPECT_EQ(Stats.StratumCount, Stats.Strata.size());
  EXPECT_GT(Stats.StratumCount, 1u); // Bean/Wired/Unwired split strata
  uint64_t Tuples = 0, Passes = 0;
  uint32_t RuleCount = 0;
  for (const Evaluator::StratumStats &SS : Stats.Strata) {
    Tuples += SS.TuplesDerived;
    Passes += SS.RuleEvaluations;
    RuleCount += SS.Rules;
    EXPECT_GE(SS.Rounds, 1u);
    EXPECT_GE(SS.WallSeconds, 0.0);
  }
  EXPECT_EQ(Tuples, Stats.TuplesDerived);
  EXPECT_EQ(Passes, Stats.RuleEvaluations);
  EXPECT_EQ(RuleCount, 5u); // the five BeanWiring rules
  EXPECT_GT(Stats.TuplesDerived, 0u);
}

TEST(DatalogStats, StatsAccumulateMonotonicallyAcrossRuns) {
  // StratumStats fields accumulate across run() calls (the bean-wiring
  // loop re-runs the evaluator once per solver round) — documented in
  // Evaluator.h; this pins the semantics. Every counter must be monotone
  // non-decreasing over an evaluator's lifetime, including across no-op
  // re-runs and re-runs that pick up externally inserted facts.
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ASSERT_TRUE(
      parseRules(DB, Rules, TransitiveClosureRules, "datalog-test").Ok);
  loadChain(DB, 20);
  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");

  auto check = [](const Evaluator::Stats &Prev, const Evaluator::Stats &Next) {
    EXPECT_GE(Next.TuplesDerived, Prev.TuplesDerived);
    EXPECT_GE(Next.RuleEvaluations, Prev.RuleEvaluations);
    ASSERT_EQ(Next.Strata.size(), Prev.Strata.size());
    for (size_t I = 0; I != Next.Strata.size(); ++I) {
      const Evaluator::StratumStats &P = Prev.Strata[I];
      const Evaluator::StratumStats &N = Next.Strata[I];
      EXPECT_EQ(N.Rules, P.Rules);
      EXPECT_GE(N.Rounds, P.Rounds);
      EXPECT_GE(N.RuleEvaluations, P.RuleEvaluations);
      EXPECT_GE(N.TuplesDerived, P.TuplesDerived);
      EXPECT_GE(N.WallSeconds, P.WallSeconds);
    }
  };

  Eval.run();
  Evaluator::Stats First = Eval.stats();
  EXPECT_GT(First.TuplesDerived, 0u);

  Eval.run(); // no new facts: a no-op run still adds its (empty) rounds
  Evaluator::Stats Second = Eval.stats();
  check(First, Second);
  EXPECT_EQ(Second.TuplesDerived, First.TuplesDerived);

  DB.insertFact("edge", {"n19", "n20"});
  Eval.run();
  Evaluator::Stats Third = Eval.stats();
  check(Second, Third);
  EXPECT_GT(Third.TuplesDerived, Second.TuplesDerived);
}

TEST(PlanInvariance, ContentsAndCountersMatchAcrossPlanModes) {
  // The cost-guided planner may only change how fast the fixpoint is
  // reached: relation contents, rule×delta pass counts, and derived-tuple
  // counts are identical to the textual baseline on both pipeline-shaped
  // fixtures.
  struct Fixture {
    const char *Name;
    const char *Rules;
    std::function<void(Database &)> Load;
  };
  const Fixture Fixtures[] = {
      {"tc-wide", TransitiveClosureRules,
       [](Database &DB) { loadRandomGraph(DB, 100, 400, 17); }},
      {"bean-wiring", BeanWiringRules,
       [](Database &DB) { loadBeanFacts(DB, 40, 23); }},
  };
  for (const Fixture &F : Fixtures) {
    Evaluator::Stats Baseline, Stats;
    std::vector<Contents> Expected =
        evaluateWith(F.Rules, F.Load, &Baseline, PlanMode::Textual);
    EXPECT_EQ(evaluateWith(F.Rules, F.Load, &Stats, PlanMode::Greedy),
              Expected)
        << F.Name;
    EXPECT_EQ(Stats.RuleEvaluations, Baseline.RuleEvaluations) << F.Name;
    EXPECT_EQ(Stats.TuplesDerived, Baseline.TuplesDerived) << F.Name;
    EXPECT_EQ(Stats.StratumCount, Baseline.StratumCount) << F.Name;
  }
}

TEST(PlanInvariance, ExplainTreesAreIdenticalAcrossPlanModes) {
  // Stronger than contents: the canonical derivation of every tuple must
  // not depend on the join order either. The planner changes enumeration
  // order within a pass, but the provenance tie-break (lowest rule, then
  // the witnesses' contents) is order-free, so rendered trees coincide
  // across plan modes.
  struct Fixture {
    const char *Name;
    const char *Rules;
    std::function<void(Database &)> Load;
  };
  const Fixture Fixtures[] = {
      {"tc-wide", TransitiveClosureRules,
       [](Database &DB) { loadRandomGraph(DB, 60, 240, 7); }},
      {"bean-wiring", BeanWiringRules,
       [](Database &DB) { loadBeanFacts(DB, 30, 29); }},
  };
  for (const Fixture &F : Fixtures) {
    std::vector<std::string> Expected =
        explainAll(PlanMode::Textual, F.Rules, F.Load);
    EXPECT_FALSE(Expected.empty()) << F.Name;
    EXPECT_EQ(explainAll(PlanMode::Greedy, F.Rules, F.Load), Expected)
        << F.Name;
  }
}

} // namespace
