//===- datalog_planner_test.cpp - Cost-guided join planner ----------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The greedy planner must (a) pick the orders its cost model promises on
// hand-built rules with known cardinalities, (b) hoist guards to the
// earliest slot where their variables are bound, and (c) never change
// results: relation contents and work counters are identical between
// textual and greedy plans. Also covers the empty-pass pruning fix in pass
// building and the index accounting that feeds `observed.db.index_bytes`.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::datalog;

namespace {

using Tuple = std::vector<uint32_t>;
using Contents = std::set<Tuple>;

Contents relationContents(const Database &DB, uint32_t Rel) {
  Contents Result;
  const Relation &R = DB.relation(RelationId(Rel));
  for (uint32_t T = 0; T != R.size(); ++T) {
    Tuple Tup;
    for (uint32_t C = 0; C != R.arity(); ++C)
      Tup.push_back(R.tuple(T)[C].rawValue());
    Result.insert(Tup);
  }
  return Result;
}

std::vector<Contents> allContents(const Database &DB) {
  std::vector<Contents> Result;
  for (uint32_t Rel = 0; Rel != DB.relationCount(); ++Rel)
    Result.push_back(relationContents(DB, Rel));
  return Result;
}

/// Parses \p RuleText, loads facts, runs under the given plan mode, and
/// returns all relation contents (plus stats if asked).
std::vector<Contents>
evaluateWith(PlanMode Plan, const char *RuleText,
             const std::function<void(Database &)> &LoadFacts,
             Evaluator::Stats *StatsOut = nullptr) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ParserResult PR = parseRules(DB, Rules, RuleText, "planner-test");
  EXPECT_TRUE(PR.Ok) << PR.Error;
  LoadFacts(DB);
  Evaluator Eval(DB, Rules, Plan);
  EXPECT_EQ(Eval.validate(), "");
  EXPECT_EQ(Eval.planMode(), Plan);
  Eval.run();
  if (StatsOut)
    *StatsOut = Eval.stats();
  return allContents(DB);
}

/// A three-way join spelled worst-first: the big relation drives textually,
/// while the greedy planner should start from the tiny filter.
constexpr const char *AdversarialJoinRules =
    ".decl big(a: symbol, b: symbol)\n"
    ".decl mid(b: symbol, c: symbol)\n"
    ".decl tiny(c: symbol)\n"
    ".decl q(a: symbol, c: symbol)\n"
    "q(a, c) :- big(a, b), mid(b, c), tiny(c).\n";

void loadAdversarialFacts(Database &DB, int Big, int Mid, int Tiny) {
  for (int I = 0; I != Big; ++I)
    DB.insertFact("big", {"a" + std::to_string(I % 37),
                          "b" + std::to_string(I % 11)});
  for (int I = 0; I != Mid; ++I)
    DB.insertFact("mid",
                  {"b" + std::to_string(I % 11), "c" + std::to_string(I)});
  for (int I = 0; I != Tiny; ++I)
    DB.insertFact("tiny", {"c" + std::to_string(I)});
}

/// Builds a rule over \p DB by hand: positive atoms only, one fresh
/// variable per distinct name. Convenience for direct makeJoinPlan tests.
struct RuleBuilder {
  Database &DB;
  Rule R;
  std::unordered_map<std::string, uint32_t> Vars;

  explicit RuleBuilder(Database &DB) : DB(DB) {}

  Term term(const std::string &Name) {
    if (!Name.empty() && Name[0] == '"')
      return Term::constant(DB.symbols().intern(Name));
    auto [It, New] = Vars.emplace(Name, R.VariableCount);
    if (New)
      ++R.VariableCount;
    return Term::variable(It->second);
  }

  Atom atom(const char *Rel, std::initializer_list<std::string> Terms,
            bool Negated = false) {
    Atom A;
    A.Rel = DB.find(Rel);
    EXPECT_TRUE(A.Rel.isValid()) << Rel;
    for (const std::string &T : Terms)
      A.Terms.push_back(term(T));
    A.Negated = Negated;
    return A;
  }
};

TEST(JoinPlanner, TextualModeKeepsBodyOrderAndDefersGuards) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("big", 2);
  DB.declare("mid", 2);
  DB.declare("tiny", 1);
  DB.declare("q", 2);

  RuleBuilder B(DB);
  B.R.Head = B.atom("q", {"a", "c"});
  B.R.Body.push_back(B.atom("big", {"a", "b"}));
  B.R.Body.push_back(B.atom("mid", {"b", "c"}));
  B.R.Body.push_back(B.atom("tiny", {"c"}));
  Constraint C;
  C.CompareKind = Constraint::Kind::NotEqual;
  C.Lhs = B.term("a");
  C.Rhs = B.term("c");
  B.R.Constraints.push_back(C);

  std::vector<uint32_t> Sizes = {1000, 50, 3, 0};
  PlanContext Ctx{PlanMode::Textual, Sizes, &DB};
  JoinPlan Plan = makeJoinPlan(B.R, /*DeltaAtom=*/-1, Ctx);
  EXPECT_EQ(Plan.PositiveOrder, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Plan.ReorderDistance, 0u);
  EXPECT_EQ(Plan.GuardHoistDepth, 0u);
  // Every guard sits in the last slot, exactly the historical behavior.
  ASSERT_EQ(Plan.ConstraintsAt.size(), 4u);
  EXPECT_TRUE(Plan.ConstraintsAt[3].size() == 1 &&
              Plan.ConstraintsAt[0].empty() && Plan.ConstraintsAt[1].empty() &&
              Plan.ConstraintsAt[2].empty());

  // The no-context overload is the same textual plan.
  JoinPlan Legacy = makeJoinPlan(B.R, -1);
  EXPECT_EQ(Legacy.PositiveOrder, Plan.PositiveOrder);
  EXPECT_EQ(Legacy.BoundColumns, Plan.BoundColumns);
}

TEST(JoinPlanner, GreedyOrdersByEstimatedFanout) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("big", 2);
  DB.declare("mid", 2);
  DB.declare("tiny", 1);
  DB.declare("q", 2);

  RuleBuilder B(DB);
  B.R.Head = B.atom("q", {"a", "c"});
  B.R.Body.push_back(B.atom("big", {"a", "b"}));
  B.R.Body.push_back(B.atom("mid", {"b", "c"}));
  B.R.Body.push_back(B.atom("tiny", {"c"}));

  // tiny (3 tuples, unbound cost 3) < mid with c bound (sqrt(50) ~ 7) <
  // big with b bound (sqrt(1000) ~ 32): greedy runs the body backwards.
  std::vector<uint32_t> Sizes = {1000, 50, 3, 0};
  PlanContext Ctx{PlanMode::Greedy, Sizes, &DB};
  JoinPlan Plan = makeJoinPlan(B.R, /*DeltaAtom=*/-1, Ctx);
  EXPECT_EQ(Plan.PositiveOrder, (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(Plan.ReorderDistance, 4u); // 2->0, 1->1, 0->2
  EXPECT_GT(Plan.EstimatedFanout, 0.0);

  // Bound columns follow the chosen order: mid joins on its second column
  // (c, bound by tiny), big on its second column (b, bound by mid).
  ASSERT_EQ(Plan.BoundColumns.size(), 3u);
  EXPECT_TRUE(Plan.BoundColumns[0].empty());
  EXPECT_EQ(Plan.BoundColumns[1], (std::vector<uint32_t>{1}));
  EXPECT_EQ(Plan.BoundColumns[2], (std::vector<uint32_t>{1}));

  // With equal sizes the first pick is a three-way tie, which must break
  // toward textual order (strict improvement only); big then binds both
  // of mid's join keys transitively, so greedy decays to the spelled body.
  std::vector<uint32_t> Flat = {10, 10, 10, 0};
  JoinPlan Tie = makeJoinPlan(B.R, -1, {PlanMode::Greedy, Flat, &DB});
  EXPECT_EQ(Tie.PositiveOrder, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Tie.ReorderDistance, 0u);
}

TEST(JoinPlanner, DeltaAtomStaysPinnedFirst) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("edge", 2);
  DB.declare("tc", 2);

  RuleBuilder B(DB);
  B.R.Head = B.atom("tc", {"x", "z"});
  B.R.Body.push_back(B.atom("edge", {"x", "y"}));
  B.R.Body.push_back(B.atom("tc", {"y", "z"}));

  // Even though edge (5 tuples) is far smaller than tc (100000), the delta
  // atom must drive: semi-naive correctness wants every new tc tuple at
  // the join's root exactly once.
  std::vector<uint32_t> Sizes = {5, 100000};
  JoinPlan Plan = makeJoinPlan(B.R, /*DeltaAtom=*/1,
                               {PlanMode::Greedy, Sizes, &DB});
  EXPECT_EQ(Plan.PositiveOrder, (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(Plan.ReorderDistance, 0u);
}

TEST(JoinPlanner, FullyBoundAtomsBecomeExistenceProbes) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("pair", 2);
  DB.declare("allowed", 2);
  DB.declare("q", 2);

  RuleBuilder B(DB);
  B.R.Head = B.atom("q", {"x", "y"});
  B.R.Body.push_back(B.atom("allowed", {"x", "y"}));
  B.R.Body.push_back(B.atom("pair", {"x", "y"}));

  // After pair binds x and y, allowed is fully bound (cost 1) despite
  // being huge — greedy moves the small generator first and leaves the
  // big relation as a probe.
  std::vector<uint32_t> Sizes = {4, 500000, 0};
  JoinPlan Plan = makeJoinPlan(B.R, -1, {PlanMode::Greedy, Sizes, &DB});
  EXPECT_EQ(Plan.PositiveOrder, (std::vector<uint32_t>{1, 0}));
  ASSERT_EQ(Plan.BoundColumns.size(), 2u);
  EXPECT_EQ(Plan.BoundColumns[1], (std::vector<uint32_t>{0, 1}));
}

TEST(JoinPlanner, IndexStatsSharpenEstimates) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RelationId Skewed = DB.declare("skewed", 2);
  DB.declare("uniform", 2);
  DB.declare("seedrel", 1);
  DB.declare("q", 1);

  // skewed: 16 tuples, ALL under one first-column key. The selectivity
  // heuristic guesses sqrt(16) = 4 per probe; the real postings list says
  // 16. uniform: 20 tuples, sqrt(20) ~ 4.5.
  for (int I = 0; I != 16; ++I)
    DB.insertFact("skewed", {"hub", "s" + std::to_string(I)});
  for (int I = 0; I != 20; ++I)
    DB.insertFact("uniform", {"u" + std::to_string(I), "v"});
  DB.insertFact("seedrel", {"hub"});

  RuleBuilder B(DB);
  B.R.Head = B.atom("q", {"x"});
  B.R.Body.push_back(B.atom("skewed", {"x", "s"}));
  B.R.Body.push_back(B.atom("uniform", {"x", "u"}));
  B.R.Body.push_back(B.atom("seedrel", {"x"}));

  std::vector<uint32_t> Sizes = {16, 20, 1, 0};
  // Without an index, the heuristic ranks skewed (4) ahead of uniform
  // (4.5) after seedrel binds x.
  JoinPlan Blind = makeJoinPlan(B.R, -1, {PlanMode::Greedy, Sizes, &DB});
  EXPECT_EQ(Blind.PositiveOrder, (std::vector<uint32_t>{2, 0, 1}));

  // Build the first-column index: now the planner KNOWS skewed fans out
  // 16 per key and demotes it behind uniform.
  std::vector<uint32_t> Col0 = {0};
  DB.relation(Skewed).ensureIndex(Col0);
  EXPECT_EQ(DB.relation(Skewed).distinctKeys(Col0), 1u);
  JoinPlan Informed = makeJoinPlan(B.R, -1, {PlanMode::Greedy, Sizes, &DB});
  EXPECT_EQ(Informed.PositiveOrder, (std::vector<uint32_t>{2, 1, 0}));
}

TEST(JoinPlanner, GuardsHoistToEarliestBoundSlot) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("gen", 2);
  DB.declare("other", 2);
  DB.declare("blocked", 1);
  DB.declare("q", 2);

  RuleBuilder B(DB);
  B.R.Head = B.atom("q", {"x", "z"});
  B.R.Body.push_back(B.atom("gen", {"x", "y"}));
  B.R.Body.push_back(B.atom("blocked", {"x"}, /*Negated=*/true));
  B.R.Body.push_back(B.atom("other", {"y", "z"}));
  Constraint C;
  C.CompareKind = Constraint::Kind::NotEqual;
  C.Lhs = B.term("x");
  C.Rhs = B.term("y");
  B.R.Constraints.push_back(C);

  // gen (3 tuples) goes first either way; the x != y constraint and the
  // !blocked(x) negation depend only on gen's variables, so greedy checks
  // them at slot 1 — before the `other` join — instead of slot 2.
  std::vector<uint32_t> Sizes = {3, 1000, 2, 0};
  JoinPlan Greedy = makeJoinPlan(B.R, -1, {PlanMode::Greedy, Sizes, &DB});
  ASSERT_EQ(Greedy.PositiveOrder.size(), 2u);
  EXPECT_EQ(Greedy.PositiveOrder[0], 0u);
  ASSERT_EQ(Greedy.ConstraintsAt.size(), 3u);
  EXPECT_EQ(Greedy.ConstraintsAt[1].size(), 1u);
  EXPECT_EQ(Greedy.NegationsAt[1].size(), 1u);
  EXPECT_EQ(Greedy.GuardHoistDepth, 2u); // two guards, one slot early each

  JoinPlan Textual = makeJoinPlan(B.R, -1, {PlanMode::Textual, Sizes, &DB});
  EXPECT_EQ(Textual.ConstraintsAt[2].size(), 1u);
  EXPECT_EQ(Textual.NegationsAt[2].size(), 1u);
  EXPECT_EQ(Textual.GuardHoistDepth, 0u);
}

TEST(JoinPlanner, PlanModeParsingAndEnvResolution) {
  PlanMode M = PlanMode::Auto;
  EXPECT_TRUE(parsePlanMode("textual", M));
  EXPECT_EQ(M, PlanMode::Textual);
  EXPECT_TRUE(parsePlanMode("greedy", M));
  EXPECT_EQ(M, PlanMode::Greedy);
  EXPECT_FALSE(parsePlanMode("fastest", M));
  EXPECT_STREQ(planModeName(PlanMode::Textual), "textual");
  EXPECT_STREQ(planModeName(PlanMode::Greedy), "greedy");

  // Explicit modes resolve to themselves regardless of the environment.
  ASSERT_EQ(setenv("JACKEE_PLAN", "textual", /*overwrite=*/1), 0);
  EXPECT_EQ(resolvePlanMode(PlanMode::Greedy), PlanMode::Greedy);
  EXPECT_EQ(resolvePlanMode(PlanMode::Auto), PlanMode::Textual);
  ASSERT_EQ(setenv("JACKEE_PLAN", "greedy", 1), 0);
  EXPECT_EQ(resolvePlanMode(PlanMode::Auto), PlanMode::Greedy);
  // Junk and absence both default to greedy.
  ASSERT_EQ(setenv("JACKEE_PLAN", "not-a-mode", 1), 0);
  EXPECT_EQ(resolvePlanMode(PlanMode::Auto), PlanMode::Greedy);
  ASSERT_EQ(unsetenv("JACKEE_PLAN"), 0);
  EXPECT_EQ(resolvePlanMode(PlanMode::Auto), PlanMode::Greedy);

  // The evaluator resolves Auto at construction.
  ASSERT_EQ(setenv("JACKEE_PLAN", "textual", 1), 0);
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  ASSERT_TRUE(parseRules(DB, Rules, AdversarialJoinRules, "planner-test").Ok);
  Evaluator Auto(DB, Rules);
  EXPECT_EQ(Auto.planMode(), PlanMode::Textual);
  Evaluator Explicit(DB, Rules, PlanMode::Greedy);
  EXPECT_EQ(Explicit.planMode(), PlanMode::Greedy);
  ASSERT_EQ(unsetenv("JACKEE_PLAN"), 0);
}

TEST(PassPruning, EmptyInputsEmitNoPasses) {
  // Two chained rules over an empty input: no pass can ever match, so no
  // pass may run. A historical pass builder emitted one empty-drive pass
  // per rule and counted it as a RuleEvaluation.
  constexpr const char *Chain = ".decl in(a: symbol)\n"
                                ".decl mid1(a: symbol)\n"
                                ".decl out(a: symbol)\n"
                                "mid1(x) :- in(x).\n"
                                "out(x) :- mid1(x).\n";
  for (PlanMode Mode : {PlanMode::Textual, PlanMode::Greedy}) {
    Evaluator::Stats Stats;
    evaluateWith(Mode, Chain, [](Database &) {}, &Stats);
    EXPECT_EQ(Stats.RuleEvaluations, 0u) << planModeName(Mode);
    EXPECT_EQ(Stats.TuplesDerived, 0u);
    EXPECT_GE(Stats.StratumCount, 1u);
  }

  // One seeded fact: exactly one pass per stratum (no delta passes — the
  // body atoms are not in their head's stratum).
  for (PlanMode Mode : {PlanMode::Textual, PlanMode::Greedy}) {
    Evaluator::Stats Stats;
    evaluateWith(Mode, Chain,
                 [](Database &DB) { DB.insertFact("in", {"a"}); }, &Stats);
    EXPECT_EQ(Stats.RuleEvaluations, 2u) << planModeName(Mode);
    EXPECT_EQ(Stats.TuplesDerived, 2u);
  }
}

TEST(PassPruning, WorkCountersMatchAcrossPlanModes) {
  constexpr const char *Rules =
      ".decl edge(a: symbol, b: symbol)\n"
      ".decl tiny(c: symbol)\n"
      ".decl path(a: symbol, b: symbol)\n"
      ".decl capped(a: symbol, b: symbol)\n"
      "path(x, y) :- edge(x, y).\n"
      "path(x, z) :- path(x, y), edge(y, z).\n"
      "capped(x, y) :- path(x, y), tiny(y), x != y.\n";
  auto Load = [](Database &DB) {
    for (int I = 0; I + 1 < 24; ++I)
      DB.insertFact("edge",
                    {"n" + std::to_string(I), "n" + std::to_string(I + 1)});
    DB.insertFact("edge", {"n23", "n0"}); // cycle: several delta rounds
    DB.insertFact("tiny", {"n3"});
  };

  Evaluator::Stats Baseline, Stats;
  std::vector<Contents> Expected =
      evaluateWith(PlanMode::Textual, Rules, Load, &Baseline);
  std::vector<Contents> Got =
      evaluateWith(PlanMode::Greedy, Rules, Load, &Stats);
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(Stats.RuleEvaluations, Baseline.RuleEvaluations);
  EXPECT_EQ(Stats.TuplesDerived, Baseline.TuplesDerived);
  EXPECT_EQ(Stats.StratumCount, Baseline.StratumCount);
  ASSERT_EQ(Stats.Strata.size(), Baseline.Strata.size());
  for (size_t I = 0; I != Stats.Strata.size(); ++I) {
    EXPECT_EQ(Stats.Strata[I].Rounds, Baseline.Strata[I].Rounds);
    EXPECT_EQ(Stats.Strata[I].RuleEvaluations,
              Baseline.Strata[I].RuleEvaluations);
    EXPECT_EQ(Stats.Strata[I].TuplesDerived,
              Baseline.Strata[I].TuplesDerived);
  }
}

TEST(PlanInvariance, AdversarialJoinIdenticalContents) {
  auto Load = [](Database &DB) { loadAdversarialFacts(DB, 2000, 110, 3); };
  EXPECT_EQ(evaluateWith(PlanMode::Greedy, AdversarialJoinRules, Load),
            evaluateWith(PlanMode::Textual, AdversarialJoinRules, Load));
}

TEST(PlanInvariance, ReRunsDeriveOnlyNewConsequences) {
  // The bean-wiring loop re-runs the evaluator after inserting facts; the
  // planner re-plans each round against the grown relations. Both modes
  // must converge to the same contents after every re-run. The recursive
  // rule also exercises the postings walk under self-inserts
  // (head relation == indexed body relation).
  constexpr const char *Rules = ".decl edge(a: symbol, b: symbol)\n"
                                ".decl tc(a: symbol, b: symbol)\n"
                                "tc(x, y) :- edge(x, y).\n"
                                "tc(x, z) :- edge(x, y), tc(y, z).\n";
  for (PlanMode Mode : {PlanMode::Textual, PlanMode::Greedy}) {
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules1;
    ASSERT_TRUE(parseRules(DB, Rules1, Rules, "planner-test").Ok);
    DB.insertFact("edge", {"a", "a"}); // self loop: same-key inserts
    for (int I = 0; I != 40; ++I)
      DB.insertFact("edge", {"a", "s" + std::to_string(I)});
    Evaluator Eval(DB, Rules1, Mode);
    ASSERT_EQ(Eval.validate(), "");
    Eval.run();
    uint32_t AfterFirst = DB.relation(DB.find("tc")).size();
    EXPECT_EQ(AfterFirst, 41u);

    // New edges through the self-loop node: the re-run seed round joins
    // against the already-populated tc while inserting under key "a".
    for (int I = 0; I != 40; ++I)
      DB.insertFact("edge", {"s" + std::to_string(I), "a"});
    Eval.run();
    // Every node reaches every node through a: 41 sources x 41 targets.
    EXPECT_EQ(DB.relation(DB.find("tc")).size(), 41u * 41u);
  }
}

TEST(RelationStats, BytesCountIndexes) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RelationId Rel = DB.declare("r", 2);
  for (int I = 0; I != 100; ++I)
    DB.insertFact("r", {"k" + std::to_string(I % 10), std::to_string(I)});

  Relation &R = DB.relation(Rel);
  size_t Before = R.bytes();
  EXPECT_EQ(R.indexBytes(), 0u);
  EXPECT_TRUE(R.indexStats().empty());

  std::vector<uint32_t> Col0 = {0};
  R.ensureIndex(Col0);
  // The index is real memory and bytes() must see it.
  EXPECT_GT(R.indexBytes(), 0u);
  EXPECT_EQ(R.bytes(), Before + R.indexBytes());
  EXPECT_GT(DB.indexBytes(), 0u);

  std::vector<Relation::IndexStats> Stats = R.indexStats();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Columns, Col0);
  EXPECT_EQ(Stats[0].DistinctKeys, 10u);
  EXPECT_GT(Stats[0].Bytes, 0u);
  EXPECT_EQ(Stats[0].Bytes, R.indexBytes());
  EXPECT_EQ(R.distinctKeys(Col0), 10u);
  std::vector<uint32_t> Col1 = {1};
  EXPECT_EQ(R.distinctKeys(Col1), 0u) << "unbuilt index reports no stats";

  // Inserts keep the index current and the accounting monotone.
  DB.insertFact("r", {"fresh", "fresh"});
  EXPECT_EQ(R.distinctKeys(Col0), 11u);
  EXPECT_GE(R.bytes(), R.indexBytes());
  EXPECT_EQ(R.indexStats().at(0).DistinctKeys, 11u);
}

} // namespace
