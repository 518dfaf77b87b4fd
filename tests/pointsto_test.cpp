//===- pointsto_test.cpp - Points-to solver semantics tests ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "observe/Metrics.h"
#include "pointsto/Solver.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

/// The set store's invariants (DESIGN.md §11): every set iterates strictly
/// ascending, and each value enters a set exactly once, so the work-item
/// count equals the total set size at fixpoint.
void expectSetStoreInvariants(const Solver &S) {
  uint64_t Entries = 0;
  for (uint32_t NI = 0; NI != S.nodeCount(); ++NI) {
    const std::vector<uint32_t> Set = S.pointsTo(NodeId(NI)).toVector();
    EXPECT_TRUE(std::adjacent_find(Set.begin(), Set.end(),
                                   [](uint32_t A, uint32_t B) {
                                     return A >= B;
                                   }) == Set.end())
        << "node " << NI << " is not strictly ascending";
    Entries += Set.size();
  }
  EXPECT_EQ(S.stats().WorkItems, Entries);
}

/// Fixture with a fresh program containing Object/String/Throwable roots.
class SolverTest : public ::testing::Test {
protected:
  SolverTest() : P(Symbols) {
    Object = P.addClass("java.lang.Object", TypeKind::Class,
                        TypeId::invalid());
    StringTy = P.addClass("java.lang.String", TypeKind::Class, Object);
    Throwable = P.addClass("java.lang.Throwable", TypeKind::Class, Object);
    Exception = P.addClass("java.lang.Exception", TypeKind::Class, Throwable);
    Runtime =
        P.addClass("java.lang.RuntimeException", TypeKind::Class, Exception);
  }

  /// Runs an analysis with `main` as the sole entry point.
  std::unique_ptr<Solver> analyze(MethodId Main, uint32_t K, uint32_t H) {
    P.finalize();
    auto S = std::make_unique<Solver>(P, SolverConfig{K, H});
    S->makeReachable(Main, S->contexts().empty());
    S->solve();
    expectSetStoreInvariants(*S);
    return S;
  }

  /// Context-insensitively projected points-to of \p V as a set of alloc
  /// site labels.
  static std::vector<std::string> sitesOf(const Solver &S, VarId V) {
    std::vector<std::string> Labels;
    for (AllocSiteId Site : S.varPointsToSites(V))
      Labels.push_back(
          S.program().symbols().text(S.program().allocSite(Site).Label));
    std::sort(Labels.begin(), Labels.end());
    return Labels;
  }

  static size_t siteCount(const Solver &S, VarId V) {
    return S.varPointsToSites(V).size();
  }

  SymbolTable Symbols;
  Program P;
  TypeId Object, StringTy, Throwable, Exception, Runtime;
};

TEST_F(SolverTest, AllocAndMove) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main =
      P.addMethod(A, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  VarId X = Main.local("x", Object);
  VarId Y = Main.local("y", Object);
  Main.alloc(X, A).move(Y, X);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, X), 1u);
  EXPECT_EQ(siteCount(*S, Y), 1u);
  EXPECT_EQ(S->varPointsToSites(X), S->varPointsToSites(Y));
}

TEST_F(SolverTest, FieldStoreLoadIsObjectSensitive) {
  // Two distinct A objects, each storing a different payload; loads must not
  // conflate (field sensitivity on abstract objects).
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(A, "f", Object);

  MethodBuilder Main =
      P.addMethod(A, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  VarId A1 = Main.local("a1", A), A2 = Main.local("a2", A);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId R1 = Main.local("r1", Object), R2 = Main.local("r2", Object);
  Main.alloc(A1, A)
      .alloc(A2, A)
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .store(A1, F, P1)
      .store(A2, F, P2)
      .load(R1, A1, F)
      .load(R2, A2, F);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, R1), 1u);
  EXPECT_EQ(siteCount(*S, R2), 1u);
  EXPECT_NE(S->varPointsToSites(R1), S->varPointsToSites(R2));
}

TEST_F(SolverTest, VirtualDispatchSelectsOverride) {
  TypeId Base = P.addClass("Base", TypeKind::Class, Object);
  TypeId Der = P.addClass("Der", TypeKind::Class, Base);
  TypeId RA = P.addClass("RA", TypeKind::Class, Object);
  TypeId RB = P.addClass("RB", TypeKind::Class, Object);

  MethodBuilder BaseM = P.addMethod(Base, "mk", {}, Object);
  VarId BV = BaseM.local("v", RA);
  BaseM.alloc(BV, RA).ret(BV);
  MethodBuilder DerM = P.addMethod(Der, "mk", {}, Object);
  VarId DV = DerM.local("v", RB);
  DerM.alloc(DV, RB).ret(DV);

  MethodBuilder Main =
      P.addMethod(Base, "main", {}, TypeId::invalid(), true);
  VarId O = Main.local("o", Base);
  VarId R = Main.local("r", Object);
  Main.alloc(O, Der).virtualCall(R, O, "mk", {}, {});

  auto S = analyze(Main.id(), 0, 0);
  // Receiver is dynamically Der, so only Der.mk runs: result is RB only.
  ASSERT_EQ(siteCount(*S, R), 1u);
  EXPECT_EQ(S->program().allocSite(S->varPointsToSites(R)[0]).ObjectType, RB);
  EXPECT_TRUE(S->isMethodReachable(DerM.id()));
  EXPECT_FALSE(S->isMethodReachable(BaseM.id()));
}

TEST_F(SolverTest, ArgumentAndReturnFlow) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  // Object id(Object o) { return o; }
  MethodBuilder IdM = P.addMethod(A, "id", {Object}, Object);
  IdM.ret(IdM.param(0));

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("recv", A);
  VarId Arg = Main.local("arg", A);
  VarId Ret = Main.local("ret", Object);
  Main.alloc(Recv, A).alloc(Arg, A).virtualCall(Ret, Recv, "id", {Object},
                                                {Arg});

  auto S = analyze(Main.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, Ret), 1u);
  EXPECT_EQ(S->varPointsToSites(Ret), S->varPointsToSites(Arg));
}

TEST_F(SolverTest, ContextInsensitiveConflatesReceivers) {
  // c1.set(p1); c2.set(p2); under ci the parameter conflates, so c1.get()
  // sees both payloads. Under 1objH the receivers split the contexts.
  TypeId C = P.addClass("C", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(C, "f", Object);

  MethodBuilder SetM = P.addMethod(C, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(C, "get", {}, Object);
  VarId GTmp = GetM.local("t", Object);
  GetM.load(GTmp, GetM.thisVar(), F).ret(GTmp);

  MethodBuilder Main = P.addMethod(C, "main", {}, TypeId::invalid(), true);
  VarId C1 = Main.local("c1", C), C2 = Main.local("c2", C);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(C1, C)
      .alloc(C2, C)
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), C1, "set", {Object}, {P1})
      .virtualCall(VarId::invalid(), C2, "set", {Object}, {P2})
      .virtualCall(X, C1, "get", {}, {})
      .virtualCall(Y, C2, "get", {}, {});

  {
    auto S = analyze(Main.id(), 0, 0);
    EXPECT_EQ(siteCount(*S, X), 2u) << "ci must conflate";
    EXPECT_EQ(siteCount(*S, Y), 2u);
  }
  {
    auto S = analyze(Main.id(), 1, 1);
    EXPECT_EQ(siteCount(*S, X), 1u) << "1objH must distinguish receivers";
    EXPECT_EQ(siteCount(*S, Y), 1u);
  }
}

TEST_F(SolverTest, HeapContextDistinguishesInternalAllocations) {
  // Each Outer allocates its own Inner at one site; with a context-sensitive
  // heap (H=1) the two Inner objects are distinct abstract objects, so their
  // fields do not conflate. With H=0 they merge.
  TypeId Outer = P.addClass("Outer", TypeKind::Class, Object);
  TypeId Inner = P.addClass("Inner", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId InnerF = P.addField(Outer, "inner", Inner);
  FieldId PayF = P.addField(Inner, "pay", Object);

  MethodBuilder Init = P.addMethod(Outer, "<init>", {}, TypeId::invalid());
  VarId IV = Init.local("i", Inner);
  Init.alloc(IV, Inner).store(Init.thisVar(), InnerF, IV);

  MethodBuilder SetM = P.addMethod(Outer, "set", {Object}, TypeId::invalid());
  VarId SI = SetM.local("i", Inner);
  SetM.load(SI, SetM.thisVar(), InnerF).store(SI, PayF, SetM.param(0));

  MethodBuilder GetM = P.addMethod(Outer, "get", {}, Object);
  VarId GI = GetM.local("i", Inner);
  VarId GT = GetM.local("t", Object);
  GetM.load(GI, GetM.thisVar(), InnerF).load(GT, GI, PayF).ret(GT);

  MethodBuilder Main = P.addMethod(Outer, "main", {}, TypeId::invalid(), true);
  VarId O1 = Main.local("o1", Outer), O2 = Main.local("o2", Outer);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(O1, Outer)
      .specialCall(VarId::invalid(), O1, Init.id(), {})
      .alloc(O2, Outer)
      .specialCall(VarId::invalid(), O2, Init.id(), {})
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), O1, "set", {Object}, {P1})
      .virtualCall(VarId::invalid(), O2, "set", {Object}, {P2})
      .virtualCall(X, O1, "get", {}, {})
      .virtualCall(Y, O2, "get", {}, {});

  {
    auto S = analyze(Main.id(), 1, 0); // context-insensitive heap
    EXPECT_EQ(siteCount(*S, X), 2u) << "H=0 merges the Inner objects";
  }
  {
    auto S = analyze(Main.id(), 1, 1);
    EXPECT_EQ(siteCount(*S, X), 1u) << "H=1 splits the Inner objects";
    EXPECT_EQ(siteCount(*S, Y), 1u);
  }
}

TEST_F(SolverTest, CastFiltersValues) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId B = P.addClass("B", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", Object);
  VarId Y = Main.local("y", A);
  Main.alloc(X, A).stringConst(X, "s").cast(Y, A, X);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, X), 2u);
  ASSERT_EQ(siteCount(*S, Y), 1u) << "only the A object passes the cast";
  EXPECT_EQ(S->program().allocSite(S->varPointsToSites(Y)[0]).ObjectType, A);

  // The cast is recorded and may fail (the String does not conform).
  ASSERT_EQ(S->castRecords().size(), 1u);
  const auto &Rec = S->castRecords()[0];
  bool MayFail = false;
  for (NodeId N : Rec.SourceNodes)
    for (uint32_t Raw : S->pointsTo(N))
      if (!S->program().isSubtype(S->valueType(ValueId(Raw)),
                                  Rec.TargetType))
        MayFail = true;
  EXPECT_TRUE(MayFail);
  (void)B;
}

TEST_F(SolverTest, ExceptionCaughtByMatchingClause) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  // callee: throw new RuntimeException()
  MethodBuilder Callee = P.addMethod(A, "boom", {}, TypeId::invalid());
  VarId EV = Callee.local("e", Runtime);
  Callee.alloc(EV, Runtime).throwStmt(EV);

  // caller: try { this.boom() } catch (Exception c) {}
  MethodBuilder Caller = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Caller.local("r", A);
  VarId CaughtVar = Caller.local("c", Exception);
  Caller.alloc(Recv, A)
      .virtualCall(VarId::invalid(), Recv, "boom", {}, {})
      .catchClause(Exception, CaughtVar);

  auto S = analyze(Caller.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, CaughtVar), 1u);
  EXPECT_EQ(
      S->program().allocSite(S->varPointsToSites(CaughtVar)[0]).ObjectType,
      Runtime);
}

TEST_F(SolverTest, ExceptionEscapesNonMatchingClauseTwoLevels) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Other =
      P.addClass("app.OtherException", TypeKind::Class, Throwable);

  MethodBuilder Inner = P.addMethod(A, "inner", {}, TypeId::invalid());
  VarId EV = Inner.local("e", Runtime);
  Inner.alloc(EV, Runtime).throwStmt(EV);

  // mid catches only app.OtherException: the RuntimeException passes through.
  MethodBuilder Mid = P.addMethod(A, "mid", {}, TypeId::invalid());
  VarId MC = Mid.local("c", Other);
  Mid.virtualCall(VarId::invalid(), Mid.thisVar(), "inner", {}, {})
      .catchClause(Other, MC);

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("r", A);
  VarId Caught = Main.local("c", Throwable);
  Main.alloc(Recv, A)
      .virtualCall(VarId::invalid(), Recv, "mid", {}, {})
      .catchClause(Throwable, Caught);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, MC), 0u);
  ASSERT_EQ(siteCount(*S, Caught), 1u);
}

TEST_F(SolverTest, FirstMatchingCatchWins) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId EV = Main.local("e", Runtime);
  VarId C1 = Main.local("c1", Exception);
  VarId C2 = Main.local("c2", Throwable);
  Main.alloc(EV, Runtime)
      .throwStmt(EV)
      .catchClause(Exception, C1)   // matches first
      .catchClause(Throwable, C2);  // shadowed for RuntimeException

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, C1), 1u);
  EXPECT_EQ(siteCount(*S, C2), 0u);
}

TEST_F(SolverTest, ArrayStoreLoad) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId ArrTy = P.addArrayType(Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Arr = Main.local("arr", ArrTy);
  VarId X = Main.local("x", A);
  VarId Y = Main.local("y", Object);
  Main.alloc(Arr, ArrTy).alloc(X, A).arrayStore(Arr, X).arrayLoad(Y, Arr);

  auto S = analyze(Main.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, Y), 1u);
  EXPECT_EQ(S->varPointsToSites(Y), S->varPointsToSites(X));
}

TEST_F(SolverTest, StaticFieldFlow) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  FieldId F = P.addField(A, "instance", A, /*IsStatic=*/true);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  VarId Y = Main.local("y", A);
  Main.alloc(X, A).staticStore(F, X).staticLoad(Y, F);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(S->varPointsToSites(Y), S->varPointsToSites(X));
}

TEST_F(SolverTest, StringConstantsAreDistinctValues) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", StringTy);
  VarId Y = Main.local("y", StringTy);
  Main.stringConst(X, "userService").stringConst(Y, "mailService");

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(sitesOf(*S, X), (std::vector<std::string>{"userService"}));
  EXPECT_EQ(sitesOf(*S, Y), (std::vector<std::string>{"mailService"}));
}

TEST_F(SolverTest, RecursionTerminates) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Rec = P.addMethod(A, "rec", {Object}, Object);
  VarId RT = Rec.local("t", Object);
  Rec.virtualCall(RT, Rec.thisVar(), "rec", {Object}, {Rec.param(0)})
      .ret(RT)
      .ret(Rec.param(0)); // base case (flow-insensitive: both returns)

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("r", A);
  VarId Arg = Main.local("a", A);
  VarId Out = Main.local("o", Object);
  Main.alloc(Recv, A).alloc(Arg, A).virtualCall(Out, Recv, "rec", {Object},
                                                {Arg});

  auto S = analyze(Main.id(), 2, 1);
  EXPECT_TRUE(S->isMethodReachable(Rec.id()));
  EXPECT_EQ(siteCount(*S, Out), 1u);
}

TEST_F(SolverTest, CallGraphEdgesRecorded) {
  TypeId Base = P.addClass("Base", TypeKind::Class, Object);
  TypeId D1 = P.addClass("D1", TypeKind::Class, Base);
  TypeId D2 = P.addClass("D2", TypeKind::Class, Base);
  P.addMethod(D1, "go", {}, TypeId::invalid());
  P.addMethod(D2, "go", {}, TypeId::invalid());

  MethodBuilder Main = P.addMethod(Base, "main", {}, TypeId::invalid(), true);
  VarId O = Main.local("o", Base);
  // o may be D1 or D2: the virtual call has two targets (a poly v-call).
  Main.alloc(O, D1).alloc(O, D2).virtualCall(VarId::invalid(), O, "go", {},
                                             {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(S->callGraphEdges().size(), 2u);
}

TEST_F(SolverTest, SeedObjectFieldModelsInjection) {
  // Simulates bean field injection: no store statement exists, the
  // framework seeds the field directly (paper Section 3.5).
  TypeId Ctl = P.addClass("Ctl", TypeKind::Class, Object);
  TypeId Svc = P.addClass("Svc", TypeKind::Class, Object);
  FieldId Dep = P.addField(Ctl, "svc", Svc);

  MethodBuilder Handler = P.addMethod(Ctl, "handle", {}, Object);
  VarId HT = Handler.local("t", Svc);
  Handler.load(HT, Handler.thisVar(), Dep).ret(HT);

  P.finalize();
  AllocSiteId CtlSite =
      P.addSyntheticObject(Ctl, AllocKind::Generated, "<bean Ctl>");
  AllocSiteId SvcSite =
      P.addSyntheticObject(Svc, AllocKind::Generated, "<bean Svc>");

  Solver S(P, SolverConfig{0, 0});
  CtxId Empty = S.contexts().empty();
  ValueId CtlVal = S.internValue(CtlSite, Empty);
  ValueId SvcVal = S.internValue(SvcSite, Empty);
  S.makeReachable(Handler.id(), Empty);
  S.seedVar(P.method(Handler.id()).This, Empty, CtlVal);
  S.seedObjectField(CtlVal, Dep, SvcVal);
  S.solve();

  EXPECT_EQ(S.varPointsToSites(HT),
            (std::vector<AllocSiteId>{SvcSite}));
}

namespace plugintest {

/// Plugin that injects a seed exactly once, at the first fixpoint.
class OneShotSeed : public Plugin {
public:
  OneShotSeed(VarId Var, ValueId V) : Var(Var), V(V) {}
  bool onFixpoint(Solver &S) override {
    if (Done)
      return false;
    Done = true;
    S.seedVarAllContexts(Var, V);
    return true;
  }

private:
  VarId Var;
  ValueId V;
  bool Done = false;
};

} // namespace plugintest

TEST_F(SolverTest, PluginRoundsReSolve) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(A, "f", Object);

  // main: x is never assigned by code; a plugin injects into it after the
  // first fixpoint, and the store must then re-propagate.
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Holder = Main.local("h", A);
  VarId X = Main.local("x", Object);
  VarId Out = Main.local("out", Object);
  Main.alloc(Holder, A).store(Holder, F, X).load(Out, Holder, F);

  P.finalize();
  AllocSiteId PaySite =
      P.addSyntheticObject(Pay, AllocKind::Generated, "<injected>");

  Solver S(P, SolverConfig{0, 0});
  ValueId PayVal = S.internValue(PaySite, S.contexts().empty());
  plugintest::OneShotSeed Seed(X, PayVal);
  S.addPlugin(&Seed);
  S.makeReachable(Main.id(), S.contexts().empty());
  S.solve();

  EXPECT_EQ(S.varPointsToSites(Out),
            (std::vector<AllocSiteId>{PaySite}));
  EXPECT_GE(S.stats().PluginRounds, 2u);
  expectSetStoreInvariants(S);
}

TEST_F(SolverTest, UnreachableCodeStaysUnanalyzed) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Dead = P.addMethod(A, "dead", {}, TypeId::invalid());
  VarId DV = Dead.local("d", A);
  Dead.alloc(DV, A);

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  Main.alloc(X, A);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_FALSE(S->isMethodReachable(Dead.id()));
  EXPECT_EQ(siteCount(*S, DV), 0u);
}

/// The paper's central precision observation, reduced to its skeleton: a
/// "double dispatch" through an internally allocated helper drops one
/// context element. We verify the context machinery itself: K=2 keeps two
/// distinct client objects' data apart when the helper is the receiver the
/// client allocated, and conflates when dispatching through an
/// internally-allocated singleton-site helper.
TEST_F(SolverTest, InternalReceiverWeakensContext) {
  TypeId Map = P.addClass("MiniMap", TypeKind::Class, Object);
  TypeId Node = P.addClass("MiniNode", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId NodeF = P.addField(Map, "node", Node);
  FieldId ValF = P.addField(Node, "val", Object);

  // MiniMap() { this.node = new MiniNode(); }
  MethodBuilder Init = P.addMethod(Map, "<init>", {}, TypeId::invalid());
  VarId NV = Init.local("n", Node);
  Init.alloc(NV, Node).store(Init.thisVar(), NodeF, NV);

  // MiniNode.putVal(Object v) { this.val = v; }  -- the "double dispatch"
  MethodBuilder PutVal = P.addMethod(Node, "putVal", {Object},
                                     TypeId::invalid());
  PutVal.store(PutVal.thisVar(), ValF, PutVal.param(0));

  // MiniMap.put(Object v) { this.node.putVal(v); }
  MethodBuilder Put = P.addMethod(Map, "put", {Object}, TypeId::invalid());
  VarId PN = Put.local("n", Node);
  Put.load(PN, Put.thisVar(), NodeF)
      .virtualCall(VarId::invalid(), PN, "putVal", {Object}, {Put.param(0)});

  // MiniMap.get() { return this.node.val; }
  MethodBuilder Get = P.addMethod(Map, "get", {}, Object);
  VarId GN = Get.local("n", Node);
  VarId GV = Get.local("v", Object);
  Get.load(GN, Get.thisVar(), NodeF).load(GV, GN, ValF).ret(GV);

  MethodBuilder Main = P.addMethod(Map, "main", {}, TypeId::invalid(), true);
  VarId M1 = Main.local("m1", Map), M2 = Main.local("m2", Map);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(M1, Map)
      .specialCall(VarId::invalid(), M1, Init.id(), {})
      .alloc(M2, Map)
      .specialCall(VarId::invalid(), M2, Init.id(), {})
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), M1, "put", {Object}, {P1})
      .virtualCall(VarId::invalid(), M2, "put", {Object}, {P2})
      .virtualCall(X, M1, "get", {}, {})
      .virtualCall(Y, M2, "get", {}, {});

  // With H=1 the internal MiniNode is split per map, and 2objH keeps the
  // two maps' payloads apart end to end.
  auto S = analyze(Main.id(), 2, 1);
  EXPECT_EQ(siteCount(*S, X), 1u);
  EXPECT_EQ(siteCount(*S, Y), 1u);

  // With a context-insensitive heap the internal receiver is a single
  // abstract object: putVal's context is the same for both maps and the
  // payloads conflate — the degradation mechanism behind the paper's
  // TreeNode finding.
  auto S0 = analyze(Main.id(), 2, 0);
  EXPECT_EQ(siteCount(*S0, X), 2u);
  EXPECT_EQ(siteCount(*S0, Y), 2u);
}

/// Property sweep: deeper contexts are never less precise on this family of
/// programs (N independent container objects exchanging payloads).
class ContextDepthSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ContextDepthSweep, PrecisionOrder) {
  auto [NumBoxes, K] = GetParam();
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(Box, "f", Object);

  MethodBuilder SetM = P.addMethod(Box, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(Box, "get", {}, Object);
  VarId GT = GetM.local("t", Object);
  GetM.load(GT, GetM.thisVar(), F).ret(GT);

  MethodBuilder Main = P.addMethod(Box, "main", {}, TypeId::invalid(), true);
  std::vector<VarId> Outs;
  for (int I = 0; I != NumBoxes; ++I) {
    VarId B = Main.local("b" + std::to_string(I), Box);
    VarId Pv = Main.local("p" + std::to_string(I), Pay);
    VarId O = Main.local("o" + std::to_string(I), Object);
    Main.alloc(B, Box)
        .alloc(Pv, Pay)
        .virtualCall(VarId::invalid(), B, "set", {Object}, {Pv})
        .virtualCall(O, B, "get", {}, {});
    Outs.push_back(O);
  }
  P.finalize();

  Solver S(P, SolverConfig{static_cast<uint32_t>(K),
                           static_cast<uint32_t>(K > 0 ? 1 : 0)});
  S.makeReachable(Main.id(), S.contexts().empty());
  S.solve();

  for (VarId O : Outs) {
    size_t Count = S.varPointsToSites(O).size();
    if (K == 0)
      EXPECT_EQ(Count, static_cast<size_t>(NumBoxes));
    else
      EXPECT_EQ(Count, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContextDepthSweep,
    ::testing::Combine(::testing::Values(2, 3, 6),
                       ::testing::Values(0, 1, 2)));

/// The sharded drain's determinism contract at the unit level: the same
/// program solved at several worker counts yields identical points-to
/// sets, call-graph edge sequences, and (thread-invariant) stats. The
/// heavier session/provenance sweeps live in pointsto_parallel_test.cpp.
TEST(ThreadSweep, FixpointIsBitIdenticalAcrossWorkerCounts) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(Box, "f", Object);

  MethodBuilder SetM = P.addMethod(Box, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(Box, "get", {}, Object);
  VarId GT = GetM.local("t", Object);
  GetM.load(GT, GetM.thisVar(), F).ret(GT);

  MethodBuilder Main = P.addMethod(Box, "main", {}, TypeId::invalid(), true);
  for (int I = 0; I != 24; ++I) {
    VarId B = Main.local("b" + std::to_string(I), Box);
    VarId Pv = Main.local("p" + std::to_string(I), Pay);
    VarId O = Main.local("o" + std::to_string(I), Object);
    Main.alloc(B, Box)
        .alloc(Pv, Pay)
        .virtualCall(VarId::invalid(), B, "set", {Object}, {Pv})
        .virtualCall(O, B, "get", {}, {});
  }
  P.finalize();

  auto solveAt = [&](unsigned Threads) {
    auto S = std::make_unique<Solver>(P, SolverConfig{2, 1, Threads});
    S->makeReachable(Main.id(), S->contexts().empty());
    S->solve();
    return S;
  };

  std::unique_ptr<Solver> Base = solveAt(1);
  EXPECT_EQ(Base->config().Threads, 1u);
  for (unsigned Threads : {2u, 5u, 8u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    std::unique_ptr<Solver> S = solveAt(Threads);
    EXPECT_EQ(S->config().Threads, Threads);
    for (uint32_t VI = 0; VI != P.variableCount(); ++VI)
      EXPECT_EQ(S->varPointsToSites(VarId(VI)),
                Base->varPointsToSites(VarId(VI)));
    EXPECT_EQ(std::vector<uint64_t>(S->callGraphEdges().begin(),
                                    S->callGraphEdges().end()),
              std::vector<uint64_t>(Base->callGraphEdges().begin(),
                                    Base->callGraphEdges().end()));
    EXPECT_EQ(S->reachableMethods(), Base->reachableMethods());
    EXPECT_EQ(S->stats().WorkItems, Base->stats().WorkItems);
    EXPECT_EQ(S->stats().EdgesAdded, Base->stats().EdgesAdded);
    EXPECT_EQ(S->stats().ReactionsRun, Base->stats().ReactionsRun);
    EXPECT_EQ(S->stats().Rounds, Base->stats().Rounds);
    EXPECT_EQ(S->varPointsToTuplesTotal(), Base->varPointsToTuplesTotal());
  }
}

//===----------------------------------------------------------------------===//
// Set store: sorted sets, difference propagation, barrier replays
//===----------------------------------------------------------------------===//

class PointsToSetOrder : public SolverTest {};

/// `x` gets the later-interned value first (one hop) and the earlier one
/// three rounds later, so the merge has to insert below the set's end.
TEST_F(PointsToSetOrder, LateLowerValueIdMergesInOrder) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId First = Main.local("first", Object);
  VarId Second = Main.local("second", Object);
  VarId Hop1 = Main.local("hop1", Object);
  VarId Hop2 = Main.local("hop2", Object);
  VarId X = Main.local("x", Object);
  Main.alloc(First, A)
      .alloc(Second, A)
      .move(X, Second)
      .move(Hop1, First)
      .move(Hop2, Hop1)
      .move(X, Hop2);

  auto S = analyze(Main.id(), 0, 0); // checks every set ascends
  ASSERT_EQ(S->varInstances(X).size(), 1u);
  const std::vector<uint32_t> Set =
      S->pointsTo(S->varInstances(X)[0]).toVector();
  ASSERT_EQ(Set.size(), 2u);
  EXPECT_EQ(S->valueSiteId(ValueId(Set[0])), S->varPointsToSites(First)[0]);
  EXPECT_EQ(S->valueSiteId(ValueId(Set[1])), S->varPointsToSites(Second)[0]);
}

TEST(PointsToSetStore, Petstore2ObjHSetsAscendAndSumToWorkItems) {
  core::AnalysisSession Session;
  core::CellResult Cell =
      Session.open(synth::petstoreApp(), core::AnalysisKind::TwoObjH);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  ASSERT_GT(Cell->solver().stats().WorkItems, 0u);
  expectSetStoreInvariants(Cell->solver());
}

TEST(PointsToSetStore, WarmUpdateKeepsWorkItemsEqualToSetSizes) {
  core::AnalysisSession Session;
  core::CellResult Cell =
      Session.open(synth::petstoreApp(), core::AnalysisKind::TwoObjH);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  const uint32_t ColdPluginRounds = Cell->solver().stats().PluginRounds;
  const uint64_t ColdWork = Cell->solver().stats().WorkItems;

  // Insert-only config naming a class without an abstract object: the
  // warm path, which keeps the solver and extends its fixpoint.
  core::CellDelta Delta;
  Delta.AddConfigs.push_back(
      {"order-beans.xml",
       "<beans>\n  <bean id=\"order\" class=\"shop.Order\"/>\n</beans>\n"});
  core::AnalysisResult Updated = Cell->update(Delta);
  ASSERT_TRUE(Updated.ok()) << Updated.error().Message;

  const Solver &S = Cell->solver();
  EXPECT_GT(S.stats().PluginRounds, ColdPluginRounds) << "update was not warm";
  EXPECT_GT(S.stats().WorkItems, ColdWork);
  expectSetStoreInvariants(S);
}

/// Replays that feed a node from itself at the barrier: `x = x` (a
/// self-edge), `x.f = x` (a store into its own base) and `x = x.f` (a load
/// whose field edge targets its base). Each replay walks x's set while
/// queueing values for x; the fixpoint must not depend on the worker count.
TEST(PointsToSetStore, BarrierSelfReplaysMatchAcrossThreadCounts) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Node = P.addClass("Node", TypeKind::Class, Object);
  FieldId F = P.addField(Node, "f", Object);
  FieldId G = P.addField(Node, "g", Object);

  // Enough objects that the rounds exceed the inline threshold and run on
  // the pool at Threads > 1.
  constexpr int Objects = 160;
  MethodBuilder Main = P.addMethod(Node, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", Node);
  VarId Y = Main.local("y", Object);
  for (int I = 0; I != Objects; ++I)
    Main.alloc(X, Node);
  Main.move(X, X)
      .store(X, F, X)
      .load(X, X, F)
      .store(X, G, Y)
      .load(Y, X, G)
      .move(Y, X);
  P.finalize();

  auto solveAt = [&](unsigned Threads) {
    auto S = std::make_unique<Solver>(P, SolverConfig{1, 1, Threads});
    S->makeReachable(Main.id(), S->contexts().empty());
    S->solve();
    return S;
  };
  std::unique_ptr<Solver> Base = solveAt(1);
  EXPECT_EQ(Base->varPointsToSites(X).size(), size_t(Objects));
  EXPECT_EQ(Base->varPointsToSites(Y).size(), size_t(Objects));
  expectSetStoreInvariants(*Base);

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    std::unique_ptr<Solver> S = solveAt(Threads);
    expectSetStoreInvariants(*S);
    ASSERT_EQ(S->nodeCount(), Base->nodeCount());
    for (uint32_t NI = 0; NI != S->nodeCount(); ++NI)
      EXPECT_EQ(S->pointsTo(NodeId(NI)), Base->pointsTo(NodeId(NI)));
    EXPECT_EQ(S->stats().WorkItems, Base->stats().WorkItems);
    EXPECT_EQ(S->stats().EdgesAdded, Base->stats().EdgesAdded);
    EXPECT_EQ(S->stats().ReactionsRun, Base->stats().ReactionsRun);
    EXPECT_EQ(S->stats().Rounds, Base->stats().Rounds);
  }
}

//===----------------------------------------------------------------------===//
// Edge lists: appended at the barrier, deduplicated in the merge, replayed
// in the gather
//===----------------------------------------------------------------------===//

/// Every source of repeated edges: two identical moves in one body, two
/// identical loads (each arriving base object adds the same field edge
/// twice in one barrier), and three receivers dispatching to the same
/// callee context, the third a round later (argument, return and
/// throw-to-catch edges repeat within one tail and against the merged
/// list). Each distinct edge counts once, at every worker count.
TEST(PointsToEdgeList, DuplicateEdgesCountOnce) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  FieldId F = P.addField(Box, "f", Object);

  // Object id(Object p) { return p; }
  MethodBuilder IdM = P.addMethod(A, "id", {Object}, Object);
  IdM.ret(IdM.param(0));

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A), Y = Main.local("y", Object);
  VarId B = Main.local("b", Box), L = Main.local("l", Object);
  VarId R = Main.local("r", A), H = Main.local("h", A);
  VarId Ret = Main.local("ret", Object);
  Main.alloc(X, A)
      .move(Y, X)
      .move(Y, X) // x -> y, twice
      .alloc(B, Box)
      .store(B, F, X) // x -> Box.f
      .load(L, B, F)
      .load(L, B, F) // Box.f -> l, twice per Box object
      .alloc(R, A)
      .alloc(R, A)
      .alloc(H, A)
      .move(R, H) // h -> r; r gains h's object a round later
      .virtualCall(Ret, R, "id", {Object}, {X});
  P.finalize();
  // Distinct: x->y, x->Box.f, Box.f->l, h->r, and per dispatch to
  // id (three receivers, one context): x->p, p->ret, throw(id)->catch(main).
  constexpr uint64_t DistinctEdges = 7;

  auto solveAt = [&](unsigned Threads) {
    auto S = std::make_unique<Solver>(P, SolverConfig{0, 0, Threads});
    S->makeReachable(Main.id(), S->contexts().empty());
    S->solve();
    return S;
  };
  std::unique_ptr<Solver> Base = solveAt(1);
  EXPECT_EQ(Base->stats().EdgesAdded, DistinctEdges);
  EXPECT_EQ(Base->varPointsToSites(Ret), Base->varPointsToSites(X));
  EXPECT_EQ(Base->varPointsToSites(L), Base->varPointsToSites(X));
  EXPECT_EQ(Base->varPointsToSites(R).size(), 3u);
  expectSetStoreInvariants(*Base);

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    std::unique_ptr<Solver> S = solveAt(Threads);
    ASSERT_EQ(S->nodeCount(), Base->nodeCount());
    for (uint32_t NI = 0; NI != S->nodeCount(); ++NI)
      EXPECT_EQ(S->pointsTo(NodeId(NI)), Base->pointsTo(NodeId(NI)));
    EXPECT_EQ(S->stats().WorkItems, Base->stats().WorkItems);
    EXPECT_EQ(S->stats().EdgesAdded, DistinctEdges);
    EXPECT_EQ(S->stats().ReactionsRun, Base->stats().ReactionsRun);
    EXPECT_EQ(S->stats().Rounds, Base->stats().Rounds);
  }
}

/// `go() { y = (A) p; z = (A) q; }` is processed at the barrier, when the
/// call on `t` dispatches. `p` was seeded before solving, so it already
/// holds values when its cast edge is made; `q` is still empty and gains
/// its values from a plugin after the first fixpoint. Both targets must
/// end with exactly the values that pass the cast.
TEST(PointsToEdgeList, LateEdgeReplaysWholeFilteredSet) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId ASub = P.addClass("ASub", TypeKind::Class, A);
  TypeId Other = P.addClass("Other", TypeKind::Class, Object);
  TypeId T = P.addClass("T", TypeKind::Class, Object);

  MethodBuilder Go = P.addMethod(T, "go", {}, TypeId::invalid());
  VarId Pv = Go.local("p", Object), Q = Go.local("q", Object);
  VarId Y = Go.local("y", A), Z = Go.local("z", A);
  Go.cast(Y, A, Pv).cast(Z, A, Q);

  MethodBuilder Main = P.addMethod(T, "main", {}, TypeId::invalid(), true);
  VarId Tv = Main.local("t", T);
  Main.alloc(Tv, T).virtualCall(VarId::invalid(), Tv, "go", {}, {});
  P.finalize();

  Solver S(P, SolverConfig{0, 0, 1});
  const CtxId Empty = S.contexts().empty();
  std::vector<ValueId> All, Passing;
  for (TypeId Ty : {A, ASub, Other}) {
    AllocSiteId Site = P.addSyntheticObject(Ty, AllocKind::Generated, "<v>");
    All.push_back(S.internValue(Site, Empty));
    if (Ty != Other)
      Passing.push_back(All.back());
  }
  std::vector<uint32_t> Expected;
  for (ValueId V : Passing)
    Expected.push_back(V.rawValue());
  std::sort(Expected.begin(), Expected.end());

  std::vector<std::unique_ptr<plugintest::OneShotSeed>> Seeds;
  for (ValueId V : All) {
    S.seedVar(Pv, Empty, V);
    Seeds.push_back(std::make_unique<plugintest::OneShotSeed>(Q, V));
    S.addPlugin(Seeds.back().get());
  }
  S.makeReachable(Main.id(), Empty);
  S.solve();

  ASSERT_TRUE(S.isMethodReachable(Go.id()));
  EXPECT_GE(S.stats().PluginRounds, 2u);
  for (VarId Source : {Pv, Q}) {
    ASSERT_EQ(S.varInstances(Source).size(), 1u);
    EXPECT_EQ(S.pointsTo(S.varInstances(Source)[0]).size(), All.size());
  }
  for (VarId Target : {Y, Z}) {
    ASSERT_EQ(S.varInstances(Target).size(), 1u);
    EXPECT_EQ(S.pointsTo(S.varInstances(Target)[0]), Expected);
  }
  expectSetStoreInvariants(S);
}

/// The per-step wall seconds are published with every solve and reach the
/// metrics JSON (as volatile `pointsto.sched` samples).
TEST(PointsToSched, StepSecondsReachMetricsJson) {
  core::AnalysisSession Session;
  core::CellResult Cell =
      Session.open(synth::petstoreApp(), core::AnalysisKind::TwoObjH);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  const std::string Json = core::metricsToJson(Cell->metrics());
  for (const char *Key :
       {"\"observed.pointsto.sched.merge_s\"",
        "\"observed.pointsto.sched.phase_s\"",
        "\"observed.pointsto.sched.gather_s\"",
        "\"observed.pointsto.sched.barrier_s\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
}

//===----------------------------------------------------------------------===//
// Dense sets: bitmaps for sets longer than their bitmap, arrays otherwise
//===----------------------------------------------------------------------===//

/// The value of gauge \p Name in \p R.
double gaugeValue(const observe::MetricsRegistry &R, std::string_view Name) {
  for (const observe::MetricsRegistry::Sample &Sample : R.snapshot())
    if (Sample.Name == Name)
      return Sample.Value;
  ADD_FAILURE() << "no sample " << Name;
  return -1;
}

/// Seeds one batch of (variable, value) pairs per fixpoint, after calling
/// `Check` with the number of batches seeded so far.
class BatchSeeder : public Plugin {
public:
  struct Seed {
    VarId Var;
    ValueId V;
  };
  std::vector<std::vector<Seed>> Batches;
  std::function<void(Solver &, size_t)> Check;

  bool onFixpoint(Solver &S) override {
    Check(S, Next);
    if (Next == Batches.size())
      return false;
    for (const Seed &Sd : Batches[Next])
      S.seedVar(Sd.Var, S.contexts().empty(), Sd.V);
    ++Next;
    return true;
  }

private:
  size_t Next = 0;
};

/// A program with `main` holding the given locals, plus \p Values synthetic
/// objects interned as value ids 0 .. Values - 1.
struct DenseFixture {
  SymbolTable Symbols;
  Program P{Symbols};
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  TypeId StringTy = P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
};

/// x becomes a bitmap mid-solve, then receives a value below its first
/// set bit and one past its last word; w becomes a bitmap and then turns
/// back into an array when a value far past its last word arrives. The
/// sets read the same through every merge, and the byte gauges pin each
/// set's final form and exact size.
TEST(PointsToDenseSet, CrossesThresholdThenTakesLowerAndFarIds) {
  DenseFixture F;
  VarId X = F.Main.local("x", F.Object), W = F.Main.local("w", F.Object);
  F.P.finalize();

  Solver S(F.P, SolverConfig{0, 0, 1});
  std::vector<ValueId> Vals;
  for (int I = 0; I != 301; ++I)
    Vals.push_back(S.internValue(
        F.P.addSyntheticObject(F.A, AllocKind::Generated, "<v>"),
        S.contexts().empty()));
  ASSERT_EQ(Vals.back().rawValue(), 300u);

  BatchSeeder Seeder;
  auto Batch = [&](std::vector<std::pair<VarId, uint32_t>> Seeds) {
    std::vector<BatchSeeder::Seed> Out;
    for (auto [Var, V] : Seeds)
      Out.push_back({Var, Vals[V]});
    Seeder.Batches.push_back(Out);
  };
  // x: {64, 70, 90} is an array (3 values, 3 words); five more make it a
  // bitmap whose first two words are empty.
  Batch({{X, 64}, {X, 70}, {X, 90}});
  Batch({{X, 91}, {X, 92}, {X, 93}, {X, 94}, {X, 95}, {W, 0}, {W, 1},
         {W, 2}, {W, 3}, {W, 4}, {W, 5}, {W, 6}, {W, 7}});
  Batch({{X, 5}, {W, 300}}); // 9 values in w's 10 words: an array again
  Batch({{X, 130}});         // x grows from 3 to 5 words
  const std::vector<std::vector<uint32_t>> XAfter = {
      {},
      {64, 70, 90},
      {64, 70, 90, 91, 92, 93, 94, 95},
      {5, 64, 70, 90, 91, 92, 93, 94, 95},
      {5, 64, 70, 90, 91, 92, 93, 94, 95, 130}};
  const std::vector<std::vector<uint32_t>> WAfter = {
      {}, {}, {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7, 300},
      {0, 1, 2, 3, 4, 5, 6, 7, 300}};
  size_t Checks = 0;
  Seeder.Check = [&](Solver &Sv, size_t Merged) {
    ++Checks;
    for (auto [Var, After] : {std::pair{X, &XAfter}, std::pair{W, &WAfter}}) {
      if (Sv.varInstances(Var).empty()) {
        EXPECT_TRUE((*After)[Merged].empty());
        continue;
      }
      const SetView Set = Sv.pointsTo(Sv.varInstances(Var)[0]);
      const std::vector<uint32_t> &Want = (*After)[Merged];
      EXPECT_EQ(Set, Want) << "after batch " << Merged;
      EXPECT_EQ(Set.toVector(), Want);
      for (uint32_t V : {0u, 5u, 6u, 31u, 63u, 64u, 95u, 96u, 129u, 130u,
                         131u, 300u, 5000u})
        EXPECT_EQ(Set.contains(V),
                  std::binary_search(Want.begin(), Want.end(), V))
            << "value " << V << " after batch " << Merged;
    }
  };
  S.addPlugin(&Seeder);
  observe::MetricsRegistry Registry;
  S.setMetricsRegistry(&Registry);
  S.solve();

  EXPECT_EQ(Checks, Seeder.Batches.size() + 1);
  expectSetStoreInvariants(S);
  // x: a size word and exactly 5 bitmap words; w: an array rebuilt at
  // exactly its 9 values.
  EXPECT_EQ(gaugeValue(Registry, "pointsto.bytes.sets_dense"), 6 * 4);
  EXPECT_EQ(gaugeValue(Registry, "pointsto.bytes.sets_array"), 9 * 4);
}

/// `go() { y = (A) p; }` is processed at the barrier, after `p` — seeded
/// with 96 values of three types before solving — became a bitmap. The
/// replay walks the bitmap through the cast filter.
TEST(PointsToDenseSet, ReplayFromBitmapThroughCastFilter) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId ASub = P.addClass("ASub", TypeKind::Class, A);
  TypeId Other = P.addClass("Other", TypeKind::Class, Object);
  TypeId T = P.addClass("T", TypeKind::Class, Object);

  MethodBuilder Go = P.addMethod(T, "go", {}, TypeId::invalid());
  VarId Pv = Go.local("p", Object), Y = Go.local("y", A);
  Go.cast(Y, A, Pv);
  MethodBuilder Main = P.addMethod(T, "main", {}, TypeId::invalid(), true);
  VarId Tv = Main.local("t", T);
  Main.alloc(Tv, T).virtualCall(VarId::invalid(), Tv, "go", {}, {});
  P.finalize();

  Solver S(P, SolverConfig{0, 0, 1});
  const CtxId Empty = S.contexts().empty();
  std::vector<uint32_t> Expected;
  for (int I = 0; I != 96; ++I) {
    const TypeId Ty = I % 3 == 0 ? A : I % 3 == 1 ? Other : ASub;
    ValueId V = S.internValue(
        P.addSyntheticObject(Ty, AllocKind::Generated, "<v>"), Empty);
    S.seedVar(Pv, Empty, V);
    if (Ty != Other)
      Expected.push_back(V.rawValue());
  }
  observe::MetricsRegistry Registry;
  S.setMetricsRegistry(&Registry);
  S.makeReachable(Main.id(), Empty);
  S.solve();

  ASSERT_TRUE(S.isMethodReachable(Go.id()));
  ASSERT_EQ(S.varInstances(Y).size(), 1u);
  EXPECT_EQ(S.pointsTo(S.varInstances(Pv)[0]).size(), 96u);
  EXPECT_EQ(S.pointsTo(S.varInstances(Y)[0]), Expected);
  // p (96 values) and y (64 values) are bitmaps of 3 words each.
  EXPECT_EQ(gaugeValue(Registry, "pointsto.bytes.sets_dense"), 2 * 4 * 4);
  expectSetStoreInvariants(S);
}

/// Seeds a new object field for every value of x while iterating x's
/// bitmap: each seed interns a node and the per-node tables reallocate
/// under the iteration, which must still see every value once.
class FieldPerValueSeeder : public Plugin {
public:
  FieldPerValueSeeder(VarId X, VarId Y, FieldId G) : X(X), Y(Y), G(G) {}
  bool onFixpoint(Solver &S) override {
    if (!Seen.empty())
      return false;
    NodesBefore = S.nodeCount();
    for (uint32_t V : S.pointsTo(S.varInstances(X)[0])) {
      Seen.push_back(V);
      S.seedObjectField(ValueId(V), G, ValueId(V));
      S.seedVar(Y, S.contexts().empty(), ValueId(V));
    }
    return true;
  }
  std::vector<uint32_t> Seen;
  uint32_t NodesBefore = 0;

private:
  VarId X, Y;
  FieldId G;
};

TEST(PointsToDenseSet, PluginIteratesWhileInterningNodes) {
  DenseFixture F;
  FieldId G = F.P.addField(F.A, "g", F.Object);
  VarId X = F.Main.local("x", F.A), Y = F.Main.local("y", F.A);
  VarId R = F.Main.local("r", F.Object);
  F.Main.load(R, Y, G); // r gains the seeded fields once y gains values
  F.P.finalize();

  Solver S(F.P, SolverConfig{0, 0, 1});
  const CtxId Empty = S.contexts().empty();
  std::vector<uint32_t> All;
  for (int I = 0; I != 200; ++I) {
    ValueId V = S.internValue(
        F.P.addSyntheticObject(F.A, AllocKind::Generated, "<v>"), Empty);
    S.seedVar(X, Empty, V);
    All.push_back(V.rawValue());
  }
  FieldPerValueSeeder Seeder(X, Y, G);
  S.addPlugin(&Seeder);
  S.makeReachable(F.Main.id(), Empty);
  S.solve();

  EXPECT_EQ(Seeder.Seen, All);
  EXPECT_GE(S.nodeCount(), Seeder.NodesBefore + 200);
  ASSERT_EQ(S.varInstances(R).size(), 1u);
  EXPECT_EQ(S.pointsTo(S.varInstances(R)[0]), All);
  expectSetStoreInvariants(S);
}

/// Bitmaps built, grown and replayed in rounds large enough for the pool:
/// every set, stat and byte gauge matches the 1-thread run.
TEST(PointsToDenseSet, EqualAcrossThreadCounts) {
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  TypeId Sub = P.addClass("Sub", TypeKind::Class, Box);
  FieldId F = P.addField(Box, "f", Object);

  MethodBuilder Main = P.addMethod(Box, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", Box), Y = Main.local("y", Object);
  VarId Z = Main.local("z", Object), W = Main.local("w", Sub);
  for (int I = 0; I != 160; ++I)
    Main.alloc(X, I % 2 ? Box : Sub);
  Main.move(Y, X).store(X, F, Y).load(Z, X, F).cast(W, Sub, Z).move(X, W);
  P.finalize();

  auto solveAt = [&](unsigned Threads, observe::MetricsRegistry &Registry) {
    auto S = std::make_unique<Solver>(P, SolverConfig{1, 1, Threads});
    S->setMetricsRegistry(&Registry);
    S->makeReachable(Main.id(), S->contexts().empty());
    S->solve();
    return S;
  };
  const char *Gauges[] = {"pointsto.bytes.sets_array",
                          "pointsto.bytes.sets_dense", "pointsto.bytes.edges",
                          "pointsto.bytes.nodes",
                          "pointsto.bytes.round_arenas"};
  observe::MetricsRegistry BaseRegistry;
  std::unique_ptr<Solver> Base = solveAt(1, BaseRegistry);
  EXPECT_EQ(Base->varPointsToSites(Z).size(), 160u);
  EXPECT_EQ(Base->varPointsToSites(W).size(), 80u);
  EXPECT_GT(gaugeValue(BaseRegistry, "pointsto.bytes.sets_dense"), 0);
  expectSetStoreInvariants(*Base);

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    observe::MetricsRegistry Registry;
    std::unique_ptr<Solver> S = solveAt(Threads, Registry);
    EXPECT_GT(gaugeValue(Registry, "pointsto.sched.parallel_rounds"), 0);
    ASSERT_EQ(S->nodeCount(), Base->nodeCount());
    for (uint32_t NI = 0; NI != S->nodeCount(); ++NI)
      EXPECT_EQ(S->pointsTo(NodeId(NI)), Base->pointsTo(NodeId(NI)));
    EXPECT_EQ(S->stats().WorkItems, Base->stats().WorkItems);
    EXPECT_EQ(S->stats().EdgesAdded, Base->stats().EdgesAdded);
    EXPECT_EQ(S->stats().ReactionsRun, Base->stats().ReactionsRun);
    EXPECT_EQ(S->stats().Rounds, Base->stats().Rounds);
    for (const char *Gauge : Gauges)
      EXPECT_EQ(gaugeValue(Registry, Gauge), gaugeValue(BaseRegistry, Gauge))
          << Gauge;
  }
}

/// The owned-bytes gauges reach the metrics JSON, and the round arenas are
/// freed once `solve()` returns.
TEST(PointsToBytes, GaugesReachMetricsJsonAndArenasAreReleased) {
  core::AnalysisSession Session;
  core::CellResult Cell =
      Session.open(synth::petstoreApp(), core::AnalysisKind::TwoObjH);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  const std::string Json = core::metricsToJson(Cell->metrics());
  for (const char *Key : {"\"observed.pointsto.bytes.sets_array\"",
                          "\"observed.pointsto.bytes.sets_dense\"",
                          "\"observed.pointsto.bytes.edges\"",
                          "\"observed.pointsto.bytes.nodes\"",
                          "\"observed.pointsto.bytes.round_arenas\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
  std::map<std::string, double> Observed(Cell->metrics().Observed.begin(),
                                         Cell->metrics().Observed.end());
  EXPECT_EQ(Observed.at("pointsto.bytes.round_arenas"), 0);
  EXPECT_GT(Observed.at("pointsto.bytes.sets_array") +
                Observed.at("pointsto.bytes.sets_dense"),
            0);
  EXPECT_GT(Observed.at("pointsto.bytes.edges"), 0);
  EXPECT_GT(Observed.at("pointsto.bytes.nodes"), 0);
}

//===----------------------------------------------------------------------===//
// Context interning
//===----------------------------------------------------------------------===//

/// `intern`, `appendAndTruncate` and `truncate` agree on the id of a
/// sequence, and looking up a known sequence adds no context — through
/// the stack buffer and through the long-sequence path alike.
TEST(PointsToContext, EntryPointsShareIdsWithoutGrowing) {
  ContextTable T;
  std::vector<AllocSiteId> Sites;
  for (uint32_t I = 0; I != 12; ++I)
    Sites.push_back(AllocSiteId(I));
  auto Seq = [&](size_t From, size_t To) {
    return std::span<const AllocSiteId>(Sites.data() + From, To - From);
  };
  const CtxId S1 = T.intern(Seq(1, 2)), S12 = T.intern(Seq(1, 3));
  const CtxId S012 = T.intern(Seq(0, 3)), S2 = T.intern(Seq(2, 3));
  const CtxId Long = T.intern(Seq(0, 10)), LongPlus = T.intern(Seq(0, 11));
  const CtxId Tail = T.intern(Seq(2, 11));
  const size_t Size = T.size();

  EXPECT_EQ(T.intern(Seq(1, 3)), S12);
  EXPECT_EQ(T.appendAndTruncate(S1, Sites[2], 2), S12);
  EXPECT_EQ(T.appendAndTruncate(S012, Sites[2], 1), S2);
  EXPECT_EQ(T.appendAndTruncate(S1, Sites[2], 0), T.empty());
  EXPECT_EQ(T.truncate(S012, 2), S12);
  EXPECT_EQ(T.truncate(S012, 1), S2);
  EXPECT_EQ(T.truncate(S012, 3), S012);
  EXPECT_EQ(T.truncate(S012, 0), T.empty());
  EXPECT_EQ(T.appendAndTruncate(Long, Sites[10], 11), LongPlus);
  EXPECT_EQ(T.appendAndTruncate(Long, Sites[10], 9), Tail);
  EXPECT_EQ(T.truncate(LongPlus, 9), Tail);
  EXPECT_EQ(T.size(), Size);
  EXPECT_EQ(T.elements(Tail), std::vector<AllocSiteId>(Sites.begin() + 2,
                                                       Sites.begin() + 11));
}

} // namespace
