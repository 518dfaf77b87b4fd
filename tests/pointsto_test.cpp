//===- pointsto_test.cpp - Points-to solver semantics tests ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "pointsto/Solver.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>
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
    const std::vector<uint32_t> &Set = S.pointsTo(NodeId(NI));
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
  const std::vector<uint32_t> &Set = S->pointsTo(S->varInstances(X)[0]);
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

} // namespace
