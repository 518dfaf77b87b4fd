//===- Solver.cpp ---------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/Solver.h"

#include "observe/Metrics.h"
#include "support/Env.h"
#include "support/WorkQueue.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

const std::vector<NodeId> Solver::NoInstances;

namespace {

/// Resolves `SolverConfig::Threads == 0` the same way the Datalog evaluator
/// resolves `JACKEE_THREADS`: environment variable first, then the
/// hardware, clamped to [1, 256].
unsigned resolveSolverThreads(unsigned Requested) {
  return env::resolveWorkerCount(Requested, "JACKEE_SOLVER_THREADS");
}

/// Rounds smaller than this run inline even at Threads > 1: two pool
/// barriers cost more than propagating a handful of items. Purely a
/// scheduling decision — both paths execute the identical staged algorithm
/// in the identical order.
constexpr size_t ParallelRoundThreshold = 128;

/// Scrambles a packed key for the open-addressing node table (MurmurHash3's
/// 64-bit finalizer): ids are dense, so their low bits alone cluster.
uint64_t mixBits(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return H;
}

/// A set of dense ids (alloc sites, values) emptied in O(1) by bumping an
/// epoch. Per thread, so concurrent queries, and the gather tasks of one
/// round, never share one.
class StampSet {
public:
  /// Empties the set and sizes it for ids below \p Universe.
  void reset(size_t Universe) {
    if (Stamps.size() < Universe)
      Stamps.resize(Universe, 0);
    if (++Epoch == 0) { // wrapped: old stamps could alias the new epoch
      std::fill(Stamps.begin(), Stamps.end(), 0);
      Epoch = 1;
    }
  }
  /// \returns true if \p Id was not in the set.
  bool insert(uint32_t Id) {
    if (Stamps[Id] == Epoch)
      return false;
    Stamps[Id] = Epoch;
    return true;
  }

private:
  std::vector<uint32_t> Stamps;
  uint32_t Epoch = 0;
};

/// This thread's stamp set, emptied, for ids below \p Universe.
StampSet &emptyStampSet(size_t Universe) {
  thread_local StampSet Set;
  Set.reset(Universe);
  return Set;
}

/// Unions the sorted run \p New[0, Add), none of whose elements \p Dst
/// holds, into the sorted \p Dst in place: grows it and merges from the
/// back, so no buffer beyond the run is needed.
template <typename T, typename LessFn>
void unionFromBack(std::vector<T> &Dst, const T *New, size_t Add,
                   LessFn Less) {
  size_t Old = Dst.size();
  Dst.resize(Old + Add);
  for (size_t Out = Old + Add; Add != 0;) {
    if (Old != 0 && Less(New[Add - 1], Dst[Old - 1]))
      Dst[--Out] = Dst[--Old];
    else
      Dst[--Out] = New[--Add];
  }
}

/// Frees \p V's buffer: `V = {}` would pick the initializer-list
/// assignment, which empties the vector but keeps its capacity.
template <typename T> void release(std::vector<T> &V) {
  std::vector<T>().swap(V);
}

template <typename T> uint64_t capacityBytes(const std::vector<T> &V) {
  return uint64_t(V.capacity()) * sizeof(T);
}

} // namespace

Solver::Solver(const Program &P, SolverConfig Config)
    : P(P), Config(Config), Shards(NumShards) {
  this->Config.Threads = resolveSolverThreads(Config.Threads);
}

Solver::~Solver() = default;

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

ValueId Solver::internValue(AllocSiteId Site, CtxId HeapCtx) {
  uint64_t Key = packPair(Site.rawValue(), HeapCtx.rawValue());
  auto It = ValueLookup.find(Key);
  if (It != ValueLookup.end())
    return ValueId(It->second);
  uint32_t Index = static_cast<uint32_t>(Values.size());
  Values.push_back({Site, HeapCtx});
  ValueLookup.emplace(Key, Index);
  return ValueId(Index);
}

size_t Solver::nodeSlot(NodeKind Kind, uint32_t A, uint32_t B) const {
  const size_t Mask = NodeSlots.size() - 1;
  for (size_t I = mixBits(packPair(A, B) ^ (uint64_t(Kind) << 59)) & Mask;;
       I = (I + 1) & Mask) {
    const uint32_t Index = NodeSlots[I];
    if (Index == EmptySlot)
      return I;
    const Node &N = Nodes[Index];
    if (N.Kind == Kind && N.A == A && N.B == B)
      return I;
  }
}

NodeId Solver::internNode(NodeKind Kind, uint32_t A, uint32_t B) {
  if ((Nodes.size() + 1) * 2 > NodeSlots.size()) {
    std::vector<uint32_t> Old(std::max<size_t>(NodeSlots.size() * 2, 1024),
                              EmptySlot);
    Old.swap(NodeSlots);
    for (uint32_t Index : Old)
      if (Index != EmptySlot) {
        const Node &N = Nodes[Index];
        NodeSlots[nodeSlot(N.Kind, N.A, N.B)] = Index;
      }
  }
  uint32_t &Slot = NodeSlots[nodeSlot(Kind, A, B)];
  if (Slot != EmptySlot)
    return NodeId(Slot);
  uint32_t Index = static_cast<uint32_t>(Nodes.size());
  Slot = Index;
  Nodes.push_back({Kind, false, A, B});
  PointsTo.emplace_back();
  Edges.emplace_back();
  EdgesSorted.push_back(0);
  Reactions.emplace_back();

  if (Kind == NodeKind::Var) {
    if (A >= VarNodes.size())
      VarNodes.resize(std::max<size_t>(P.variableCount(), A + 1));
    VarNodes[A].push_back(NodeId(Index));
  }
  return NodeId(Index);
}

NodeId Solver::varNode(VarId Var, CtxId Ctx) {
  return internNode(NodeKind::Var, Var.index(), Ctx.index());
}
NodeId Solver::fieldNode(ValueId Base, FieldId F) {
  return internNode(NodeKind::ObjectField, Base.index(), F.index());
}
NodeId Solver::arrayNode(ValueId Base) {
  return internNode(NodeKind::ArrayContents, Base.index(), 0);
}
NodeId Solver::staticNode(FieldId F) {
  return internNode(NodeKind::StaticField, F.index(), 0);
}
NodeId Solver::throwNode(CMethodId CM) {
  return internNode(NodeKind::MethodThrow, CM.index(), 0);
}
NodeId Solver::catchNode(CMethodId CM) {
  return internNode(NodeKind::CatchDispatch, CM.index(), 0);
}

CMethodId Solver::internCMethod(MethodId M, CtxId Ctx) {
  uint64_t Key = packPair(M.rawValue(), Ctx.rawValue());
  auto It = CMethodLookup.find(Key);
  if (It != CMethodLookup.end())
    return CMethodId(It->second);
  uint32_t Index = static_cast<uint32_t>(CMethods.size());
  CMethods.push_back({M, Ctx});
  CMethodLookup.emplace(Key, Index);
  return CMethodId(Index);
}

//===----------------------------------------------------------------------===//
// Core propagation
//===----------------------------------------------------------------------===//

bool Solver::passesFilter(ValueId V, TypeId Filter) const {
  if (!Filter.isValid())
    return true;
  return P.isSubtype(valueType(V), Filter);
}

void Solver::propagate(NodeId N, ValueId V) {
  // Sets mutate only in the merge step, so this only queues V; the set
  // check just keeps known values out of the buffer.
  if (!pointsTo(N).contains(V.rawValue()))
    Shards[shardOf(N)].Incoming.push_back(
        packPair(N.rawValue(), V.rawValue()));
}

void Solver::addEdge(NodeId From, NodeId To, TypeId Filter) {
  // Edge lists mutate only in the merge, so this only appends. The next
  // merge folds the tail in (dropping repeats) before the phase stages
  // From's next delta along it; the next gather sends the set From holds
  // by then, which covers everything the delta misses.
  std::vector<Edge> &List = Edges[From.index()];
  Shard &FromShard = Shards[shardOf(From)];
  if (List.size() == EdgesSorted[From.index()])
    FromShard.DirtyEdges.push_back(From.index());
  FromShard.EdgeBytes -= capacityBytes(List);
  List.push_back({To, Filter});
  FromShard.EdgeBytes += capacityBytes(List);
  if (!PointsTo[From.index()].empty())
    Shards[shardOf(To)].Replays.push_back(
        {To.index(), ReplayShard, From.index(), Filter});
}

void Solver::addReaction(NodeId N, Reaction R) {
  std::vector<Reaction> &List = Reactions[N.index()];
  ReactionBytes -= capacityBytes(List);
  List.push_back(R);
  ReactionBytes += capacityBytes(List);
  // Reactions intern nodes, which reallocates the per-node tables but not
  // the set's own buffer, and the set cannot change before the next merge,
  // so the view stays valid throughout.
  pointsTo(N).forEach([&](uint32_t V) { applyReaction(R, ValueId(V)); });
}

void Solver::applyReaction(const Reaction &R, ValueId V) {
  const Statement &S = *R.Stmt;
  switch (R.RKind) {
  case Reaction::Kind::LoadBase:
    addEdge(fieldNode(V, S.FieldRef), varNode(S.Dst, R.Ctx));
    return;
  case Reaction::Kind::StoreBase:
    addEdge(varNode(S.Src, R.Ctx), fieldNode(V, S.FieldRef));
    return;
  case Reaction::Kind::ArrayLoadBase:
    addEdge(arrayNode(V), varNode(S.Dst, R.Ctx));
    return;
  case Reaction::Kind::ArrayStoreBase:
    addEdge(varNode(S.Src, R.Ctx), arrayNode(V));
    return;
  case Reaction::Kind::VirtualCall: {
    MethodId Target = P.resolveVirtual(valueType(V), S.CalleeSignature);
    if (!Target.isValid())
      return; // no concrete implementation on this receiver type
    CtxId CalleeCtx = Ctxs.appendAndTruncate(valueHeapCtx(V), valueSiteId(V),
                                             Config.ContextDepth);
    wireCall(S, R.Ctx, R.CallerCM, Target, CalleeCtx, V);
    return;
  }
  case Reaction::Kind::SpecialCall: {
    // Fixed target, but the callee context is still derived from the
    // receiver object (object sensitivity analyzes constructors under the
    // allocated object's context).
    CtxId CalleeCtx = Ctxs.appendAndTruncate(valueHeapCtx(V), valueSiteId(V),
                                             Config.ContextDepth);
    wireCall(S, R.Ctx, R.CallerCM, S.DirectCallee, CalleeCtx, V);
    return;
  }
  }
}

void Solver::dispatchCatch(CMethodId CM, ValueId V) {
  const Method &M = P.method(CMethods[CM.index()].M);
  CtxId Ctx = CMethods[CM.index()].Ctx;
  for (const CatchClause &Clause : M.Catches) {
    if (P.isSubtype(valueType(V), Clause.CaughtType)) {
      propagate(varNode(Clause.Var, Ctx), V);
      return; // first matching handler catches (Java semantics)
    }
  }
  propagate(throwNode(CM), V); // uncaught: escapes to callers
}

//===----------------------------------------------------------------------===//
// Reachability and call wiring
//===----------------------------------------------------------------------===//

void Solver::makeReachable(MethodId M, CtxId Ctx) {
  CMethodId CM = internCMethod(M, Ctx);
  if (!ReachableSet.insert(CM.rawValue()))
    return;
  if (M.index() >= MethodReached.size())
    MethodReached.resize(P.methodCount(), false);
  MethodReached[M.index()] = true;
  if (!P.method(M).IsAbstract)
    processBody(CM);
}

void Solver::processBody(CMethodId CM) {
  MethodId MId = CMethods[CM.index()].M;
  CtxId Ctx = CMethods[CM.index()].Ctx;
  const Method &M = P.method(MId);

  for (const Statement &S : M.Statements) {
    switch (S.Op) {
    case Opcode::Alloc:
    case Opcode::StringConst: {
      CtxId HeapCtx = Ctxs.truncate(Ctx, Config.HeapDepth);
      propagate(varNode(S.Dst, Ctx), internValue(S.Site, HeapCtx));
      break;
    }
    case Opcode::Move:
      addEdge(varNode(S.Src, Ctx), varNode(S.Dst, Ctx));
      break;
    case Opcode::Cast: {
      NodeId SrcNode = varNode(S.Src, Ctx);
      addEdge(SrcNode, varNode(S.Dst, Ctx), S.TypeRef);
      auto [It, Inserted] =
          CastIndex.emplace(&S, static_cast<uint32_t>(Casts.size()));
      if (Inserted)
        Casts.push_back(
            {S.TypeRef, P.type(M.DeclaringType).IsApplication, {}});
      Casts[It->second].SourceNodes.push_back(SrcNode);
      break;
    }
    case Opcode::Load:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::LoadBase, &S, Ctx, CM});
      break;
    case Opcode::Store:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::StoreBase, &S, Ctx, CM});
      break;
    case Opcode::ArrayLoad:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::ArrayLoadBase, &S, Ctx, CM});
      break;
    case Opcode::ArrayStore:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::ArrayStoreBase, &S, Ctx, CM});
      break;
    case Opcode::StaticLoad:
      addEdge(staticNode(S.FieldRef), varNode(S.Dst, Ctx));
      break;
    case Opcode::StaticStore:
      addEdge(varNode(S.Src, Ctx), staticNode(S.FieldRef));
      break;
    case Opcode::VirtualCall:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::VirtualCall, &S, Ctx, CM});
      break;
    case Opcode::SpecialCall:
      addReaction(varNode(S.Base, Ctx),
                  {Reaction::Kind::SpecialCall, &S, Ctx, CM});
      break;
    case Opcode::StaticCall:
      // Static calls inherit the caller's context (Doop's default).
      wireCall(S, Ctx, CM, S.DirectCallee, Ctx, ValueId::invalid());
      break;
    case Opcode::Return:
      break; // wired per established call edge
    case Opcode::Throw:
      addEdge(varNode(S.Src, Ctx), catchNode(CM));
      break;
    }
  }
}

void Solver::wireCall(const Statement &S, CtxId CallerCtx, CMethodId CallerCM,
                      MethodId Callee, CtxId CalleeCtx, ValueId Receiver) {
  const Method &CalleeM = P.method(Callee);
  if (CalleeM.IsAbstract)
    return;

  CMethodId CalleeCM = internCMethod(Callee, CalleeCtx);
  makeReachable(Callee, CalleeCtx);
  CallEdges.insert(packPair(S.Invoke.index(), Callee.index()));

  if (Receiver.isValid() && CalleeM.This.isValid())
    propagate(varNode(CalleeM.This, CalleeCtx), Receiver);

  size_t ArgCount = std::min(S.Args.size(), CalleeM.Params.size());
  for (size_t I = 0; I != ArgCount; ++I)
    if (S.Args[I].isValid())
      addEdge(varNode(S.Args[I], CallerCtx),
              varNode(CalleeM.Params[I], CalleeCtx));

  if (S.Dst.isValid())
    for (const Statement &CalleeStmt : CalleeM.Statements)
      if (CalleeStmt.Op == Opcode::Return && CalleeStmt.Src.isValid())
        addEdge(varNode(CalleeStmt.Src, CalleeCtx),
                varNode(S.Dst, CallerCtx));

  // Exceptions escaping the callee reach the caller's catch routing.
  addEdge(throwNode(CalleeCM), catchNode(CallerCM));
}

//===----------------------------------------------------------------------===//
// Seeding and solving
//===----------------------------------------------------------------------===//

void Solver::seedVar(VarId Var, CtxId Ctx, ValueId V) {
  propagate(varNode(Var, Ctx), V);
}

void Solver::seedVarAllContexts(VarId Var, ValueId V) {
  if (Var.index() >= VarNodes.size())
    return;
  const std::vector<NodeId> &Instances = VarNodes[Var.index()];
  for (size_t I = 0, E = Instances.size(); I != E; ++I)
    propagate(Instances[I], V);
}

void Solver::seedObjectField(ValueId Base, FieldId F, ValueId V) {
  propagate(fieldNode(Base, F), V);
}

void Solver::unionIntoSet(uint32_t NIdx, const uint32_t *New, uint32_t Add) {
  // The form is a function of the contents alone — dense iff the array
  // would be longer than the bitmap — so equal sets are stored alike.
  std::vector<uint32_t> &Raw = PointsTo[NIdx];
  Node &N = Nodes[NIdx];
  const SetView Old = pointsTo(NodeId(NIdx));
  const size_t Size = Old.size() + Add;
  uint32_t LastWord = New[Add - 1] >> 5;
  if (N.Dense)
    LastWord = std::max(LastWord, static_cast<uint32_t>(Raw.size() - 2));
  else if (!Raw.empty())
    LastWord = std::max(LastWord, Raw.back() >> 5);
  const bool Dense = Size > size_t(LastWord) + 1;

  if (!Dense && !N.Dense) {
    unionFromBack(Raw, New, Add, std::less<uint32_t>());
    return;
  }
  if (Dense && N.Dense) {
    // Grow to exactly the words needed; geometric slack would undo much
    // of what the bitmap saves.
    if (Raw.size() < size_t(LastWord) + 2) {
      Raw.reserve(size_t(LastWord) + 2);
      Raw.resize(size_t(LastWord) + 2, 0);
    }
    for (uint32_t I = 0; I != Add; ++I)
      Raw[1 + (New[I] >> 5)] |= uint32_t(1) << (New[I] & 31);
    Raw[0] += Add;
    return;
  }
  // The form changes: rebuild the set in the other form.
  std::vector<uint32_t> Rebuilt;
  if (Dense) {
    Rebuilt.assign(size_t(LastWord) + 2, 0);
    Rebuilt[0] = static_cast<uint32_t>(Size);
    auto SetBit = [&Rebuilt](uint32_t V) {
      Rebuilt[1 + (V >> 5)] |= uint32_t(1) << (V & 31);
    };
    Old.forEach(SetBit);
    std::for_each(New, New + Add, SetBit);
  } else {
    // A bitmap that received a value far past its last word.
    Rebuilt.reserve(Size);
    Old.forEach([&Rebuilt](uint32_t V) { Rebuilt.push_back(V); });
    unionFromBack(Rebuilt, New, Add, std::less<uint32_t>());
  }
  Raw.swap(Rebuilt);
  N.Dense = Dense;
}

void Solver::mergeShard(uint32_t ShardIndex) {
  // Only this task touches the shard's incoming buffer, deltas, byte
  // counts, and the sets (and form flags) of its nodes, so concurrent
  // merges cannot race. The outcome
  // depends only on the incoming *multiset*, never on its order. Every
  // appender checked membership, and sets change only here, so after
  // dedup each incoming value is new: a node's run is its delta.
  Shard &S = Shards[ShardIndex];
  S.Deltas.clear();
  S.DeltaValues.clear();
  std::vector<uint64_t> &In = S.Incoming;
  std::sort(In.begin(), In.end());
  In.erase(std::unique(In.begin(), In.end()), In.end());
  for (size_t I = 0, E = In.size(); I != E;) {
    const uint32_t NIdx = static_cast<uint32_t>(In[I] >> 32);
    const uint32_t Begin = static_cast<uint32_t>(S.DeltaValues.size());
    for (; I != E && static_cast<uint32_t>(In[I] >> 32) == NIdx; ++I)
      S.DeltaValues.push_back(static_cast<uint32_t>(In[I]));
    const uint32_t Size =
        static_cast<uint32_t>(S.DeltaValues.size()) - Begin;
    S.Deltas.push_back({NodeId(NIdx), Begin, Size});
    const std::vector<uint32_t> &Set = PointsTo[NIdx];
    S.SetBytes[Nodes[NIdx].Dense] -= capacityBytes(Set);
    unionIntoSet(NIdx, S.DeltaValues.data() + Begin, Size);
    S.SetBytes[Nodes[NIdx].Dense] += capacityBytes(Set);
  }
  // Release rather than clear: shards peak in different rounds, and kept
  // capacities would add up across all 64 of them.
  std::vector<uint64_t>().swap(In);
  S.TotalItems += S.DeltaValues.size();

  // Edge tails: keep each edge once, whether it repeats within the tail or
  // is already in the sorted prefix. The survivors are the new edges.
  auto EdgeLess = [](const Edge &A, const Edge &B) {
    return packPair(A.Target.rawValue(), A.Filter.rawValue()) <
           packPair(B.Target.rawValue(), B.Filter.rawValue());
  };
  S.NewEdges = 0;
  for (uint32_t NIdx : S.DirtyEdges) {
    std::vector<Edge> &List = Edges[NIdx];
    S.EdgeBytes -= capacityBytes(List);
    const auto Prefix = List.begin() + EdgesSorted[NIdx];
    std::sort(Prefix, List.end(), EdgeLess);
    S.EdgeTail.clear();
    for (auto It = Prefix; It != List.end(); ++It)
      if ((S.EdgeTail.empty() || EdgeLess(S.EdgeTail.back(), *It)) &&
          !std::binary_search(List.begin(), Prefix, *It, EdgeLess))
        S.EdgeTail.push_back(*It);
    List.erase(Prefix, List.end());
    unionFromBack(List, S.EdgeTail.data(), S.EdgeTail.size(), EdgeLess);
    EdgesSorted[NIdx] = static_cast<uint32_t>(List.size());
    S.EdgeBytes += capacityBytes(List);
    S.NewEdges += S.EdgeTail.size();
  }
  S.DirtyEdges.clear();
}

void Solver::phaseShard(uint32_t ShardIndex) {
  // Read-only over the frozen solver state: sets, edges, reactions and
  // nodes change only in the merge and at the barrier. Staging is
  // source-shard-local.
  Shard &S = Shards[ShardIndex];
  S.StagedMask = 0;
  for (uint32_t D = 0, E = static_cast<uint32_t>(S.Deltas.size()); D != E;
       ++D) {
    const uint32_t NIdx = S.Deltas[D].N.index();
    for (const Edge &Out : Edges[NIdx]) {
      S.StagedRefs[shardOf(Out.Target)].push_back(
          {Out.Target.index(), ShardIndex, D, Out.Filter});
      S.StagedMask |= uint64_t(1) << shardOf(Out.Target);
    }
    const uint32_t Count = static_cast<uint32_t>(Reactions[NIdx].size());
    if (Count != 0 || Nodes[NIdx].Kind == NodeKind::CatchDispatch)
      S.Firings.push_back({D, Count});
  }
}

void Solver::gatherShard(uint32_t ShardIndex) {
  // Appends only to this shard's incoming buffer and reads frozen deltas
  // and sets. References are grouped by target node so a value reaching
  // one target from several sources — a replay and the delta staged along
  // the same new edge included — is queued once; values the target
  // already holds are dropped here, in parallel, instead of in the merge.
  Shard &T = Shards[ShardIndex];
  std::vector<StagedRef> Refs;
  Refs.swap(T.Replays);
  for (Shard &Src : Shards) {
    if (!(Src.StagedMask >> ShardIndex & 1))
      continue;
    std::vector<StagedRef> &Bucket = Src.StagedRefs[ShardIndex];
    Refs.insert(Refs.end(), Bucket.begin(), Bucket.end());
    Bucket.clear();
  }
  std::sort(Refs.begin(), Refs.end(),
            [](const StagedRef &A, const StagedRef &B) {
              return A.Target < B.Target;
            });
  for (size_t I = 0, E = Refs.size(); I != E;) {
    const uint32_t Target = Refs[I].Target;
    const SetView Set = pointsTo(NodeId(Target));
    StampSet &Seen = emptyStampSet(Values.size());
    for (; I != E && Refs[I].Target == Target; ++I) {
      const TypeId Filter = Refs[I].Filter;
      auto Offer = [&](uint32_t V) {
        if (passesFilter(ValueId(V), Filter) && Seen.insert(V) &&
            !Set.contains(V))
          T.Incoming.push_back(packPair(Target, V));
      };
      if (Refs[I].Shard == ReplayShard) {
        pointsTo(NodeId(Refs[I].Source)).forEach(Offer);
      } else {
        const Shard &Src = Shards[Refs[I].Shard];
        const Delta &D = Src.Deltas[Refs[I].Source];
        const uint32_t *Vals = Src.DeltaValues.data() + D.Begin;
        std::for_each(Vals, Vals + D.Size, Offer);
      }
    }
  }
}

void Solver::applyBarrier() {
  // Reactions and catch dispatches intern nodes/values/contexts and grow
  // the call graph (`wireCall`, `processBody`) — exactly the state the
  // parallel steps freeze — so all of it happens here, single-threaded, in
  // canonical shard order. Every `propagate` only appends to an incoming
  // buffer, so the deltas and sets read here stay put.
  for (Shard &S : Shards) {
    for (const StagedFiring &F : S.Firings) {
      const Delta D = S.Deltas[F.Source];
      const uint32_t *Values = S.DeltaValues.data() + D.Begin;
      for (uint32_t R = 0; R != F.Reactions; ++R) {
        // Copy: firing may add reactions to this node and reallocate.
        const Reaction Fired = Reactions[D.N.index()][R];
        for (uint32_t I = 0; I != D.Size; ++I)
          applyReaction(Fired, ValueId(Values[I]));
        SolverStats.ReactionsRun += D.Size;
      }
      if (Nodes[D.N.index()].Kind == NodeKind::CatchDispatch)
        for (uint32_t I = 0; I != D.Size; ++I)
          dispatchCatch(CMethodId(Nodes[D.N.index()].A), ValueId(Values[I]));
    }
    S.Firings.clear();
  }
}

bool Solver::hasPendingWork() const {
  for (const Shard &S : Shards)
    if (!S.Incoming.empty() || !S.Replays.empty() || !S.DirtyEdges.empty())
      return true;
  return false;
}

void Solver::drainWorklist() {
  using Clock = std::chrono::steady_clock;
  auto Timed = [](double &Seconds, auto &&Fn) {
    const Clock::time_point Start = Clock::now();
    Fn();
    Seconds += std::chrono::duration<double>(Clock::now() - Start).count();
  };
  while (hasPendingWork()) {
    // Dirty edge tails are cheap to fold, so only values and replay refs
    // count toward the threshold.
    size_t Items = 0;
    for (const Shard &S : Shards)
      Items += S.Incoming.size() + S.Replays.size();
    // Every step runs the identical algorithm in the identical order
    // whether inline or on the pool; only the scheduling differs.
    const bool Parallel =
        Config.Threads > 1 && Items >= ParallelRoundThreshold;
    if (Parallel && !Pool)
      Pool = std::make_unique<WorkerPool>(std::min(Config.Threads, NumShards));
    const unsigned Workers = Parallel ? Pool->workerCount() : 1;
    auto Step = [&](auto &&Fn) {
      if (Parallel)
        Pool->runBatch(NumShards, Fn);
      else
        for (uint32_t I = 0; I != NumShards; ++I)
          Fn(I, 0u);
    };

    Timed(MergeSeconds,
          [&] { Step([this](uint32_t I, unsigned) { mergeShard(I); }); });
    ++SolverStats.Rounds;
    for (const Shard &S : Shards) {
      SolverStats.WorkItems += S.DeltaValues.size();
      SolverStats.EdgesAdded += S.NewEdges;
    }
    ParallelRounds += Parallel;

    Timed(PhaseSeconds, [&] {
      Step([&](uint32_t I, unsigned Worker) {
        if (I % Workers != Worker)
          ++Shards[I].Steals;
        phaseShard(I);
      });
    });
    Timed(GatherSeconds,
          [&] { Step([this](uint32_t I, unsigned) { gatherShard(I); }); });
    Timed(BarrierSeconds, [this] { applyBarrier(); });
  }
}

void Solver::releaseRoundArenas() {
  for (Shard &S : Shards) {
    release(S.Incoming);
    release(S.DirtyEdges);
    release(S.Replays);
    release(S.EdgeTail);
    release(S.Deltas);
    release(S.DeltaValues);
    for (std::vector<StagedRef> &Bucket : S.StagedRefs)
      release(Bucket);
    release(S.Firings);
  }
}

void Solver::solve() {
  while (true) {
    observe::Span FixpointSpan(Trace, "fixpoint", "solver");
    FixpointSpan.arg("round", SolverStats.PluginRounds + 1);
    uint64_t ItemsBefore = SolverStats.WorkItems;
    drainWorklist();
    bool Changed = false;
    for (Plugin *PluginPtr : Plugins)
      Changed |= PluginPtr->onFixpoint(*this);
    ++SolverStats.PluginRounds;
    FixpointSpan.arg("work_items", SolverStats.WorkItems - ItemsBefore);
    if (!Changed && !hasPendingWork())
      break;
  }
  releaseRoundArenas();
  publishMetrics();
}

void Solver::publishMetrics() {
  if (!Registry)
    return;
  // Thread-count-invariant samples: rounds, total work, and the per-shard
  // distribution (64 observations, one per shard, in shard order).
  Registry->add("pointsto.rounds", static_cast<double>(SolverStats.Rounds));
  Registry->add("pointsto.work_items",
                static_cast<double>(SolverStats.WorkItems));
  Registry->add("pointsto.edges_added",
                static_cast<double>(SolverStats.EdgesAdded));
  Registry->add("pointsto.reactions_run",
                static_cast<double>(SolverStats.ReactionsRun));
  for (const Shard &S : Shards)
    Registry->observe("pointsto.shard.work_items",
                      static_cast<double>(S.TotalItems));
  // Owned bytes, from capacities (sets, edge and reaction lists are
  // counted as they grow). Every buffer grows along the fixpoint
  // trajectory, so these are thread-count-invariant too.
  uint64_t SetsArray = 0, SetsDense = 0, EdgeBytes = 0, ArenaBytes = 0;
  for (const Shard &S : Shards) {
    SetsArray += S.SetBytes[0];
    SetsDense += S.SetBytes[1];
    EdgeBytes += S.EdgeBytes;
    ArenaBytes += capacityBytes(S.Incoming) + capacityBytes(S.DirtyEdges) +
                  capacityBytes(S.Replays) + capacityBytes(S.EdgeTail) +
                  capacityBytes(S.Deltas) + capacityBytes(S.DeltaValues) +
                  capacityBytes(S.Firings);
    for (const std::vector<StagedRef> &Bucket : S.StagedRefs)
      ArenaBytes += capacityBytes(Bucket);
  }
  Registry->set("pointsto.bytes.sets_array", static_cast<double>(SetsArray));
  Registry->set("pointsto.bytes.sets_dense", static_cast<double>(SetsDense));
  Registry->set("pointsto.bytes.edges", static_cast<double>(EdgeBytes));
  Registry->set("pointsto.bytes.nodes",
                static_cast<double>(
                    capacityBytes(Nodes) + capacityBytes(NodeSlots) +
                    capacityBytes(PointsTo) + capacityBytes(Edges) +
                    capacityBytes(EdgesSorted) + capacityBytes(Reactions) +
                    ReactionBytes));
  Registry->set("pointsto.bytes.round_arenas",
                static_cast<double>(ArenaBytes));
  // Scheduling-dependent samples (vary with Threads and the OS scheduler;
  // cross-thread-count diffs must filter these).
  Registry->set("pointsto.sched.threads", Config.Threads);
  Registry->add("pointsto.sched.parallel_rounds",
                static_cast<double>(ParallelRounds));
  for (const Shard &S : Shards)
    Registry->observe("pointsto.shard.steals",
                      static_cast<double>(S.Steals));
  Registry->set("pointsto.sched.merge_s", MergeSeconds);
  Registry->set("pointsto.sched.phase_s", PhaseSeconds);
  Registry->set("pointsto.sched.gather_s", GatherSeconds);
  Registry->set("pointsto.sched.barrier_s", BarrierSeconds);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

const std::vector<NodeId> &Solver::varInstances(VarId Var) const {
  if (Var.index() >= VarNodes.size())
    return NoInstances;
  return VarNodes[Var.index()];
}

std::vector<AllocSiteId> Solver::varPointsToSites(VarId Var) const {
  StampSet &Sites = emptyStampSet(P.allocSiteCount());
  std::vector<AllocSiteId> Result;
  for (NodeId N : varInstances(Var))
    pointsTo(N).forEach([&](uint32_t Raw) {
      AllocSiteId Site = Values[Raw].Site;
      if (Sites.insert(Site.index()))
        Result.push_back(Site);
    });
  // Canonical order: equal site sets compare equal even when propagation
  // reached them along different round schedules.
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<MethodId> Solver::reachableMethods() const {
  InsertOrderSet<uint32_t> Seen;
  std::vector<MethodId> Result;
  for (uint32_t Raw : ReachableSet) {
    MethodId M = CMethods[Raw].M;
    if (Seen.insert(M.rawValue()))
      Result.push_back(M);
  }
  return Result;
}

uint64_t Solver::varPointsToTuples(std::string_view PackagePrefix) const {
  uint64_t Total = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Kind != NodeKind::Var)
      continue;
    const Variable &Var = P.variable(VarId(Nodes[I].A));
    TypeId Declaring = P.method(Var.DeclaringMethod).DeclaringType;
    const std::string &ClassName = P.symbols().text(P.type(Declaring).Name);
    if (std::string_view(ClassName).substr(0, PackagePrefix.size()) ==
        PackagePrefix)
      Total += pointsTo(NodeId(I)).size();
  }
  return Total;
}

uint64_t Solver::varPointsToTuplesTotal() const {
  uint64_t Total = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].Kind == NodeKind::Var)
      Total += pointsTo(NodeId(I)).size();
  return Total;
}

double Solver::averageVarPointsTo(bool AppOnly) const {
  // Context-insensitive projection per variable, averaged over variables
  // that point to at least one object.
  uint64_t Sum = 0, Pointing = 0;
  for (uint32_t VI = 0, VE = static_cast<uint32_t>(VarNodes.size());
       VI != VE; ++VI) {
    if (VarNodes[VI].empty())
      continue;
    if (AppOnly) {
      TypeId Declaring =
          P.method(P.variable(VarId(VI)).DeclaringMethod).DeclaringType;
      if (!P.type(Declaring).IsApplication)
        continue;
    }
    StampSet &Sites = emptyStampSet(P.allocSiteCount());
    uint64_t Distinct = 0;
    for (NodeId N : VarNodes[VI])
      pointsTo(N).forEach([&](uint32_t Raw) {
        Distinct += Sites.insert(Values[Raw].Site.index());
      });
    Sum += Distinct;
    Pointing += Distinct != 0;
  }
  if (Pointing == 0)
    return 0.0;
  return static_cast<double>(Sum) / static_cast<double>(Pointing);
}

observe::ProfileCensus Solver::censusPointsTo(
    const std::vector<std::string> &PackagePrefixes) const {
  observe::ProfileCensus C;
  // Exact distinct-set accounting: sorting the sets by contents groups
  // the duplicates.
  std::vector<SetView> Sets;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Kind != NodeKind::Var)
      continue;
    ++C.VarNodes;
    const SetView Set = pointsTo(NodeId(I));
    if (Set.empty())
      continue;
    ++C.NonEmptySets;
    C.TotalEntries += Set.size();
    C.MaxSetSize = std::max<uint64_t>(C.MaxSetSize, Set.size());
    size_t Bucket = 0;
    while ((uint64_t(1) << Bucket) < Set.size())
      ++Bucket;
    if (C.Histogram.size() <= Bucket)
      C.Histogram.resize(Bucket + 1, 0);
    ++C.Histogram[Bucket];
    Sets.push_back(Set);
  }
  std::sort(Sets.begin(), Sets.end(), [](const SetView &A, const SetView &B) {
    return std::lexicographical_compare(A.begin(), A.end(), B.begin(),
                                        B.end());
  });
  for (size_t I = 0, E = Sets.size(); I != E; ++I)
    if (I == 0 || Sets[I] != Sets[I - 1]) {
      ++C.DistinctSets;
      C.DistinctEntries += Sets[I].size();
    }
  C.SetBytes = C.TotalEntries * sizeof(uint32_t);
  C.ReclaimableBytes =
      (C.TotalEntries - C.DistinctEntries) * sizeof(uint32_t);
  for (const std::string &Prefix : PackagePrefixes)
    C.Packages.push_back({Prefix, varPointsToTuples(Prefix)});
  return C;
}
