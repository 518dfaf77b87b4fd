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
#include <new>
#include <string_view>
#include <thread>
#include <tuple>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

const std::vector<NodeId> Solver::NoInstances;

namespace {

/// Resolves `SolverConfig::Threads == 0`: `JACKEE_SOLVER_THREADS` first,
/// then the hardware, clamped to [1, 256].
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

/// Unions the sorted run \p New[0, Add), none of whose elements the sorted
/// \p Dst[0, Old) holds, into \p Dst, which has room for `Old + Add`:
/// merges from the back, so no buffer beyond the run is needed.
template <typename T, typename LessFn>
void unionFromBack(T *Dst, size_t Old, const T *New, size_t Add,
                   LessFn Less) {
  for (size_t Out = Old + Add; Add != 0;) {
    if (Old != 0 && Less(New[Add - 1], Dst[Old - 1]))
      Dst[--Out] = Dst[--Old];
    else
      Dst[--Out] = New[--Add];
  }
}

/// Resizes the set buffer \p Words to exactly \p Len words, keeping its
/// prefix.
template <typename BufferT> void resizeWords(BufferT &Words, size_t Len) {
  void *Grown = std::realloc(Words.get(), Len * sizeof(uint32_t));
  if (!Grown)
    throw std::bad_alloc();
  (void)Words.release();
  Words.reset(static_cast<uint32_t *>(Grown));
}

/// Frees \p V's buffer: `V = {}` would pick the initializer-list
/// assignment, which empties the vector but keeps its capacity.
template <typename T> void release(std::vector<T> &V) {
  std::vector<T>().swap(V);
}

template <typename T> uint64_t capacityBytes(const std::vector<T> &V) {
  return uint64_t(V.capacity()) * sizeof(T);
}

/// Appends \p X to \p V, keeping \p Bytes equal to the summed capacity
/// bytes of the vectors it counts.
template <typename T>
void pushCounted(std::vector<T> &V, const T &X, uint64_t &Bytes) {
  Bytes -= capacityBytes(V);
  V.push_back(X);
  Bytes += capacityBytes(V);
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
  Nodes.emplace_back(Kind, A, B);

  if (Kind == NodeKind::Var) {
    if (A >= VarNodes.size())
      VarNodes.resize(std::max<size_t>(P.variableCount(), A + 1));
    pushCounted(VarNodes[A], NodeId(Index), VarNodeListBytes);
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
  // Edge lists mutate only in the merge, so this only queues the edge. The
  // next merge folds it in (dropping repeats) before the phase stages
  // From's next delta along it; the next gather sends the set From holds
  // by then, which covers everything the delta misses.
  Shard &FromShard = Shards[shardOf(From)];
  if (Filter.isValid())
    FromShard.PendingFiltered.push_back({From.index(), To.index(), Filter});
  else
    FromShard.PendingEdges.push_back(packPair(From.index(), To.index()));
  if (Nodes[From.index()].SetLen != 0)
    Shards[shardOf(To)].Replays.push_back(
        {To.index(), ReplayShard, From.index(), Filter});
}

void Solver::addReaction(NodeId N, Reaction R) {
  Shard &S = Shards[shardOf(N)];
  const ListGrowth One[] = {{N.index(), 1}};
  growLists(S.ReactionPool, S.ReactionDead, &Node::Reactions, shardOf(N), One);
  const ListRef L = Nodes[N.index()].Reactions;
  S.ReactionPool[L.Begin + L.Size - 1] = R;
  // Reactions intern nodes, which reallocates the node records but not the
  // set's own buffer, and the set cannot change before the next merge, so
  // the view stays valid throughout.
  pointsTo(N).forEach([&](uint32_t V) { applyReaction(R, ValueId(V)); });
}

void Solver::applyReaction(Reaction R, ValueId V) {
  const CMethod Caller = CMethods[R.CallerCM.index()];
  const Statement &S = P.method(Caller.M).Statements[R.Stmt];
  switch (S.Op) {
  case Opcode::Load:
    addEdge(fieldNode(V, S.FieldRef), varNode(S.Dst, Caller.Ctx));
    return;
  case Opcode::Store:
    addEdge(varNode(S.Src, Caller.Ctx), fieldNode(V, S.FieldRef));
    return;
  case Opcode::ArrayLoad:
    addEdge(arrayNode(V), varNode(S.Dst, Caller.Ctx));
    return;
  case Opcode::ArrayStore:
    addEdge(varNode(S.Src, Caller.Ctx), arrayNode(V));
    return;
  case Opcode::VirtualCall: {
    MethodId Target = P.resolveVirtual(valueType(V), S.CalleeSignature);
    if (!Target.isValid())
      return; // no concrete implementation on this receiver type
    CtxId CalleeCtx = Ctxs.appendAndTruncate(valueHeapCtx(V), valueSiteId(V),
                                             Config.ContextDepth);
    wireCall(S, Caller.Ctx, R.CallerCM, Target, CalleeCtx, V);
    return;
  }
  case Opcode::SpecialCall: {
    // Fixed target, but the callee context is still derived from the
    // receiver object (object sensitivity analyzes constructors under the
    // allocated object's context).
    CtxId CalleeCtx = Ctxs.appendAndTruncate(valueHeapCtx(V), valueSiteId(V),
                                             Config.ContextDepth);
    wireCall(S, Caller.Ctx, R.CallerCM, S.DirectCallee, CalleeCtx, V);
    return;
  }
  default:
    return; // processBody attaches reactions to the six opcodes above only
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

  for (uint32_t I = 0, E = static_cast<uint32_t>(M.Statements.size());
       I != E; ++I) {
    const Statement &S = M.Statements[I];
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
      pushCounted(Casts[It->second].SourceNodes, SrcNode, CastNodeListBytes);
      break;
    }
    case Opcode::Load:
    case Opcode::Store:
    case Opcode::ArrayLoad:
    case Opcode::ArrayStore:
    case Opcode::VirtualCall:
    case Opcode::SpecialCall:
      addReaction(varNode(S.Base, Ctx), {CM, I});
      break;
    case Opcode::StaticLoad:
      addEdge(staticNode(S.FieldRef), varNode(S.Dst, Ctx));
      break;
    case Opcode::StaticStore:
      addEdge(varNode(S.Src, Ctx), staticNode(S.FieldRef));
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
  // would be longer than the bitmap — so equal sets are stored alike. The
  // buffer always holds exactly `SetLen` words: geometric slack would undo
  // much of what the bitmap saves.
  Node &N = Nodes[NIdx];
  const SetView Old = setOf(N);
  const uint32_t OldLen = N.SetLen;
  const size_t Size = Old.size() + Add;
  uint32_t LastWord = New[Add - 1] >> 5;
  if (N.Dense)
    LastWord = std::max(LastWord, OldLen - 2);
  else if (OldLen != 0)
    LastWord = std::max(LastWord, N.Set[OldLen - 1] >> 5);
  const bool Dense = Size > size_t(LastWord) + 1;

  if (!Dense && !N.Dense) {
    resizeWords(N.Set, Size);
    N.SetLen = static_cast<uint32_t>(Size);
    unionFromBack(N.Set.get(), OldLen, New, Add, std::less<uint32_t>());
    return;
  }
  if (Dense && N.Dense) {
    if (OldLen < LastWord + 2) {
      resizeWords(N.Set, size_t(LastWord) + 2);
      std::fill(N.Set.get() + OldLen, N.Set.get() + LastWord + 2, 0u);
      N.SetLen = LastWord + 2;
    }
    for (uint32_t I = 0; I != Add; ++I)
      N.Set[1 + (New[I] >> 5)] |= uint32_t(1) << (New[I] & 31);
    N.Set[0] += Add;
    return;
  }
  // The form changes: rebuild the set in the other form.
  const size_t Len = Dense ? size_t(LastWord) + 2 : Size;
  std::unique_ptr<uint32_t[], FreeWords> Rebuilt(
      static_cast<uint32_t *>(std::calloc(Len, sizeof(uint32_t))));
  if (!Rebuilt)
    throw std::bad_alloc();
  uint32_t *Words = Rebuilt.get();
  if (Dense) {
    Words[0] = static_cast<uint32_t>(Size);
    auto SetBit = [Words](uint32_t V) {
      Words[1 + (V >> 5)] |= uint32_t(1) << (V & 31);
    };
    Old.forEach(SetBit);
    std::for_each(New, New + Add, SetBit);
  } else {
    // A bitmap that received a value far past its last word.
    size_t Filled = 0;
    Old.forEach([&](uint32_t V) { Words[Filled++] = V; });
    unionFromBack(Words, Filled, New, Add, std::less<uint32_t>());
  }
  N.Set = std::move(Rebuilt);
  N.SetLen = static_cast<uint32_t>(Len);
  N.Dense = Dense;
}

template <typename T>
void Solver::growLists(std::vector<T> &Pool, uint32_t &Dead,
                       ListRef Node::*Field, uint32_t ShardIndex,
                       std::span<const ListGrowth> Growth) {
  size_t Room = 0, Added = 0;
  for (const ListGrowth &G : Growth) {
    Room += (Nodes[G.Node].*Field).Size + G.Add;
    Added += G.Add;
  }
  if (Pool.size() + Room > Pool.capacity()) {
    // Compact, with room for a quarter of the live entries again. This is
    // the only time a pool reallocates, so its dead entries never outnumber
    // a quarter of the live ones and its capacity stays within 1.25x of
    // them. Laying out all of a merge's growth here compacts a pool at most
    // once per merge.
    const size_t Live = Pool.size() - Dead + Added;
    std::vector<T> Fresh;
    Fresh.reserve(Live + Live / 4);
    const ListGrowth *G = Growth.data(), *End = G + Growth.size();
    for (uint32_t I = ShardIndex; I < Nodes.size(); I += NumShards) {
      ListRef &R = Nodes[I].*Field;
      const uint32_t Begin = static_cast<uint32_t>(Fresh.size());
      Fresh.insert(Fresh.end(), Pool.begin() + R.Begin,
                   Pool.begin() + R.Begin + R.Size);
      R.Begin = Begin;
      if (G != End && G->Node == I) {
        Fresh.resize(Fresh.size() + G->Add); // within capacity
        R.Size += G->Add;
        ++G;
      }
    }
    Pool.swap(Fresh);
    Dead = 0;
    return;
  }
  for (const ListGrowth &G : Growth) {
    ListRef &L = Nodes[G.Node].*Field;
    // Within capacity (checked above): no reallocation.
    if (size_t(L.Begin) + L.Size != Pool.size()) {
      const uint32_t Begin = static_cast<uint32_t>(Pool.size());
      Pool.resize(Begin + L.Size);
      std::copy_n(Pool.begin() + L.Begin, L.Size, Pool.begin() + Begin);
      Dead += L.Size;
      L.Begin = Begin;
    }
    Pool.resize(Pool.size() + G.Add);
    L.Size += G.Add;
  }
}

void Solver::mergeShard(uint32_t ShardIndex) {
  // Only this task touches the shard's incoming and pending-edge buffers,
  // deltas, byte counts and edge pool, and the sets (with their form
  // flags) and edge handles of its nodes, so concurrent merges cannot
  // race. The outcome
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
    const Node &N = Nodes[NIdx];
    S.SetBytes[N.Dense] -= uint64_t(N.SetLen) * sizeof(uint32_t);
    unionIntoSet(NIdx, S.DeltaValues.data() + Begin, Size);
    S.SetBytes[N.Dense] += uint64_t(N.SetLen) * sizeof(uint32_t);
  }
  // Release rather than clear: shards peak in different rounds, and kept
  // capacities would add up across all 64 of them.
  std::vector<uint64_t>().swap(In);
  S.TotalItems += S.DeltaValues.size();
  mergeEdges(ShardIndex);
}

void Solver::mergeEdges(uint32_t ShardIndex) {
  Shard &S = Shards[ShardIndex];
  // Keep each pending edge once, whether it repeats among the pending
  // edges or is already in its source's list. The survivors are the new
  // edges.
  std::vector<uint64_t> &Pending = S.PendingEdges;
  std::sort(Pending.begin(), Pending.end());
  Pending.erase(std::unique(Pending.begin(), Pending.end()), Pending.end());
  S.Growth.clear();
  S.NewTargets.clear();
  for (size_t I = 0, E = Pending.size(); I != E;) {
    const uint32_t Source = static_cast<uint32_t>(Pending[I] >> 32);
    const ListRef Old = Nodes[Source].Edges;
    const uint32_t *List = S.EdgePool.data() + Old.Begin;
    const size_t Before = S.NewTargets.size();
    for (; I != E && static_cast<uint32_t>(Pending[I] >> 32) == Source; ++I)
      if (!std::binary_search(List, List + Old.Size,
                              static_cast<uint32_t>(Pending[I])))
        S.NewTargets.push_back(static_cast<uint32_t>(Pending[I]));
    if (S.NewTargets.size() != Before)
      S.Growth.push_back(
          {Source, static_cast<uint32_t>(S.NewTargets.size() - Before)});
  }
  std::vector<uint64_t>().swap(Pending);
  growLists(S.EdgePool, S.EdgeDead, &Node::Edges, ShardIndex, S.Growth);
  const uint32_t *Targets = S.NewTargets.data();
  for (const ListGrowth &G : S.Growth) {
    const ListRef L = Nodes[G.Node].Edges;
    unionFromBack(S.EdgePool.data() + L.Begin, L.Size - G.Add, Targets,
                  G.Add, std::less<uint32_t>());
    Targets += G.Add;
  }
  S.NewEdges = S.NewTargets.size();

  // Filtered edges likewise, against the shard's sorted side list.
  std::vector<FilteredEdge> &New = S.PendingFiltered;
  auto Key = [](const FilteredEdge &F) {
    return std::tie(F.Source, F.Target, F.Filter);
  };
  auto Less = [&](const FilteredEdge &A, const FilteredEdge &B) {
    return Key(A) < Key(B);
  };
  std::sort(New.begin(), New.end(), Less);
  New.erase(std::unique(New.begin(), New.end(),
                        [&](const FilteredEdge &A, const FilteredEdge &B) {
                          return Key(A) == Key(B);
                        }),
            New.end());
  std::erase_if(New, [&](const FilteredEdge &F) {
    return std::binary_search(S.Filtered.begin(), S.Filtered.end(), F, Less);
  });
  const size_t Old = S.Filtered.size();
  S.Filtered.resize(Old + New.size());
  unionFromBack(S.Filtered.data(), Old, New.data(), New.size(), Less);
  S.NewEdges += New.size();
  std::vector<FilteredEdge>().swap(New);
}

void Solver::phaseShard(uint32_t ShardIndex) {
  // Read-only over the frozen solver state: sets, edges, reactions and
  // nodes change only in the merge and at the barrier. Staging is
  // source-shard-local: one vector, grouped by target shard with a
  // counting pass, so the gathers read contiguous slices.
  Shard &S = Shards[ShardIndex];
  auto ForEachRef = [&](auto &&Fn) {
    for (uint32_t D = 0, E = static_cast<uint32_t>(S.Deltas.size()); D != E;
         ++D) {
      const uint32_t NIdx = S.Deltas[D].N.index();
      const ListRef Out = Nodes[NIdx].Edges;
      for (uint32_t I = Out.Begin, End = Out.Begin + Out.Size; I != End; ++I)
        Fn(StagedRef{S.EdgePool[I], ShardIndex, D, TypeId::invalid()});
      if (S.Filtered.empty())
        continue;
      auto It = std::lower_bound(
          S.Filtered.begin(), S.Filtered.end(), NIdx,
          [](const FilteredEdge &F, uint32_t N) { return F.Source < N; });
      for (; It != S.Filtered.end() && It->Source == NIdx; ++It)
        Fn(StagedRef{It->Target, ShardIndex, D, It->Filter});
    }
  };
  std::array<uint32_t, NumShards + 1> &Begin = S.StagedBegin;
  Begin.fill(0);
  ForEachRef([&](const StagedRef &R) { ++Begin[shardOf(R.Target) + 1]; });
  for (uint32_t T = 0; T != NumShards; ++T)
    Begin[T + 1] += Begin[T];
  S.Staged.resize(Begin[NumShards]);
  std::array<uint32_t, NumShards> Next;
  std::copy_n(Begin.begin(), NumShards, Next.begin());
  ForEachRef(
      [&](const StagedRef &R) { S.Staged[Next[shardOf(R.Target)]++] = R; });

  for (uint32_t D = 0, E = static_cast<uint32_t>(S.Deltas.size()); D != E;
       ++D) {
    const Node &N = Nodes[S.Deltas[D].N.index()];
    if (N.Reactions.Size != 0 || N.Kind == NodeKind::CatchDispatch)
      S.Firings.push_back({D, N.Reactions.Size});
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
  for (const Shard &Src : Shards)
    Refs.insert(Refs.end(), Src.Staged.begin() + Src.StagedBegin[ShardIndex],
                Src.Staged.begin() + Src.StagedBegin[ShardIndex + 1]);
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
        // Re-read through the handle: firing may add reactions to this
        // shard's nodes, which can move this node's list.
        const Reaction Fired =
            S.ReactionPool[Nodes[D.N.index()].Reactions.Begin + R];
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
    if (!S.Incoming.empty() || !S.Replays.empty() ||
        !S.PendingEdges.empty() || !S.PendingFiltered.empty())
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
    // Pending edges are cheap to fold, so only values and replay refs
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
    release(S.PendingEdges);
    release(S.PendingFiltered);
    release(S.Replays);
    release(S.Deltas);
    release(S.DeltaValues);
    release(S.Growth);
    release(S.NewTargets);
    release(S.Staged);
    S.StagedBegin.fill(0);
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
  // Owned bytes, from capacities and hash bucket counts (sets and the
  // per-variable and per-cast node lists are counted as they grow, so
  // publishing walks no node). Every buffer grows along the fixpoint
  // trajectory, so these are thread-count-invariant too.
  uint64_t SetsArray = 0, SetsDense = 0, EdgeBytes = 0, ReactionBytes = 0,
           ArenaBytes = 0;
  for (const Shard &S : Shards) {
    SetsArray += S.SetBytes[0];
    SetsDense += S.SetBytes[1];
    EdgeBytes += capacityBytes(S.EdgePool) + capacityBytes(S.Filtered);
    ReactionBytes += capacityBytes(S.ReactionPool);
    ArenaBytes += capacityBytes(S.Incoming) + capacityBytes(S.PendingEdges) +
                  capacityBytes(S.PendingFiltered) + capacityBytes(S.Replays) +
                  capacityBytes(S.Deltas) + capacityBytes(S.DeltaValues) +
                  capacityBytes(S.Growth) + capacityBytes(S.NewTargets) +
                  capacityBytes(S.Staged) + capacityBytes(S.Firings);
  }
  auto Gauge = [this](const char *Name, uint64_t Bytes) {
    Registry->set(Name, static_cast<double>(Bytes));
  };
  Gauge("pointsto.bytes.sets_array", SetsArray);
  Gauge("pointsto.bytes.sets_dense", SetsDense);
  Gauge("pointsto.bytes.edges", EdgeBytes);
  Gauge("pointsto.bytes.nodes", capacityBytes(Nodes) +
                                    capacityBytes(NodeSlots) + ReactionBytes);
  Gauge("pointsto.bytes.round_arenas", ArenaBytes);
  Gauge("pointsto.bytes.values",
        capacityBytes(Values) + hashTableBytes(ValueLookup));
  Gauge("pointsto.bytes.cmethods",
        capacityBytes(CMethods) + hashTableBytes(CMethodLookup));
  Gauge("pointsto.bytes.var_nodes",
        capacityBytes(VarNodes) + VarNodeListBytes);
  Gauge("pointsto.bytes.casts", capacityBytes(Casts) + CastNodeListBytes +
                                    hashTableBytes(CastIndex));
  Gauge("pointsto.bytes.call_graph", ReachableSet.bytes() + CallEdges.bytes() +
                                         MethodReached.capacity() / 8);
  Gauge("pointsto.bytes.contexts", Ctxs.bytes());
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
