//===- Solver.h - Context-sensitive points-to analysis ----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to engine: a subset-based (Andersen-style), flow-, path- and
/// array-insensitive analysis with on-the-fly call-graph construction and
/// parameterizable object sensitivity — the hand-coded equivalent of the
/// Doop core the paper builds on. Configurations used in the evaluation:
///
///   - `ci`        : ContextDepth 0, HeapDepth 0 (context-insensitive)
///   - `1objH`     : ContextDepth 1, HeapDepth 1
///   - `2objH`     : ContextDepth 2, HeapDepth 1 (the paper's "golden
///                   standard" precise analysis)
///
/// The graph has five node kinds: context-qualified variables, (object,
/// field) pairs, object array contents, static fields, and per-context-
/// method exception nodes. Subset edges (optionally type-filtered, for
/// casts) propagate abstract objects; *reactions* attached to variable nodes
/// implement field access, array access, virtual dispatch and
/// receiver-contextualized constructor calls when base variables gain
/// objects.
///
/// Virtual dispatch computes the callee context as
/// `suffix(heapCtx(recv) ++ [site(recv)], K)` — which is exactly why the
/// original HashMap's TreeNode double-dispatch collapses 2objH to 1objH
/// precision (Section 4 of the paper): the receiver is an internal TreeNode
/// allocation, so the context no longer distinguishes the map's clients.
///
/// A points-to set takes one of two forms, chosen from its contents after
/// every merge: a sorted `uint32_t` array of value ids, or — once the array
/// would be longer than a bitmap over ids up to its largest, i.e. once
/// `size > (max >> 5) + 1` — a count word followed by exactly
/// `(max >> 5) + 1` bitmap words (bit v set iff value v is in the set).
/// The large sets the `java.util` caches build are drawn from a few
/// thousand values, so the bitmaps hold them in about a quarter of the
/// array bytes. `pointsTo` reads either form as one ascending `SetView`.
///
/// The drain is *sharded, bulk-synchronous difference propagation*
/// (DESIGN.md §11). Values bound for a node first land in its shard's
/// incoming buffer; a new edge lands in its source's unsorted edge tail
/// and, if the source already holds values, as a whole-set replay ref in
/// its target's shard.
/// Each round then runs four steps:
///
///   1. merge   (parallel per target shard): sort and unique each node's
///              incoming values — every appender already dropped values the
///              set holds — making them the node's delta, and union them
///              into the set, switching its form if the rule above says
///              so; sort each dirty edge tail, drop the edges the
///              list already has, and union the rest into the list;
///   2. phase   (parallel per source shard): walk the deltas, staging one
///              (target, source delta, filter) reference per edge plus the
///              reaction and catch firings;
///   3. gather  (parallel per target shard): read the frozen deltas through
///              those references, and whole source sets through the replay
///              refs, filter, drop values the target holds or already got
///              this round, and append to incoming buffers;
///   4. barrier (sequential, canonical shard order): apply the reactions and
///              catch dispatches (call wiring, body processing, interning).
///
/// Sets and edge lists mutate only in the merge step; everything else —
/// the barrier, plugins and seeds — only appends: incoming values, edge
/// tails and replay refs. The shard count is a constant, independent of
/// `SolverConfig::Threads`, sets and edge lists are sort-canonical, a set's
/// form is a function of its contents, and interning happens only at the
/// barrier, so the fixpoint — points-to sets,
/// call graph, stats, and provenance — is bit-identical at every thread
/// count, including 1.
///
/// Plugins (`Plugin::onFixpoint`) run each time the worklist drains and may
/// inject new facts (entry points, bean injections, getBean seeds); solving
/// continues until plugins make no further changes. This realizes the
/// paper's recursive framework/analysis coupling (Section 3.5) and keeps
/// the bean-wiring coupling rounds as the coarse synchronization points.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_POINTSTO_SOLVER_H
#define JACKEE_POINTSTO_SOLVER_H

#include "ir/Program.h"
#include "observe/Profile.h"
#include "observe/Trace.h"
#include "pointsto/Context.h"
#include "support/DenseSet.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <vector>

namespace jackee {

class WorkerPool;

namespace observe {
class MetricsRegistry;
}

namespace pointsto {

/// A context-qualified abstract object: (allocation site, heap context).
using ValueId = Id<struct ValueTag>;
/// A node of the propagation graph.
using NodeId = Id<struct NodeTag>;
/// A context-qualified method: (method, context).
using CMethodId = Id<struct CMethodTag>;

/// Analysis configuration.
struct SolverConfig {
  /// K: method-context depth (number of receiver allocation sites).
  uint32_t ContextDepth = 0;
  /// H: heap-context depth.
  uint32_t HeapDepth = 0;
  /// Worker threads for the sharded worklist drain. 0 resolves the
  /// `JACKEE_SOLVER_THREADS` environment variable, falling back to
  /// `hardware_concurrency`; 1 runs every round inline on the calling
  /// thread. Results are bit-identical at any setting (clamped to
  /// [1, 256] by the constructor).
  unsigned Threads = 0;
};

class Solver;

/// A read-only view of one node's points-to set: the value ids (raw
/// `ValueId` indexes) in strictly ascending order, whichever form the set
/// is stored in. It holds the set's own data pointer, not a reference into
/// the solver's per-node table, so it stays valid while the solver interns
/// nodes; it is invalidated by the next merge (`solve()`). Never allocates.
class SetView {
public:
  class Iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    Iterator() = default;
    uint32_t operator*() const {
      if (!Dense)
        return *At;
      return Base + static_cast<uint32_t>(std::countr_zero(Bits));
    }
    Iterator &operator++() {
      if (!Dense) {
        ++At;
        return *this;
      }
      Bits &= Bits - 1;
      skipEmptyWords();
      return *this;
    }
    Iterator operator++(int) {
      Iterator Old = *this;
      ++*this;
      return Old;
    }
    friend bool operator==(const Iterator &A, const Iterator &B) {
      return A.At == B.At && A.Bits == B.Bits;
    }

  private:
    friend class SetView;
    /// An array cursor at \p At, or a bitmap cursor at word \p At whose
    /// unvisited bits are \p Bits.
    Iterator(const uint32_t *At, const uint32_t *End, uint32_t Bits,
             bool Dense)
        : At(At), End(End), Bits(Bits), Dense(Dense) {}
    void skipEmptyWords() {
      while (Bits == 0 && ++At != End) {
        Bits = *At;
        Base += 32;
      }
    }

    const uint32_t *At = nullptr;
    const uint32_t *End = nullptr;
    uint32_t Bits = 0;
    uint32_t Base = 0; ///< value id of bit 0 of word `At`
    bool Dense = false;
  };
  using iterator = Iterator;
  using const_iterator = Iterator;
  using value_type = uint32_t;

  SetView() = default;

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  bool contains(uint32_t V) const {
    if (Dense)
      return (V >> 5) < Len && (Data[V >> 5] >> (V & 31) & 1);
    return std::binary_search(Data, Data + Len, V);
  }

  Iterator begin() const {
    if (!Dense)
      return Iterator(Data, Data + Len, 0, false);
    Iterator It(Data, Data + Len, Data[0], true);
    It.skipEmptyWords();
    return It;
  }
  Iterator end() const { return Iterator(Data + Len, Data + Len, 0, Dense); }

  /// Calls \p Fn on each value in ascending order; a bitmap is walked word
  /// by word, which is cheaper than the iterators.
  template <typename FnT> void forEach(FnT &&Fn) const {
    if (!Dense) {
      for (uint32_t I = 0; I != Len; ++I)
        Fn(Data[I]);
      return;
    }
    for (uint32_t W = 0; W != Len; ++W)
      for (uint32_t Bits = Data[W]; Bits != 0; Bits &= Bits - 1)
        Fn((W << 5) + static_cast<uint32_t>(std::countr_zero(Bits)));
  }

  std::vector<uint32_t> toVector() const {
    std::vector<uint32_t> Out;
    Out.reserve(Size);
    forEach([&Out](uint32_t V) { Out.push_back(V); });
    return Out;
  }

  friend bool operator==(const SetView &A, const SetView &B) {
    return A.Size == B.Size && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator==(const SetView &A, const std::vector<uint32_t> &B) {
    return A.Size == B.size() && std::equal(A.begin(), A.end(), B.begin());
  }

private:
  friend class Solver;
  /// \p Len array entries, or \p Len bitmap words holding \p Size values.
  SetView(const uint32_t *Data, uint32_t Len, uint32_t Size, bool Dense)
      : Data(Data), Len(Len), Size(Size), Dense(Dense) {}

  const uint32_t *Data = nullptr;
  uint32_t Len = 0;
  uint32_t Size = 0;
  bool Dense = false;
};

/// Extension hook, run at every intermediate fixpoint. The framework layer
/// uses this to evaluate its Datalog rules against current analysis results
/// and feed consequences back (bean injection, getBean, mock entry points).
class Plugin {
public:
  virtual ~Plugin() = default;
  /// \returns true if new work was injected (solving continues).
  virtual bool onFixpoint(Solver &S) = 0;
};

/// The points-to solver. Construct, seed entry points, `solve()`, query.
class Solver {
public:
  Solver(const ir::Program &P, SolverConfig Config);
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;
  ~Solver();

  const ir::Program &program() const { return P; }
  /// The configuration with `Threads` resolved (env var / hardware).
  const SolverConfig &config() const { return Config; }
  ContextTable &contexts() { return Ctxs; }

  /// Registers \p PluginPtr (not owned). Plugins run in registration order.
  void addPlugin(Plugin *PluginPtr) { Plugins.push_back(PluginPtr); }

  /// Attaches \p T as the span tracer (nullptr detaches). `solve()` emits
  /// one structural `solver`-category "fixpoint" span per
  /// drain-worklist/plugin iteration, whose args (round index, work-item
  /// counts) are deterministic for a given analysis input — at any
  /// `Threads` setting.
  void setTracer(observe::Tracer *T) { Trace = T; }
  observe::Tracer *tracer() const { return Trace; }

  /// Attaches \p R to receive solver metrics (nullptr detaches). `solve()`
  /// publishes `pointsto.rounds`, `pointsto.work_items`, and the per-shard
  /// `pointsto.shard.work_items` histogram (all thread-count-invariant),
  /// plus scheduling-dependent `pointsto.shard.steals` /
  /// `pointsto.sched.*` samples, among them the wall seconds each round
  /// step took, summed over rounds (`pointsto.sched.merge_s`, `.phase_s`,
  /// `.gather_s`, `.barrier_s`). The `pointsto.bytes.*` gauges are the
  /// bytes the solver owns, from capacities: array sets (`sets_array`),
  /// bitmap sets (`sets_dense`), edge lists (`edges`), the per-node tables
  /// and reaction lists (`nodes`), and the round arenas (`round_arenas`,
  /// 0 once `solve()` returns). They follow the fixpoint trajectory, so
  /// they too are thread-count-invariant.
  void setMetricsRegistry(observe::MetricsRegistry *R) { Registry = R; }

  // --- Seeding (used by drivers and the framework layer) -----------------

  /// Interns the abstract object (site, heap context).
  ValueId internValue(ir::AllocSiteId Site, CtxId HeapCtx);

  /// Marks (method, ctx) reachable and processes its body once.
  void makeReachable(ir::MethodId M, CtxId Ctx);

  /// Injects \p V into variable \p Var under context \p Ctx.
  void seedVar(ir::VarId Var, CtxId Ctx, ValueId V);

  /// Injects \p V into every existing context instance of \p Var. Used by
  /// plugins that reason context-insensitively (e.g. getBean modeling).
  void seedVarAllContexts(ir::VarId Var, ValueId V);

  /// Injects `Base.F -> V` — dependency injection of beans
  /// (ObjectFieldPointsTo in the paper's Section 3.5).
  void seedObjectField(ValueId Base, ir::FieldId F, ValueId V);

  // --- Solving ------------------------------------------------------------

  /// Runs to fixpoint, interleaving plugin rounds.
  void solve();

  // --- Queries ------------------------------------------------------------

  const ir::AllocSite &valueSite(ValueId V) const {
    return P.allocSite(Values[V.index()].Site);
  }
  ir::AllocSiteId valueSiteId(ValueId V) const {
    return Values[V.index()].Site;
  }
  ir::TypeId valueType(ValueId V) const {
    return P.allocSite(Values[V.index()].Site).ObjectType;
  }
  CtxId valueHeapCtx(ValueId V) const { return Values[V.index()].HeapCtx; }
  uint32_t valueCount() const {
    return static_cast<uint32_t>(Values.size());
  }

  /// Context instances (variable nodes) of \p Var created so far.
  const std::vector<NodeId> &varInstances(ir::VarId Var) const;

  /// Nodes interned so far; `NodeId(0)` .. `NodeId(nodeCount() - 1)`.
  uint32_t nodeCount() const { return static_cast<uint32_t>(Nodes.size()); }

  /// Points-to set of one node: ValueId raw indexes, strictly ascending.
  SetView pointsTo(NodeId N) const {
    const std::vector<uint32_t> &Raw = PointsTo[N.index()];
    if (!Nodes[N.index()].Dense)
      return SetView(Raw.data(), static_cast<uint32_t>(Raw.size()),
                     static_cast<uint32_t>(Raw.size()), false);
    return SetView(Raw.data() + 1, static_cast<uint32_t>(Raw.size() - 1),
                   Raw[0], true);
  }

  /// Context-insensitive projection: distinct allocation sites pointed to by
  /// any context instance of \p Var, sorted by site id (canonical order, so
  /// two variables with equal site *sets* compare equal regardless of the
  /// order propagation reached them).
  std::vector<ir::AllocSiteId> varPointsToSites(ir::VarId Var) const;

  /// All (method, ctx) pairs reached.
  const InsertOrderSet<uint32_t> &reachableCMethods() const {
    return ReachableSet;
  }
  ir::MethodId cmethodMethod(CMethodId CM) const {
    return CMethods[CM.index()].M;
  }
  CtxId cmethodCtx(CMethodId CM) const { return CMethods[CM.index()].Ctx; }

  /// Context-insensitive reachable method set.
  std::vector<ir::MethodId> reachableMethods() const;
  bool isMethodReachable(ir::MethodId M) const {
    return M.index() < MethodReached.size() && MethodReached[M.index()];
  }

  /// Distinct (invocation, target-method) call-graph edges.
  const InsertOrderSet<uint64_t> &callGraphEdges() const {
    return CallEdges;
  }

  /// One record per cast statement occurrence (deduplicated by statement);
  /// used for the may-fail-cast metric.
  struct CastRecord {
    ir::TypeId TargetType;
    bool InApplication;
    std::vector<NodeId> SourceNodes; ///< one per context instance
  };
  const std::vector<CastRecord> &castRecords() const { return Casts; }

  /// Total context-sensitive var-points-to tuples whose variable's declaring
  /// class name starts with \p PackagePrefix — the paper's heuristic for
  /// attributing analysis cost to java.util (Figure 5).
  uint64_t varPointsToTuples(std::string_view PackagePrefix) const;
  /// Total context-sensitive var-points-to tuples.
  uint64_t varPointsToTuplesTotal() const;

  /// Sum/count for average points-to size metrics. \p AppOnly restricts to
  /// variables of application-declared methods. Context-insensitive
  /// projection (sites per variable), averaged over pointing variables.
  double averageVarPointsTo(bool AppOnly) const;

  /// The points-to set census of DESIGN.md §14: groups every var node's
  /// set by contents to count distinct vs total sets, a power-of-two size
  /// histogram, the sets' size as u32 arrays (`SetBytes`, defined by
  /// contents; the bytes actually held are the `pointsto.bytes.sets_*`
  /// gauges), and the share of it interning equal sets (ROADMAP item 2)
  /// would reclaim. One `PackageShare` row per entry of \p PackagePrefixes
  /// (`varPointsToTuples` on each — where the paper's `java.util` elephants
  /// light up). Run at fixpoint; every field is deterministic at any
  /// `Threads` setting, because set contents and value ids are (DESIGN.md
  /// §11).
  observe::ProfileCensus
  censusPointsTo(const std::vector<std::string> &PackagePrefixes) const;

  struct Stats {
    /// Values that entered a set: Σ|delta| over all rounds, which equals
    /// Σ|pointsTo(N)| over all nodes at fixpoint.
    uint64_t WorkItems = 0;
    /// Distinct (from, to, filter) edges, counted as the merge folds them.
    uint64_t EdgesAdded = 0;
    uint64_t ReactionsRun = 0;
    uint32_t PluginRounds = 0;
    /// Bulk-synchronous drain rounds across all fixpoints. Thread-count
    /// invariant (the shard count is fixed, not derived from `Threads`).
    uint64_t Rounds = 0;
  };
  const Stats &stats() const { return SolverStats; }

private:
  // --- Graph node model ---------------------------------------------------

  enum class NodeKind : uint8_t {
    Var,           ///< (VarId, CtxId)
    ObjectField,   ///< (ValueId, FieldId)
    ArrayContents, ///< (ValueId)
    StaticField,   ///< (FieldId)
    MethodThrow,   ///< (CMethodId) — exceptions escaping the method
    CatchDispatch, ///< (CMethodId) — thrown values awaiting catch routing
  };

  struct Node {
    NodeKind Kind;
    /// The set is a bitmap, not an array. Sits in what would be padding.
    bool Dense = false;
    uint32_t A = 0; ///< kind-dependent payload
    uint32_t B = 0;
  };

  struct Edge {
    NodeId Target;
    ir::TypeId Filter; ///< invalid = unconditional
  };

  /// Deferred behaviors attached to variable nodes, fired per arriving
  /// object.
  struct Reaction {
    enum class Kind : uint8_t {
      LoadBase,      ///< Dst = Base.F
      StoreBase,     ///< Base.F = Src
      ArrayLoadBase, ///< Dst = Base[*]
      ArrayStoreBase,///< Base[*] = Src
      VirtualCall,   ///< dispatch on arriving receiver
      SpecialCall,   ///< fixed target, receiver-contextualized
    };
    Kind RKind;
    const ir::Statement *Stmt;
    CtxId Ctx;          ///< caller context
    CMethodId CallerCM; ///< for call wiring (exception edges)
  };

  // --- Sharded worklist (DESIGN.md §11) -----------------------------------

  /// Shard count. A constant (not `Threads`-derived): the canonical
  /// source-shard-major application order at the barrier must not depend on
  /// the worker count, or the fixpoint trajectory would.
  static constexpr uint32_t NumShards = 64;
  static constexpr uint32_t ShardMask = NumShards - 1;
  static uint32_t shardOf(NodeId N) { return N.index() & ShardMask; }

  /// One node's new values this round: `Size` entries of its shard's
  /// `DeltaValues` arena from `Begin`, sorted.
  struct Delta {
    NodeId N;
    uint32_t Begin;
    uint32_t Size;
  };
  /// An edge leaving a delta node: the gather reads delta `Source` of
  /// shard `Shard`, filters it, and feeds node `Target`. A replay ref of a
  /// new edge has `Shard == ReplayShard` and reads node `Source`'s whole
  /// set instead.
  struct StagedRef {
    uint32_t Target;
    uint32_t Shard;
    uint32_t Source;
    ir::TypeId Filter;
  };
  static constexpr uint32_t ReplayShard = NumShards;
  /// Delta `Source` fires the node's first `Reactions` reactions (the count
  /// at phase time; later ones replay the whole set when added) and, for a
  /// catch-dispatch node, its catch routing.
  struct StagedFiring {
    uint32_t Source;
    uint32_t Reactions;
  };

  /// Per-shard drain state. The merge of shard S writes only S's incoming
  /// buffer, deltas, dirty list, byte counts, and the sets (with their
  /// form flags) and edge lists of S's nodes; the phase of S only S's
  /// staging vectors; the gather of S reads every shard's deltas but
  /// writes only S's incoming buffer and the refs addressed to S. Deltas
  /// and staging are round arenas, reused every round and released when
  /// `solve()` returns.
  struct Shard {
    /// packPair(node, value) bound for this shard's nodes; next merge input.
    std::vector<uint64_t> Incoming;
    /// This shard's nodes with an unmerged edge tail; next merge input.
    std::vector<uint32_t> DirtyEdges;
    /// Whole-set replays of new edges into this shard's nodes; next gather
    /// input.
    std::vector<StagedRef> Replays;
    std::vector<Delta> Deltas;
    std::vector<uint32_t> DeltaValues;
    std::vector<Edge> EdgeTail; ///< merge scratch: one node's new edges
    uint64_t NewEdges = 0;      ///< edges the last merge added
    std::array<std::vector<StagedRef>, NumShards> StagedRefs;
    uint64_t StagedMask = 0; ///< bit T: the last phase staged refs for T
    std::vector<StagedFiring> Firings;
    /// Capacity bytes of this shard's nodes' sets, by form (index: the
    /// node's `Dense` flag), and of their edge lists. Kept current where
    /// they grow, so publishing them does not walk every node.
    std::array<uint64_t, 2> SetBytes = {};
    uint64_t EdgeBytes = 0;
    uint64_t TotalItems = 0; ///< lifetime work items (deterministic)
    uint64_t Steals = 0;     ///< phase tasks run off their home worker
  };

  NodeId internNode(NodeKind Kind, uint32_t A, uint32_t B);
  /// The slot holding node (Kind, A, B), or the empty slot it would take.
  size_t nodeSlot(NodeKind Kind, uint32_t A, uint32_t B) const;
  NodeId varNode(ir::VarId Var, CtxId Ctx);
  NodeId fieldNode(ValueId Base, ir::FieldId F);
  NodeId arrayNode(ValueId Base);
  NodeId staticNode(ir::FieldId F);
  NodeId throwNode(CMethodId CM);
  NodeId catchNode(CMethodId CM);

  CMethodId internCMethod(ir::MethodId M, CtxId Ctx);

  void propagate(NodeId N, ValueId V);
  /// Appends the edge to \p From's unsorted tail and, if \p From holds
  /// values, queues a whole-set replay for the next gather. O(1): the next
  /// merge drops duplicates and counts the edge.
  void addEdge(NodeId From, NodeId To, ir::TypeId Filter = ir::TypeId::invalid());
  void addReaction(NodeId N, Reaction R);
  void applyReaction(const Reaction &R, ValueId V);
  void dispatchCatch(CMethodId CM, ValueId V);

  /// Unions the sorted run \p New[0, Add), none of whose values node
  /// \p NIdx holds, into its set, and picks the set's form from the result.
  void unionIntoSet(uint32_t NIdx, const uint32_t *New, uint32_t Add);
  /// Round step 1: turns one shard's incoming values into deltas and
  /// unions them into its nodes' sets, and folds its nodes' edge tails into
  /// their edge lists — the only place sets and edge lists mutate.
  void mergeShard(uint32_t ShardIndex);
  /// Round step 2: stages one shard's delta edges, reactions and catches.
  /// Read-only over solver state; safe to run concurrently across shards.
  void phaseShard(uint32_t ShardIndex);
  /// Round step 3: feeds one target shard's incoming buffer from the deltas
  /// staged against it and from the sets its replay refs name.
  void gatherShard(uint32_t ShardIndex);
  /// Round step 4, sequential: fires staged reactions and catches.
  void applyBarrier();
  void drainWorklist();
  void releaseRoundArenas();
  /// Any queued incoming values, replay refs or dirty edge tails.
  bool hasPendingWork() const;
  void publishMetrics();

  /// Processes all statements of a newly reachable (method, ctx).
  void processBody(CMethodId CM);

  /// Establishes a call edge: reachability, receiver/argument/return/
  /// exception wiring, call-graph recording.
  void wireCall(const ir::Statement &S, CtxId CallerCtx, CMethodId CallerCM,
                ir::MethodId Callee, CtxId CalleeCtx, ValueId Receiver);

  bool passesFilter(ValueId V, ir::TypeId Filter) const;

  const ir::Program &P;
  SolverConfig Config;
  ContextTable Ctxs;

  // Value interning.
  struct ValueKey {
    ir::AllocSiteId Site;
    CtxId HeapCtx;
  };
  std::vector<ValueKey> Values;
  std::unordered_map<uint64_t, uint32_t> ValueLookup;

  // Node interning: flat open addressing over node indexes, verified
  // against `Nodes` (the (kind, A, B) triple does not fit a 64-bit key).
  std::vector<Node> Nodes;
  std::vector<uint32_t> NodeSlots; ///< node index or `EmptySlot`
  static constexpr uint32_t EmptySlot = ~uint32_t(0);

  // CMethod interning.
  struct CMethod {
    ir::MethodId M;
    CtxId Ctx;
  };
  std::vector<CMethod> CMethods;
  std::unordered_map<uint64_t, uint32_t> CMethodLookup;

  // Per-node state (indexed by NodeId).
  /// Sorted ValueId raws, or, if the node is `Dense`, the set's size
  /// followed by its bitmap words (see `pointsTo`).
  std::vector<std::vector<uint32_t>> PointsTo;
  /// Out-edges: a prefix sorted by (target, filter) without repeats, then
  /// an unsorted tail of edges added since the last merge.
  std::vector<std::vector<Edge>> Edges;
  std::vector<uint32_t> EdgesSorted; ///< length of each sorted prefix
  std::vector<std::vector<Reaction>> Reactions;
  uint64_t ReactionBytes = 0; ///< capacity bytes of the reaction lists

  // Var -> its context instances.
  std::vector<std::vector<NodeId>> VarNodes;

  InsertOrderSet<uint32_t> ReachableSet; // CMethodId raw
  std::vector<bool> MethodReached;       // by MethodId

  InsertOrderSet<uint64_t> CallEdges; // packPair(invoke, calleeMethod)

  std::vector<CastRecord> Casts;
  std::unordered_map<const ir::Statement *, uint32_t> CastIndex;

  std::vector<Shard> Shards;
  /// Created lazily on the first round big enough to parallelize.
  std::unique_ptr<WorkerPool> Pool;
  uint64_t ParallelRounds = 0; ///< scheduling-dependent (threshold + pool)
  /// Wall seconds per round step, summed over rounds (volatile).
  double MergeSeconds = 0, PhaseSeconds = 0, GatherSeconds = 0,
         BarrierSeconds = 0;

  std::vector<Plugin *> Plugins;
  Stats SolverStats;
  observe::Tracer *Trace = nullptr;
  observe::MetricsRegistry *Registry = nullptr;

  static const std::vector<NodeId> NoInstances;
};

} // namespace pointsto
} // namespace jackee

#endif // JACKEE_POINTSTO_SOLVER_H
