//===- Context.h - Object-sensitive context interning -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contexts for object-sensitive analysis (Milanova et al.; Smaragdakis et
/// al. "Pick Your Contexts Well"). A context is a bounded sequence of
/// allocation sites: the method context of a virtually dispatched call is
/// `suffix(heapCtx(recv) ++ [site(recv)], K)` and the heap context of a new
/// allocation is `suffix(methodCtx, H)`. `ContextTable` interns these
/// sequences into dense ids; the same table serves method and heap contexts.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_POINTSTO_CONTEXT_H
#define JACKEE_POINTSTO_CONTEXT_H

#include "ir/Program.h"
#include "support/DenseSet.h"
#include "support/Hashing.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

namespace jackee {
namespace pointsto {

/// An interned context (sequence of allocation sites, possibly empty).
using CtxId = Id<struct CtxTag>;

/// Interns allocation-site sequences. Id 0 is always the empty context.
class ContextTable {
public:
  ContextTable() {
    // Intern the empty context as id 0.
    (void)intern({});
  }

  /// The empty (context-insensitive) context.
  CtxId empty() const { return CtxId(0); }

  /// Interns \p Sites verbatim. None of the three entry points allocates
  /// unless the sequence is new (or, for `appendAndTruncate`, longer than
  /// eight sites).
  CtxId intern(std::span<const ir::AllocSiteId> Sites);

  /// Interns `suffix(Sites ++ [Extra], Limit)` — the "merge" operation of
  /// object sensitivity. \p Limit == 0 yields the empty context.
  CtxId appendAndTruncate(CtxId Base, ir::AllocSiteId Extra, uint32_t Limit);

  /// Interns `suffix(Base, Limit)` — heap-context truncation.
  CtxId truncate(CtxId Base, uint32_t Limit);

  const std::vector<ir::AllocSiteId> &elements(CtxId Ctx) const {
    return Contexts[Ctx.index()];
  }

  size_t size() const { return Contexts.size(); }

  /// Estimated owned bytes: the context vectors, their site lists (stored
  /// twice: once as the context, once as its lookup key), and the lookup.
  size_t bytes() const {
    return Contexts.capacity() * sizeof(Contexts[0]) + 2 * SiteBytes +
           hashTableBytes(Lookup);
  }

private:
  using SiteSpan = std::span<const ir::AllocSiteId>;
  /// Hash and equality over spans, so a lookup takes any sequence — a
  /// suffix of a stored context, a stack buffer — without building a key
  /// vector.
  struct SeqHash {
    using is_transparent = void;
    size_t operator()(SiteSpan Seq) const {
      size_t Seed = 0x5151u;
      for (ir::AllocSiteId Site : Seq)
        Seed = hashCombine(Seed, Site.rawValue());
      return Seed;
    }
  };
  struct SeqEqual {
    using is_transparent = void;
    bool operator()(SiteSpan A, SiteSpan B) const {
      return std::equal(A.begin(), A.end(), B.begin(), B.end());
    }
  };

  std::vector<std::vector<ir::AllocSiteId>> Contexts;
  std::unordered_map<std::vector<ir::AllocSiteId>, uint32_t, SeqHash,
                     SeqEqual>
      Lookup;
  size_t SiteBytes = 0; ///< sites across all contexts, in bytes
};

} // namespace pointsto
} // namespace jackee

#endif // JACKEE_POINTSTO_CONTEXT_H
