//===- DenseSet.h - Insertion-ordered deterministic sets --------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `InsertOrderSet` — a set with O(1) membership and *deterministic*
/// (insertion-order) iteration. The solver's reachable-method and
/// call-graph edge sequences iterate these, and analysis output must not
/// depend on hash table layout (see "Beware of non-determinism" in the LLVM
/// standards).
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_DENSESET_H
#define JACKEE_SUPPORT_DENSESET_H

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace jackee {

/// A set of trivially-copyable values with insertion-ordered iteration.
///
/// Membership is tracked by a hash set; iteration walks the insertion-order
/// vector, so results are reproducible run to run.
template <typename T, typename Hash = std::hash<T>> class InsertOrderSet {
public:
  using const_iterator = typename std::vector<T>::const_iterator;

  /// Inserts \p Value. \returns true if it was not already present.
  bool insert(const T &Value) {
    if (!Members.insert(Value).second)
      return false;
    Order.push_back(Value);
    return true;
  }

  bool contains(const T &Value) const { return Members.count(Value) != 0; }

  size_t size() const { return Order.size(); }
  bool empty() const { return Order.empty(); }

  const_iterator begin() const { return Order.begin(); }
  const_iterator end() const { return Order.end(); }

  /// Element \p I in insertion order. Stable under later insertions, which is
  /// what lets delta-based loops use an index cursor instead of iterators.
  const T &operator[](size_t I) const { return Order[I]; }

  const std::vector<T> &items() const { return Order; }

  void clear() {
    Members.clear();
    Order.clear();
  }

private:
  std::unordered_set<T, Hash> Members;
  std::vector<T> Order;
};

} // namespace jackee

#endif // JACKEE_SUPPORT_DENSESET_H
