#ifndef PROMETHEUS_CORE_OID_TRIE_H_
#define PROMETHEUS_CORE_OID_TRIE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/oid.h"

namespace prometheus {

/// A persistent (path-copying) 64-ary radix trie keyed by Oid: the record
/// store of the database and of every MVCC snapshot (the weaseldb-style
/// pattern: mutations produce a new root that structurally shares every
/// untouched subtree with the previous version, so publishing a snapshot is
/// one shared_ptr copy and updating k records costs O(k * depth) node
/// clones, never O(N)).
///
/// Oids are allocated densely from 1, so the trie stays shallow: height 3
/// covers 262k ids, height 4 covers 16.7M. Interior levels use `child`,
/// the leaf level uses `value`; a node carries both arrays for simplicity
/// (~2 KB per node, amortised ~32 bytes per stored entry).
///
/// Concurrency contract: `Set`/`Erase`/`Mutable` are called by the single
/// writer only. Readers traverse roots reached through a published
/// snapshot; the publish itself (a mutex-protected shared_ptr store)
/// provides the happens-before. The writer mutates a node or value in place
/// only when `use_count() == 1` — anything reachable from a published
/// snapshot always has an extra owner (its retained parent in that
/// snapshot), and parents are copied before children on the way down, so a
/// shared node or value is cloned, never mutated. A concurrent
/// snapshot destruction can only *drop* a count, making the check
/// conservative (worst case: one unnecessary clone).
template <typename T>
class OidTrie {
 public:
  using ValuePtr = std::shared_ptr<const T>;

  OidTrie() = default;
  OidTrie(const OidTrie&) = default;             // O(1): shares the root
  OidTrie& operator=(const OidTrie&) = default;  // O(1)
  OidTrie(OidTrie&&) noexcept = default;
  OidTrie& operator=(OidTrie&&) noexcept = default;

  /// Current version under `oid`; nullptr when absent. Safe to call
  /// concurrently with a writer mutating a *different* trie that shares
  /// structure with this one.
  const T* Find(Oid oid) const {
    const ValuePtr* slot = Lookup(oid);
    return slot == nullptr ? nullptr : slot->get();
  }

  /// Writable access to the value under `oid` for the single writer;
  /// nullptr when absent. Path-copies every node shared with a published
  /// snapshot, and replaces a shared value by `clone(value)` under the
  /// same `use_count()` test, so a version a snapshot can reach is never
  /// edited. The pointer stays valid until the trie is next copied (a
  /// publish) or `oid` is erased.
  template <typename Clone>
  T* Mutable(Oid oid, const Clone& clone) {
    if (Find(oid) == nullptr) return nullptr;
    root_ = MutableNode(std::move(root_));
    Node* n = root_.get();
    for (int level = height_ - 1; level > 0; --level) {
      NodePtr& child = n->child[Slot(oid, level)];
      child = MutableNode(std::move(child));
      n = child.get();
    }
    ValuePtr& value = n->value[Slot(oid, 0)];
    if (value.use_count() > 1) value = clone(*value);
    return const_cast<T*>(value.get());
  }

  /// Installs `value` under `oid` (null erases), path-copying every node
  /// shared with a published snapshot. Single-writer only.
  void Set(Oid oid, ValuePtr value) {
    while (!Fits(oid)) GrowRoot();
    root_ = SetRec(std::move(root_), height_ - 1, oid, std::move(value));
  }

  /// Removes `oid` and returns the removed value (null when absent).
  ValuePtr Erase(Oid oid) {
    const ValuePtr* slot = Lookup(oid);
    if (slot == nullptr || *slot == nullptr) return nullptr;
    ValuePtr old = *slot;
    Set(oid, nullptr);
    return old;
  }

  bool empty() const { return root_ == nullptr; }

 private:
  static constexpr int kBits = 6;
  static constexpr int kFan = 1 << kBits;

  struct Node {
    std::array<std::shared_ptr<Node>, kFan> child;
    std::array<ValuePtr, kFan> value;
  };
  using NodePtr = std::shared_ptr<Node>;

  static std::size_t Slot(Oid oid, int level) {
    return static_cast<std::size_t>(oid >> (level * kBits)) &
           static_cast<std::size_t>(kFan - 1);
  }

  bool Fits(Oid oid) const {
    const int bits = height_ * kBits;
    return bits >= 64 || (oid >> bits) == 0;
  }

  const ValuePtr* Lookup(Oid oid) const {
    const Node* n = root_.get();
    if (n == nullptr || !Fits(oid)) return nullptr;
    for (int level = height_ - 1; level > 0; --level) {
      n = n->child[Slot(oid, level)].get();
      if (n == nullptr) return nullptr;
    }
    return &n->value[Slot(oid, 0)];
  }

  void GrowRoot() {
    if (root_ != nullptr) {
      auto n = std::make_shared<Node>();
      n->child[0] = std::move(root_);
      root_ = std::move(n);
    }
    ++height_;
  }

  /// The writer's copy-on-write gate. `n` arrives by move so the count it
  /// reports is the count held by snapshots and the live path, not a
  /// call-site temporary.
  static NodePtr MutableNode(NodePtr n) {
    if (n == nullptr) return std::make_shared<Node>();
    if (n.use_count() == 1) return n;
    return std::make_shared<Node>(*n);
  }

  static NodePtr SetRec(NodePtr n, int level, Oid oid, ValuePtr value) {
    NodePtr m = MutableNode(std::move(n));
    if (level == 0) {
      m->value[Slot(oid, 0)] = std::move(value);
    } else {
      NodePtr& slot = m->child[Slot(oid, level)];
      slot = SetRec(std::move(slot), level - 1, oid, std::move(value));
    }
    return m;
  }

  NodePtr root_;    // null == empty trie
  int height_ = 1;  // levels; capacity = 64^height_
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_OID_TRIE_H_
