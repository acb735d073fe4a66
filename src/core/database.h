#ifndef PROMETHEUS_CORE_DATABASE_H_
#define PROMETHEUS_CORE_DATABASE_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "event/event_bus.h"
#include "obs/wait_profiler.h"

namespace prometheus {

/// The Prometheus database: schema registry, object store, first-class
/// relationship store, instance synonyms and transactions, publishing every
/// mutation on an `EventBus` (thesis chapter 4 model; chapter 6
/// architecture: event layer + object layer).
///
/// Storage: one store. Every object, link, extent, context bucket, synonym
/// edge and schema table lives in the *working store* — a `DbSnapshot`
/// (`core/snapshot.h`) that mutations edit through copy-on-write. Every
/// const read method below is a one-line forward to it.
///
/// Thread model: a `Database` used from one thread (the embedded mode, and
/// the thesis' single-user prototype) needs no locking at all. Concurrent
/// use is MVCC: writers (every mutation, transaction, or journal-observed
/// change) serialize through the `WriteGuard` below, and the end
/// of each write section **publishes** the working store as an immutable
/// snapshot — a copy of its roots and tables, O(#classes + #contexts),
/// sharing every record. Readers call `AcquireSnapshot()` and execute
/// against the pinned snapshot with no lock held: a reader can never be
/// blocked, starved, or torn by a writer, and a writer stalled mid-section
/// (e.g. in a journal fsync) degrades write latency only. The writer
/// clones a record, trie node or table before changing it whenever a
/// snapshot shares it, so nothing a snapshot reaches is edited again.
/// Every read names the store it reads: a pinned snapshot, or
/// `live_store()` on the writer's own thread (or single-threaded). Debug
/// builds assert the protocol on every read and mutation.
///
/// Version retention is reference-counted, not scheduled: a superseded
/// version is freed the moment the last snapshot reaching it is released
/// (watermark = oldest pinned epoch, visible as
/// `mvcc_oldest_snapshot_epoch`; retention volume as
/// `mvcc_retained_versions`).
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -------------------------------------------- concurrency (epoch guard)

  /// RAII write lock: the epoch guard is writers-only (readers pin
  /// snapshots instead). Completing a write section bumps the epoch, so
  /// readers can detect whether any writer ran between two of their own
  /// critical sections.
  ///
  /// With metrics enabled, acquisition is timed into
  /// `guard_wait_micros{mode="exclusive"}`, the hold into
  /// `guard_hold_micros{mode="exclusive"}` plus the
  /// `guard_writer_last_hold_micros` gauge, and `guard_writer_held` is 1
  /// for the duration — the writer-hold telemetry that explains write
  /// latency.
  class WriteGuard {
   public:
    explicit WriteGuard(Database& db)
        : db_(db), lock_(db.guard_, std::defer_lock) {
      if (obs::MetricsEnabled()) {
        const obs::GuardInstruments& g = obs::GuardInstruments::Get();
        const auto start = std::chrono::steady_clock::now();
        if (!lock_.try_lock()) {
          g.blocked_writers->Add(1);
          lock_.lock();
          g.blocked_writers->Sub(1);
        }
        acquired_at_ = std::chrono::steady_clock::now();
        wait_micros_ = std::chrono::duration<double, std::micro>(
                           acquired_at_ - start)
                           .count();
        g.exclusive_wait->Observe(wait_micros_);
        // High-water mark of writer wait: single-writer MVCC makes writer
        // admission the choke point, so starvation must be visible.
        // Writers are serialized here (the lock is already held), so the
        // read-compare-set cannot lose an update.
        if (wait_micros_ >
            static_cast<double>(g.writer_longest_wait->value())) {
          g.writer_longest_wait->Set(static_cast<std::int64_t>(wait_micros_));
        }
        g.writer_held->Set(1);
        timed_ = true;
      } else {
        lock_.lock();
      }
      // Unguarded single-threaded mutations made before this section are
      // published before the section edits anything (see AcquireSnapshot).
      if (db_.unpublished_.load(std::memory_order_acquire)) {
        db_.Publish(db_.epoch());
      }
      db_.writer_thread_.store(std::this_thread::get_id(),
                               std::memory_order_relaxed);
      db_.writer_active_.store(true, std::memory_order_release);
    }
    ~WriteGuard() {
      // Publish the post-section snapshot while still exclusive, *before*
      // the epoch bump becomes observable: a reader that sees epoch E+1
      // must be able to acquire a snapshot stamped E+1 (a reader seeing
      // the new snapshot before the bump is harmless — snapshots only ever
      // run ahead of the observable epoch, never behind). Even a no-op
      // section republishes, so the snapshot epoch tracks the database
      // epoch exactly — the result cache's epoch-equality check relies on
      // it.
      db_.Publish(db_.epoch() + 1);
      db_.writer_active_.store(false, std::memory_order_release);
      db_.epoch_.fetch_add(1, std::memory_order_acq_rel);
      if (timed_) {
        const double hold = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                acquired_at_)
                                .count();
        const obs::GuardInstruments& g = obs::GuardInstruments::Get();
        g.exclusive_hold->Observe(hold);
        g.writer_last_hold_micros->Set(static_cast<std::int64_t>(hold));
        g.writer_held->Set(0);
      }
    }

    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

    /// Microseconds this guard spent blocked in acquisition (0 with
    /// metrics disabled).
    double wait_micros() const { return wait_micros_; }

   private:
    Database& db_;
    std::unique_lock<std::mutex> lock_;
    std::chrono::steady_clock::time_point acquired_at_{};
    double wait_micros_ = 0;
    bool timed_ = false;
  };

  /// Monotonic count of write stretches: every completed write section
  /// advances it, and so does the first unguarded (single-threaded)
  /// mutation after a publish. Every published snapshot is stamped with
  /// it, so two snapshots of one epoch hold the same contents — the result
  /// cache's epoch-equality check relies on it.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The live working store: what embedded callers, the writer thread and
  /// its event listeners read. Other threads read a pinned snapshot
  /// (`AcquireSnapshot`).
  const DbSnapshot& live_store() const {
    AssertSharedAccess();
    return store_;
  }

  // ------------------------------------------------- MVCC snapshot reads

  /// Pins the current published snapshot and returns a handle to it.
  ///
  /// Never blocks on a write section — the fast path is one brief
  /// mutex-protected shared_ptr copy plus the pin-registry insert, neither
  /// held across a write section. After unguarded (single-threaded)
  /// mutations, the first acquire republishes the working store first, an
  /// O(#classes + #contexts) copy, made under a try-locked guard. Must
  /// not be called by a thread that holds this database's guard.
  SnapshotHandle AcquireSnapshot();

  /// Number of currently pinned snapshot handles (test/ops visibility;
  /// also exported as `mvcc_pinned_snapshots`).
  std::size_t pinned_snapshots() const;

  /// The GC watermark: the oldest epoch a pinned handle still reads, or
  /// the current epoch when nothing is pinned. Versions older than this
  /// are unreachable and already freed (refcount reclamation).
  std::uint64_t oldest_pinned_epoch() const;

  /// Debug checks of the locking protocol; no-ops in NDEBUG builds.
  /// Reading the live store is legal unless a *foreign* thread holds the
  /// write guard; mutation is legal when this thread holds the write guard
  /// or nobody holds it at all (single-threaded mode).
  void AssertSharedAccess() const {
#ifndef NDEBUG
    assert(!writer_active_.load(std::memory_order_acquire) ||
           writer_thread_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id());
#endif
  }
  void AssertExclusiveAccess() const {
#ifndef NDEBUG
    assert((!writer_active_.load(std::memory_order_acquire) ||
            writer_thread_.load(std::memory_order_relaxed) ==
                std::this_thread::get_id()) &&
           "mutation while another thread holds the write guard");
#endif
  }

  // ---------------------------------------------------------------- schema

  /// Defines a class. `supers` name previously defined classes.
  /// Fails with kInvalidArgument on duplicate names, unknown supers, or
  /// attribute names that collide with inherited attributes.
  Result<const ClassDef*> DefineClass(
      const std::string& name, const std::vector<std::string>& supers = {},
      std::vector<AttributeDef> attributes = {}, bool is_abstract = false);

  /// Defines a relationship class between two existing classes.
  /// `link_attributes` are carried by each link; `supers` name previously
  /// defined relationship classes (source/target must covariantly refine
  /// the super's).
  Result<const RelationshipDef*> DefineRelationship(
      const std::string& name, const std::string& source_class,
      const std::string& target_class,
      RelationshipSemantics semantics = RelationshipSemantics{},
      std::vector<AttributeDef> link_attributes = {},
      const std::vector<std::string>& supers = {});

  /// Declares a method signature on an existing class (thesis 4.2). The
  /// signature is schema metadata; behaviour is implemented host-side, as
  /// in the ODMG language bindings.
  Status DefineMethod(const std::string& class_name, MethodDef method);

  /// Defines a relationship *template* (thesis figure 34): a reusable
  /// bundle of semantics and link attributes that can be instantiated
  /// against concrete classes any number of times.
  Status DefineRelationshipTemplate(const std::string& name,
                                    RelationshipSemantics semantics,
                                    std::vector<AttributeDef> link_attributes);

  /// Instantiates a template into a concrete relationship class.
  Result<const RelationshipDef*> InstantiateRelationship(
      const std::string& template_name, const std::string& rel_name,
      const std::string& source_class, const std::string& target_class);

  /// Names of the defined relationship templates.
  std::vector<std::string> relationship_templates() const {
    return store_.relationship_templates();
  }

  /// A template by name; nullptr when absent.
  const RelationshipTemplate* FindTemplate(std::string_view name) const {
    return store_.FindTemplate(name);
  }

  /// Looks up a class by name; nullptr when absent.
  const ClassDef* FindClass(std::string_view name) const {
    return store_.FindClass(name);
  }

  /// Looks up a relationship class by name; nullptr when absent.
  const RelationshipDef* FindRelationship(std::string_view name) const {
    return store_.FindRelationship(name);
  }

  /// All defined classes, in definition order.
  std::vector<const ClassDef*> classes() const { return store_.classes(); }

  /// All defined relationship classes, in definition order.
  std::vector<const RelationshipDef*> relationships() const {
    return store_.relationships();
  }

  // --------------------------------------------------------------- objects

  /// Creates an instance of `class_name` with defaults applied and `inits`
  /// overriding them. Vetoable by before-rules.
  Result<Oid> CreateObject(const std::string& class_name,
                           std::vector<AttrInit> inits = {});

  /// Deletes an object: removes incident links (cascading through
  /// lifetime-dependent relationships) and removes it from its extent.
  Status DeleteObject(Oid oid);

  /// Sets an attribute, type-checked against the declaration.
  Status SetAttribute(Oid oid, const std::string& name, Value value);

  /// Reads an attribute. Falls back to attributes inherited from incoming
  /// links whose relationship class enables `inherit_attributes`
  /// (thesis 4.4.5, figures 17–18).
  Result<Value> GetAttribute(Oid oid, const std::string& name) const {
    return live_store().GetAttribute(oid, name);
  }

  /// Non-owning instance lookup; nullptr when the oid is dead or unknown.
  /// See `Object` (core/instance.h) for how long the pointer stays valid.
  const Object* GetObject(Oid oid) const { return live_store().GetObject(oid); }

  /// True when `oid` designates a live object of `class_name` (or one of
  /// its subclasses).
  bool IsInstanceOf(Oid oid, std::string_view class_name) const {
    return live_store().IsInstanceOf(oid, class_name);
  }

  /// The extent of a class; with `include_subclasses` (the default) this is
  /// the deep extent.
  std::vector<Oid> Extent(const std::string& class_name,
                          bool include_subclasses = true) const {
    return live_store().Extent(class_name, include_subclasses);
  }

  /// Number of live objects.
  std::size_t object_count() const { return store_.object_count(); }

  // ----------------------------------------------------------------- links

  /// Creates a link of `rel_name` from `source` to `target`, optionally in
  /// classification `context`. Enforces typing, cardinality, exclusivity
  /// and sharability; vetoable by before-rules.
  Result<Oid> CreateLink(const std::string& rel_name, Oid source, Oid target,
                         Oid context = kNullOid,
                         std::vector<AttrInit> inits = {});

  /// Deletes a link. Vetoed for constant relationships.
  Status DeleteLink(Oid oid);

  /// Sets a link attribute. Vetoed for constant relationships.
  Status SetLinkAttribute(Oid oid, const std::string& name, Value value);

  /// Reads a link attribute.
  Result<Value> GetLinkAttribute(Oid oid, const std::string& name) const {
    return live_store().GetLinkAttribute(oid, name);
  }

  /// Non-owning link lookup; nullptr when dead or unknown.
  const Link* GetLink(Oid oid) const { return live_store().GetLink(oid); }

  /// All live links of a relationship class (its extent); with
  /// `include_subrelationships`, links of sub-relationship classes too.
  std::vector<Oid> LinkExtent(const std::string& rel_name,
                              bool include_subrelationships = true) const {
    return live_store().LinkExtent(rel_name, include_subrelationships);
  }

  /// All live links whose classification context is `context` (thesis
  /// 4.6.2: a classification *is* the set of links created in its context).
  /// Maintained incrementally; O(result).
  /// The reference goes stale when a later mutation changes the context.
  const std::vector<Oid>& LinksInContext(Oid context) const {
    return live_store().LinksInContext(context);
  }

  /// Number of live links.
  std::size_t link_count() const { return store_.link_count(); }

  // ------------------------------------------------------------- traversal

  /// Links incident to `oid` in `dir`, optionally restricted to a
  /// relationship class (and its subs) and/or a classification context.
  std::vector<Oid> IncidentLinks(Oid oid, Direction dir,
                                 const RelationshipDef* def = nullptr,
                                 Oid context = kNullOid) const {
    return live_store().IncidentLinks(oid, dir, def, context);
  }

  /// Objects one hop away from `oid` over `rel_name` links.
  /// `context == kNullOid` means "any context".
  std::vector<Oid> Neighbors(Oid oid, const std::string& rel_name,
                             Direction dir = Direction::kOut,
                             Oid context = kNullOid) const {
    return live_store().Neighbors(oid, rel_name, dir, context);
  }

  /// Recursive closure (requirement 9): every object reachable from `start`
  /// over `rel_name` links within `[min_depth, max_depth]` hops
  /// (`max_depth == 0` means unbounded). Breadth-first; each object is
  /// reported once at its smallest depth. The start itself is reported only
  /// when `min_depth == 0`.
  Result<std::vector<Oid>> Traverse(Oid start, const std::string& rel_name,
                                    std::uint32_t min_depth,
                                    std::uint32_t max_depth,
                                    Direction dir = Direction::kOut,
                                    Oid context = kNullOid) const {
    return live_store().Traverse(start, rel_name, min_depth, max_depth,
                                 dir, context);
  }

  // ----------------------------------------------- instance synonyms (4.5)

  /// Declares that two objects denote the same real-world entity
  /// (thesis 4.5). Synonymy is an equivalence relation maintained with a
  /// union-find structure; it never merges storage.
  Status DeclareSynonym(Oid a, Oid b);

  /// True when the two oids are in the same synonym set (reflexive).
  bool AreSynonyms(Oid a, Oid b) const {
    return live_store().AreSynonyms(a, b);
  }

  /// Canonical representative of `oid`'s synonym set (itself if alone).
  Oid CanonicalOf(Oid oid) const { return live_store().CanonicalOf(oid); }

  /// All *live* members of `oid`'s synonym set, including `oid` when it is
  /// alive. Synonym chains survive member deletion (the remaining
  /// duplicates stay unified), but deleted members are not reported.
  std::vector<Oid> SynonymSet(Oid oid) const {
    return live_store().SynonymSet(oid);
  }

  // ---------------------------------------------------------- transactions

  /// Begins a transaction. Nested transactions are not supported.
  Status Begin();

  /// Runs deferred rules (kBeforeCommit event); on veto the transaction is
  /// rolled back and kAborted returned. Otherwise makes changes permanent.
  Status Commit();

  /// Rolls back every mutation since Begin().
  Status Abort();

  bool in_transaction() const { return in_transaction_; }

  // ---------------------------------------------------------------- indexes

  /// Creates `owner`'s secondary index on `class_name.attr` (thesis
  /// 6.1.4), covering subclasses, and backfills it from the extent. The
  /// index lives in the store: the mutations below maintain it as they
  /// place records, so every snapshot reads exactly its own indexes.
  /// `ordered` selects the range-capable flavour; `owner` is an opaque
  /// token (see `AttributeIndex`). Writer-only, like every mutation.
  /// kNotFound for an unknown class or attribute; kInvalidArgument when
  /// `owner` already indexes `class_name.attr`.
  Status CreateIndex(const void* owner, const std::string& class_name,
                     const std::string& attr, bool ordered);

  /// Drops `owner`'s index on `class_name.attr` from the working store;
  /// snapshots published earlier keep theirs. kNotFound when absent.
  Status DropIndex(const void* owner, const std::string& class_name,
                   const std::string& attr);

  /// Drops every index `owner` created.
  void DropIndexes(const void* owner);

  // ------------------------------------------------------------ validation

  /// Verifies min-cardinality of every live object against every
  /// relationship class (thesis: deferred structural constraints).
  Status ValidateCardinality() const;

  // ----------------------------------------------------- storage substrate

  /// Raw restore of an object under a chosen oid — used by the storage
  /// layer when loading a snapshot. Bypasses events, rules and semantic
  /// checks (a snapshot is already consistent). Fails when the oid is in
  /// use or the class is unknown. Not valid inside a transaction.
  Status RestoreObjectRaw(Oid oid, const std::string& class_name,
                          std::vector<AttrInit> attrs);

  /// Raw restore of a link under a chosen oid (see RestoreObjectRaw). The
  /// endpoints must already exist.
  Status RestoreLinkRaw(Oid oid, const std::string& rel_name, Oid source,
                        Oid target, Oid context, std::vector<AttrInit> attrs);

  /// Raw restore of a synonym edge (child's set is merged under parent).
  Status RestoreSynonymRaw(Oid child, Oid parent);

  /// Guarantees future oids are allocated strictly above `oid`.
  void EnsureNextOidAbove(Oid oid);

  /// Drops every schema definition, instance, link, synonym, index and the
  /// oid counter, returning the database to its just-constructed state while
  /// keeping identity: the event bus (and its subscribers) and the epoch
  /// guard survive, so holders of a `Database*` stay valid. Used by a
  /// replication follower to rebootstrap from a fresh leader snapshot in
  /// place. No events are published. Fails inside a transaction.
  Status Clear();

  // --------------------------------------------------------------- plumbing

  /// The event bus all mutations are published on.
  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }

  /// When false, before/after events are not published (used by the
  /// feature-cost benchmark E7 to isolate the event layer's overhead).
  void set_events_enabled(bool enabled) { events_enabled_ = enabled; }
  bool events_enabled() const { return events_enabled_; }

  /// When false, relationship semantic checks (exclusivity, sharability,
  /// cardinality, constancy) are skipped (feature-cost benchmark only).
  void set_semantics_enabled(bool enabled) { semantics_enabled_ = enabled; }
  bool semantics_enabled() const { return semantics_enabled_; }

 private:
  friend class SnapshotHandle;

  // Undo machinery (transactions).
  struct UndoRecord;

  /// Every mutation entry point starts here: checks the guard protocol
  /// and, outside a write section (single-threaded use), notes that the
  /// working store has changes no published snapshot holds yet. The first
  /// such mutation after a publish opens a new epoch, so the next publish
  /// is not stamped with the epoch of an older state.
  void BeginMutation() {
    AssertExclusiveAccess();
    if (!writer_active_.load(std::memory_order_relaxed) &&
        !unpublished_.exchange(true, std::memory_order_relaxed)) {
      epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  // Copy-on-write access to the working store (writer only). The pointer
  // stays valid until the next publish or the record's removal.
  Object* MutableObject(Oid oid);
  Link* MutableLink(Oid oid);
  SchemaTables& MutableSchema() { return mvcc::Writable(store_.schema_); }

  /// Publishes a copy of the working store stamped `epoch` as the current
  /// snapshot. Called holding the guard: by `WriteGuard`, or by
  /// `AcquireSnapshot` after a successful try-lock.
  void Publish(std::uint64_t epoch);

  void RegisterPin(std::uint64_t epoch);
  void ReleasePin(std::uint64_t epoch);
  void UpdateMvccGauges() const;

  Status CheckLinkSemantics(const RelationshipDef* def, const Object& source,
                            const Object& target) const;
  Status DeleteLinkInternal(Oid oid);
  Status DeleteObjectInternal(Oid oid, std::vector<Oid>* cascade);
  Status PublishEvent(const Event& event);
  void RecordUndo(UndoRecord record);

  // Record placement: installs a version in the working store with its
  // extent, index, endpoint and context bookkeeping, or removes one and
  // returns the removed version (kept by the undo log).
  void InsertObject(std::shared_ptr<const Object> version);
  std::shared_ptr<const Object> EraseObject(Oid oid);
  /// Enters (`insert`) or removes `obj`'s keys in every index covering it.
  void IndexObject(const Object& obj, bool insert);
  /// Sets attribute `name` of object `oid` and moves its key in every index
  /// on `name` covering it; returns the value it replaced.
  Value WriteAttribute(Oid oid, const std::string& name, Value value);
  void InsertLink(std::shared_ptr<const Link> version);
  std::shared_ptr<const Link> EraseLink(Oid oid);
  void DetachLinkFromEndpoints(const Link& link);
  void AttachLinkToEndpoints(const Link& link);

  // Rollback helpers used by Abort().
  void UndoAll();

  // Epoch guard (see WriteGuard): writers only. The atomics let the debug
  // assertions and `epoch()` observe the guard's state.
  std::mutex guard_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> writer_active_{false};
  std::atomic<std::thread::id> writer_thread_{};

  EventBus bus_;
  bool events_enabled_ = true;
  bool semantics_enabled_ = true;

  // The one store: schema tables, records, extents, context index,
  // synonyms and attribute indexes (see DbSnapshot).
  DbSnapshot store_;
  Oid next_oid_ = 1;

  // MVCC publication state. `current_snapshot_` is swapped under the tiny
  // `snap_mu_` (held only for a shared_ptr copy — a stalled writer never
  // holds it, so snapshot acquisition cannot block on a write section).
  // `unpublished_` is true while the working store holds changes no
  // publish has copied: initially, and after an unguarded mutation.
  std::atomic<bool> unpublished_{true};
  mutable std::mutex snap_mu_;
  std::shared_ptr<const DbSnapshot> current_snapshot_;

  // Pin registry feeding the GC watermark gauges. A multiset because many
  // handles may pin the same epoch.
  mutable std::mutex snap_reg_mu_;
  std::multiset<std::uint64_t> pinned_epochs_;

  // Transactions.
  bool in_transaction_ = false;
  std::vector<UndoRecord> undo_log_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_DATABASE_H_
