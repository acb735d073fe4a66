#ifndef PROMETHEUS_OBS_FLIGHT_RECORDER_H_
#define PROMETHEUS_OBS_FLIGHT_RECORDER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace prometheus::obs {

/// Always-on bounded ring of the last N *completed* request traces — the
/// "what just happened" window the per-query tracer cannot provide (it only
/// answers for queries someone thought to PROFILE in advance). The server
/// records every admitted request's disposition here: type, priority,
/// queue wait, total time, transport code, and — for profiled queries —
/// the rendered span tree.
///
/// Lock-cheap by construction: writers claim a slot with one relaxed
/// fetch_add and then lock only that slot's mutex, so concurrent writers
/// contend only when they hash to the same slot (capacity writers apart).
/// Readers lock each slot briefly in turn; a snapshot is consistent per
/// entry, not across entries — fine for a diagnostic window.
///
/// A capacity of 0 disables recording entirely (`Record` is then a single
/// branch).
class FlightRecorder {
 public:
  struct Entry {
    /// 1-based recording order, set by the recorder: ascending `seq` is
    /// oldest first, so `order by r.seq desc limit N` selects the newest N.
    std::uint64_t seq = 0;
    std::uint64_t request_id = 0;
    std::string trace_id;   ///< trace-context id (`/debug/requests?id=`)
    std::string type;       ///< "ping", "query", "mutation", "stats", ...
    std::string priority;   ///< "low", "normal", "high"
    std::string code;       ///< transport outcome ("ok", "timed_out", ...)
    bool ok = false;        ///< executed and the database reported success
    bool executed = false;  ///< false: shed from the queue, never ran
    /// Database epoch the request observed: for queries, the pinned MVCC
    /// snapshot's epoch (which snapshot the read fleet was on); for
    /// mutations, the pre-commit epoch. 0 when the request never ran.
    std::uint64_t epoch = 0;
    double queue_wait_micros = 0;  ///< admission -> worker pickup
    double total_micros = 0;       ///< time on the worker (0 if never ran)
    /// Wait-state attribution (zeros when timing was off or not a
    /// guarded/journaled request).
    double guard_wait_micros = 0;    ///< epoch-guard acquisition
    double execute_micros = 0;       ///< pure execution (waits subtracted)
    double journal_micros = 0;       ///< journal appends + fsyncs
    std::string detail;  ///< query text (truncated) or mutation kind
    std::string stages;  ///< rendered span tree (profiled queries only)
  };

  explicit FlightRecorder(std::size_t capacity = 128)
      : capacity_(capacity),
        slots_(capacity == 0 ? nullptr : std::make_unique<Slot[]>(capacity)) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }

  void Record(Entry entry) {
    if (capacity_ == 0) return;
    Install(next_.fetch_add(1, std::memory_order_relaxed), std::move(entry));
  }

  /// Test-only: installs `entry` as if it had claimed `seq` (0-based),
  /// without touching the claim counter — reproduces the wrap race (an
  /// older claimant reaching the slot lock last) deterministically.
  void InstallForTest(std::uint64_t seq, Entry entry) {
    if (capacity_ == 0) return;
    Install(seq, std::move(entry));
  }

  /// Copies the retained entries, oldest first. At most `capacity` long;
  /// entries overwritten mid-snapshot may appear with their new content
  /// (each slot is copied under its own lock).
  std::vector<Entry> Snapshot() const {
    std::vector<Entry> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      Slot& slot = slots_[i];
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.entry.seq != 0) out.push_back(slot.entry);
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    return out;
  }

  /// Total recorded since construction (including overwritten entries).
  std::uint64_t recorded_total() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable std::mutex mu;
    Entry entry;  ///< entry.seq == 0: never written
  };

  void Install(std::uint64_t seq, Entry entry) {
    Slot& slot = slots_[seq % capacity_];
    std::lock_guard<std::mutex> lock(slot.mu);
    // On ring wrap a writer holding an older seq can reach the slot lock
    // after a newer writer; install monotonically so the stale entry is
    // dropped instead of overwriting the fresher one.
    if (slot.entry.seq > seq + 1) return;
    slot.entry = std::move(entry);
    slot.entry.seq = seq + 1;  // 0 stays "never written"
  }

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace prometheus::obs

#endif  // PROMETHEUS_OBS_FLIGHT_RECORDER_H_
