#ifndef PROMETHEUS_OBS_WAIT_PROFILER_H_
#define PROMETHEUS_OBS_WAIT_PROFILER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace prometheus::obs {

// --------------------------------------------------------- wait attribution
//
// The contention-observability layer: every request's lifetime decomposes
// into named wait states, each exported as its own histogram family. The
// server observes admission/queue/execute/serialize; the epoch guard in
// core/database.h observes guard acquisition and hold times; the journal
// observes append and fsync latency. `/debug/contention` and the shell's
// `.contention` render the assembled report, optionally windowed (deltas
// since the previous windowed report) so an operator watching a live
// incident sees the last interval, not the lifetime average.

/// The named wait states a request's lifetime decomposes into. Used as the
/// `state` label of `request_wait_micros` and as keys of the contention
/// report; guard and journal states map to their own metric families
/// (`guard_wait_micros{mode=...}`, `journal_*_micros`).
enum class WaitState : std::uint8_t {
  kAdmission,       ///< Enqueue-side work before the queue (incl. cache probe)
  kQueue,           ///< admission -> worker pickup
  kGuardShared,     ///< ReadGuard acquisition (blocked behind a writer)
  kGuardExclusive,  ///< WriteGuard acquisition (blocked behind readers/writer)
  kExecute,         ///< pure execution (guard + journal time subtracted)
  kJournalAppend,   ///< file append of framed journal records
  kJournalSync,     ///< explicit fsync barriers
  kSerialize,       ///< response rendering on the HTTP handler thread
};

const char* WaitStateName(WaitState state);

/// Guard instrumentation points the epoch guard calls into. One relaxed
/// branch when metrics are disabled (callers check `MetricsEnabled()`
/// before reading the clock); pointer loads are cached in a static.
struct GuardInstruments {
  Histogram* shared_wait;      ///< guard_wait_micros{mode="shared"}
  Histogram* exclusive_wait;   ///< guard_wait_micros{mode="exclusive"}
  Histogram* shared_hold;      ///< guard_hold_micros{mode="shared"}
  Histogram* exclusive_hold;   ///< guard_hold_micros{mode="exclusive"}
  Gauge* blocked_readers;      ///< readers currently blocked in lock_shared
  Gauge* blocked_writers;      ///< writers currently blocked in lock
  Gauge* writer_held;          ///< 1 while a writer holds the guard
  Gauge* writer_last_hold_micros;  ///< duration of the last exclusive hold
  Gauge* writer_longest_wait;  ///< guard_writer_longest_wait_micros

  static const GuardInstruments& Get();
};

/// Per-thread accumulator for journal time spent inside the current
/// request. A request executes wholly on one worker thread, so the server
/// zeroes this before dispatching and reads it after — turning the
/// journal's process-wide histograms into per-request attribution without
/// threading a context object through the event bus.
struct ThreadWaitAccumulator {
  double journal_append_micros = 0;
  double journal_sync_micros = 0;

  void Reset() {
    journal_append_micros = 0;
    journal_sync_micros = 0;
  }
};

/// The calling thread's accumulator.
ThreadWaitAccumulator& ThreadWait();

/// Server-side wait-state histograms (admission/queue/execute/serialize).
struct WaitInstruments {
  Histogram* admission;
  Histogram* queue;
  Histogram* execute;
  Histogram* serialize;

  static const WaitInstruments& Get();
};

/// Computes the difference of two histogram snapshots taken from the same
/// histogram (same bounds): per-bucket counts, total count and sum. The
/// building block of windowed reporting — callers keep the previous
/// snapshot and render percentiles of the delta.
Histogram::Snapshot SnapshotDelta(const Histogram::Snapshot& now,
                                  const Histogram::Snapshot& then);

/// One wait state's statistics: a `sys.contention` (cumulative) or
/// `sys.contention_window` (since the previous windowed read) row.
struct ContentionStat {
  std::string state;
  std::uint64_t count = 0;
  double total_micros = 0;
  double mean_micros = 0;
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
};

/// Per-state statistics in report display order. With `windowed`, each
/// state reports the delta since the previous windowed call (the first
/// reports since process start); the window is kept per process under a
/// mutex, matching the process-wide registry the states live in, so every
/// windowed reader advances one shared window.
std::vector<ContentionStat> SnapshotContention(bool windowed);

}  // namespace prometheus::obs

#endif  // PROMETHEUS_OBS_WAIT_PROFILER_H_
