#include "obs/wait_profiler.h"

#include <algorithm>
#include <array>

namespace prometheus::obs {

const char* WaitStateName(WaitState state) {
  switch (state) {
    case WaitState::kAdmission:
      return "admission";
    case WaitState::kQueue:
      return "queue";
    case WaitState::kGuardShared:
      return "guard_shared";
    case WaitState::kGuardExclusive:
      return "guard_exclusive";
    case WaitState::kExecute:
      return "execute";
    case WaitState::kJournalAppend:
      return "journal_append";
    case WaitState::kJournalSync:
      return "journal_sync";
    case WaitState::kSerialize:
      return "serialize";
  }
  return "unknown";
}

const GuardInstruments& GuardInstruments::Get() {
  static const GuardInstruments g = [] {
    MetricsRegistry& reg = Registry();
    const char* wait_help =
        "Epoch-guard acquisition wait (microseconds) by lock mode";
    const char* hold_help =
        "Epoch-guard hold duration (microseconds) by lock mode";
    GuardInstruments gi;
    gi.shared_wait =
        reg.GetHistogram("guard_wait_micros{mode=\"shared\"}", wait_help);
    gi.exclusive_wait =
        reg.GetHistogram("guard_wait_micros{mode=\"exclusive\"}", wait_help);
    gi.shared_hold =
        reg.GetHistogram("guard_hold_micros{mode=\"shared\"}", hold_help);
    gi.exclusive_hold =
        reg.GetHistogram("guard_hold_micros{mode=\"exclusive\"}", hold_help);
    gi.blocked_readers = reg.GetGauge(
        "guard_blocked_readers",
        "Readers currently blocked acquiring the epoch guard shared");
    gi.blocked_writers = reg.GetGauge(
        "guard_blocked_writers",
        "Writers currently blocked acquiring the epoch guard exclusive");
    gi.writer_held = reg.GetGauge(
        "guard_writer_held", "1 while a writer holds the epoch guard");
    gi.writer_last_hold_micros = reg.GetGauge(
        "guard_writer_last_hold_micros",
        "Duration of the most recent completed exclusive hold");
    gi.writer_longest_wait = reg.GetGauge(
        "guard_writer_longest_wait_micros",
        "High-water mark of exclusive-guard acquisition wait — the "
        "writer-starvation watchdog's signal under single-writer MVCC");
    return gi;
  }();
  return g;
}

ThreadWaitAccumulator& ThreadWait() {
  thread_local ThreadWaitAccumulator acc;
  return acc;
}

const WaitInstruments& WaitInstruments::Get() {
  static const WaitInstruments w = [] {
    MetricsRegistry& reg = Registry();
    const char* help =
        "Request lifetime decomposed into named wait states (microseconds)";
    WaitInstruments wi;
    wi.admission =
        reg.GetHistogram("request_wait_micros{state=\"admission\"}", help);
    wi.queue = reg.GetHistogram("request_wait_micros{state=\"queue\"}", help);
    wi.execute =
        reg.GetHistogram("request_wait_micros{state=\"execute\"}", help);
    wi.serialize =
        reg.GetHistogram("request_wait_micros{state=\"serialize\"}", help);
    return wi;
  }();
  return w;
}

Histogram::Snapshot SnapshotDelta(const Histogram::Snapshot& now,
                                  const Histogram::Snapshot& then) {
  Histogram::Snapshot delta;
  delta.bounds = now.bounds;
  delta.counts.resize(now.counts.size(), 0);
  for (std::size_t i = 0; i < now.counts.size(); ++i) {
    const std::uint64_t before =
        i < then.counts.size() ? then.counts[i] : 0;
    delta.counts[i] = now.counts[i] >= before ? now.counts[i] - before : 0;
  }
  delta.count = now.count >= then.count ? now.count - then.count : 0;
  delta.sum = now.sum >= then.sum ? now.sum - then.sum : 0;
  return delta;
}

namespace {

/// Every histogram family the contention report assembles, in display
/// order. Guard and journal states live in their own metric families; the
/// server-side states live under request_wait_micros.
struct StateSource {
  WaitState state;
  Histogram* hist;
};

std::array<StateSource, 8> ReportSources() {
  const WaitInstruments& w = WaitInstruments::Get();
  const GuardInstruments& g = GuardInstruments::Get();
  MetricsRegistry& reg = Registry();
  Histogram* append = reg.GetHistogram(
      "journal_append_micros", "Latency of framed journal file appends");
  Histogram* sync = reg.GetHistogram("journal_sync_micros",
                                     "Latency of journal fsync barriers");
  return {{{WaitState::kAdmission, w.admission},
           {WaitState::kQueue, w.queue},
           {WaitState::kGuardShared, g.shared_wait},
           {WaitState::kGuardExclusive, g.exclusive_wait},
           {WaitState::kExecute, w.execute},
           {WaitState::kJournalAppend, append},
           {WaitState::kJournalSync, sync},
           {WaitState::kSerialize, w.serialize}}};
}

/// Previous windowed snapshots, one per report source. Process-wide like
/// the registry itself; the mutex only guards windowed report assembly.
struct WindowStore {
  std::mutex mu;
  std::array<Histogram::Snapshot, 8> last;

  static WindowStore& Get() {
    static WindowStore s;
    return s;
  }
};

/// Cumulative or since-last-windowed-call snapshots, in ReportSources
/// order. Windowed reads advance the shared window store, so the HTTP
/// route and the shell command observe one common window.
std::array<Histogram::Snapshot, 8> CollectSnapshots(
    const std::array<StateSource, 8>& sources, bool windowed) {
  std::array<Histogram::Snapshot, 8> out;
  if (windowed) {
    WindowStore& store = WindowStore::Get();
    std::lock_guard<std::mutex> lock(store.mu);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      Histogram::Snapshot now = sources[i].hist->snapshot();
      out[i] = SnapshotDelta(now, store.last[i]);
      store.last[i] = std::move(now);
    }
  } else {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      out[i] = sources[i].hist->snapshot();
    }
  }
  return out;
}

}  // namespace

std::vector<ContentionStat> SnapshotContention(bool windowed) {
  const std::array<StateSource, 8> sources = ReportSources();
  const std::array<Histogram::Snapshot, 8> snaps =
      CollectSnapshots(sources, windowed);
  std::vector<ContentionStat> out;
  out.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Histogram::Snapshot& snap = snaps[i];
    ContentionStat stat;
    stat.state = WaitStateName(sources[i].state);
    stat.count = snap.count;
    stat.total_micros = snap.sum;
    stat.mean_micros = snap.mean();
    stat.p50_micros = snap.Percentile(50);
    stat.p95_micros = snap.Percentile(95);
    stat.p99_micros = snap.Percentile(99);
    out.push_back(std::move(stat));
  }
  return out;
}

}  // namespace prometheus::obs
