#ifndef PROMETHEUS_STORAGE_JOURNAL_H_
#define PROMETHEUS_STORAGE_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "storage/fault.h"

namespace prometheus::storage {

/// Append-only operation journal: the incremental persistence mechanism
/// complementing snapshots (together they play the role of the thesis'
/// underlying storage system).
///
/// Format v2 — every record is an individually checksummed frame:
///
///   PROMETHEUS-JOURNAL-2 full|cont\n          (header line)
///   R <crc32:8-hex> <len>:<payload>\n         (one frame per record)
///
/// A `full` journal starts with the schema records of the database at open
/// time followed by an `EOS` (end-of-schema) marker; a `cont` journal (a
/// continuation opened after a checkpoint by `DurableStore`) holds mutation
/// records only. Committed transactions are bracketed by `TXB`/`TXC`
/// markers so replay applies them atomically: a crash that tears the tail
/// of a commit makes the whole transaction vanish. `END` marks a clean
/// close. Length framing (rather than line splitting) means payloads may
/// contain any byte, including newlines.
///
/// Record capture through the event layer:
///  - mutations outside a transaction are appended immediately;
///  - mutations inside a transaction are buffered and flushed at commit —
///    an aborted transaction leaves no trace (its compensating events are
///    buffered and discarded too);
///  - schema changes after opening (`DefineClass`, `DefineTemplate`,
///    `DefineRelationship`) are appended immediately, inside a transaction
///    too: an abort does not undo a definition, and later data records may
///    depend on it. Schema records do not count towards `record_count()`.
///
/// Error discipline: the journal carries a *sticky* error status. The first
/// failed write latches it; from then on every event the journal observes is
/// vetoed with that status, so mutations that can no longer be made durable
/// are rolled back by the database instead of silently diverging from the
/// log. `Flush()`, `Sync()` and `status()` surface the sticky state.
///
/// Thread-safety: the append path is internally serialised — the event
/// callback, `Flush`, `Sync`, `Close`, `status()` and `record_count()` may
/// be called from any thread and frames are never torn or interleaved.
/// (Mutations themselves are already serialised by the database's epoch
/// guard; the journal's own mutex additionally lets a background thread
/// flush/fsync while a writer appends.)
class Journal {
 public:
  /// How `Open` treats an existing file at the journal path.
  enum class OpenMode {
    /// Refuse to clobber a non-empty existing journal (the default).
    kCreate,
    /// Explicitly truncate whatever is there.
    kTruncate,
    /// Append to an existing v2 journal whose tail was already replayed and
    /// truncated to a record boundary (used by `DurableStore`). No header
    /// or schema prologue is written.
    kAppend,
  };

  /// Opens `path`, writes the header (and, except in kAppend mode, the
  /// schema prologue) and subscribes to `db`'s event bus. `db` must outlive
  /// the journal. Files are written through `env` (default:
  /// `Env::Default()`), which is how fault-injection tests reach the
  /// journal's writes.
  static Result<std::unique_ptr<Journal>> Open(Database* db,
                                               const std::string& path,
                                               OpenMode mode = OpenMode::kCreate,
                                               Env* env = nullptr);

  /// Opens a continuation journal: v2 header with the `cont` tag and no
  /// schema prologue. Replayable only on top of the checkpoint state it
  /// continues (see `DurableStore`).
  static Result<std::unique_ptr<Journal>> OpenContinuation(
      Database* db, const std::string& path, Env* env = nullptr);

  /// Closes (best effort) if `Close()` was not called.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Unsubscribes, appends the END record and fsyncs. Returns the sticky
  /// status (a failed END/sync latches it). Idempotent.
  Status Close();

  /// Forces buffered committed records to the OS; returns the sticky status.
  Status Flush();

  /// Flush + fsync; returns the sticky status.
  Status Sync();

  /// The sticky error state: Ok until a write has failed.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sticky_;
  }

  /// Number of mutation records written so far (excluding the schema
  /// prologue and the TXB/TXC/END markers).
  std::uint64_t record_count() const {
    return record_count_.load(std::memory_order_acquire);
  }

  /// Framed bytes appended since this journal was opened — every frame,
  /// including markers, but not the header/schema prologue written by
  /// `Open`. Together with `sync_count` this quantifies the journal's I/O
  /// (surfaced through `DurableStore::Stats` and the metrics registry).
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_acquire);
  }

  /// Explicit fsync barriers taken (`Sync` and the one in `Close`).
  std::uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_acquire);
  }

  /// What `Replay` found. Torn or corrupt tails are *recovered from*, not
  /// fatal: the valid prefix is applied and the dropped remainder reported.
  struct ReplayReport {
    /// Mutation records applied.
    std::uint64_t applied_records = 0;
    /// Intact records discarded because their transaction never committed.
    std::uint64_t dropped_records = 0;
    /// Bytes of torn/corrupt tail discarded.
    std::uint64_t dropped_bytes = 0;
    /// File offset at which a writer may resume appending (after truncating
    /// the file to this size). 0 when the journal is not resumable.
    std::uint64_t append_offset = 0;
    /// END record seen: the journal was closed cleanly.
    bool clean_end = false;
    /// The tail was torn, corrupt, or an uncommitted transaction.
    bool torn_tail = false;
    /// Header and schema prologue are intact; appending at `append_offset`
    /// yields a well-formed journal.
    bool resumable = false;
    /// Human-readable account of anything dropped.
    std::string detail;
  };

  /// Rebuilds a database from a journal file. `db` must be empty. A v2
  /// journal with a damaged tail replays its valid prefix and reports the
  /// damage in `report` (pass nullptr to ignore); v1 journals replay with
  /// the legacy line-based reader.
  static Status Replay(Database* db, const std::string& path,
                       ReplayReport* report = nullptr);
  static Status Replay(Database* db, std::istream& in,
                       ReplayReport* report = nullptr);

  /// Replays a journal into a database that may already hold state (the
  /// checkpoint a `cont` journal continues from). Also accepts a journal
  /// with an unreadable header, treating it as an empty valid prefix
  /// (resumable=false) — recovery then recreates the journal.
  static Status ReplayTail(Database* db, const std::string& path,
                           ReplayReport* report = nullptr);
  static Status ReplayTail(Database* db, std::istream& in,
                           ReplayReport* report = nullptr);

  // ------------------------------------------------------ wire-level access
  //
  // The physical v2 format, exposed so the replication layer can consume a
  // journal as a byte stream shipped over the network and re-verify every
  // CRC on receipt. These are pure functions over buffers: incremental
  // (partial input reports kNeedMore, never a false kCorrupt) and
  // allocation-bounded (a torn length field cannot drive a giant
  // allocation).

  /// Header lines (without the trailing newline).
  static constexpr std::string_view kHeaderFull = "PROMETHEUS-JOURNAL-2 full";
  static constexpr std::string_view kHeaderCont = "PROMETHEUS-JOURNAL-2 cont";
  /// Marker payloads (never valid record tags).
  static constexpr std::string_view kMarkerEndOfSchema = "EOS";
  static constexpr std::string_view kMarkerTxnBegin = "TXB";
  static constexpr std::string_view kMarkerTxnCommit = "TXC";
  static constexpr std::string_view kMarkerEnd = "END";

  enum class HeaderParse {
    kNeedMore,  ///< a prefix of a valid header; feed more bytes
    kFull,      ///< v2 `full` header; `*consumed` covers it and its newline
    kCont,      ///< v2 `cont` header, same contract
    kBad,       ///< cannot be a v2 header
  };
  /// Incremental parse of the header line at the start of `in`.
  static HeaderParse ParseHeader(std::string_view in, std::size_t* consumed);

  enum class FrameParse {
    kNeedMore,  ///< a prefix of a well-formed frame; feed more bytes
    kFrame,     ///< one intact frame: `*payload` set, `*consumed` bytes used
    kCorrupt,   ///< the bytes cannot be (or fail the CRC of) a frame
  };
  /// Incremental parse of one `R <crc> <len>:<payload>\n` frame at the
  /// start of `in`. On kFrame the payload's CRC has been verified.
  static FrameParse ParseFrame(std::string_view in, std::string* payload,
                               std::size_t* consumed);

 private:
  Journal(Database* db, std::unique_ptr<WritableFile> file);

  /// The Locked* helpers assume `mu_` is held by the caller.
  void OnEventLocked(const Event& event);
  void EmitLocked(std::string record);
  /// Frames `payload` and appends it; latches the sticky status on failure.
  void AppendLocked(std::string_view payload);

  Database* db_;
  std::unique_ptr<WritableFile> file_;
  ListenerId listener_ = 0;

  /// Serialises the append path (event callback, Flush/Sync/Close) so
  /// frames are atomic with respect to concurrent flushers.
  mutable std::mutex mu_;
  bool in_transaction_ = false;
  bool closed_ = false;
  std::vector<std::string> pending_;  ///< records of the open transaction
  std::atomic<std::uint64_t> record_count_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> sync_count_{0};
  Status sticky_;
};

}  // namespace prometheus::storage

#endif  // PROMETHEUS_STORAGE_JOURNAL_H_
