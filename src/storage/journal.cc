#include "storage/journal.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/wait_profiler.h"
#include "storage/snapshot.h"

namespace prometheus::storage {

namespace {

/// Process-wide journal counters, aggregated across every live journal.
struct JournalMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Counter* syncs;
  obs::Counter* errors;
  obs::Histogram* append_micros;
  obs::Histogram* sync_micros;

  static const JournalMetrics& Get() {
    static const JournalMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      JournalMetrics jm;
      jm.appends = reg.GetCounter("journal_appends_total",
                                  "Mutation records appended to journals");
      jm.bytes = reg.GetCounter("journal_bytes_total",
                                "Framed bytes appended to journals");
      jm.syncs = reg.GetCounter("journal_syncs_total",
                                "Explicit journal fsync barriers");
      jm.errors = reg.GetCounter(
          "journal_errors_total",
          "Journal write failures that latched the sticky error");
      // Counts alone cannot show a sync stall; these put a latency
      // distribution behind every append and fsync barrier.
      jm.append_micros = reg.GetHistogram(
          "journal_append_micros", "Latency of framed journal file appends");
      jm.sync_micros = reg.GetHistogram("journal_sync_micros",
                                        "Latency of journal fsync barriers");
      return jm;
    }();
    return m;
  }
};

/// Times one file operation into a journal latency histogram and the
/// calling thread's wait accumulator (per-request attribution: a mutation
/// runs wholly on one worker, so the server reads the accumulator after
/// dispatch). One branch when metrics are off.
class JournalOpTimer {
 public:
  explicit JournalOpTimer(obs::Histogram* hist, double* thread_slot)
      : hist_(obs::MetricsEnabled() ? hist : nullptr),
        thread_slot_(thread_slot) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~JournalOpTimer() {
    if (hist_ == nullptr) return;
    const double micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    hist_->Observe(micros);
    *thread_slot_ += micros;
  }

  JournalOpTimer(const JournalOpTimer&) = delete;
  JournalOpTimer& operator=(const JournalOpTimer&) = delete;

 private:
  obs::Histogram* hist_;
  double* thread_slot_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

namespace {

constexpr char kJournalMagicV1[] = "PROMETHEUS-JOURNAL-1";
// v2 header lines and marker payloads live on the class (Journal::kHeader*,
// Journal::kMarker*) so the replication layer shares one set of literals;
// short aliases keep this file readable.
constexpr std::string_view kJournalHeaderFull = Journal::kHeaderFull;
constexpr std::string_view kJournalHeaderCont = Journal::kHeaderCont;
constexpr std::string_view kEndOfSchema = Journal::kMarkerEndOfSchema;
constexpr std::string_view kTxnBegin = Journal::kMarkerTxnBegin;
constexpr std::string_view kTxnCommit = Journal::kMarkerTxnCommit;
constexpr std::string_view kEndRecord = Journal::kMarkerEnd;

/// Refuse to believe length fields beyond this; a torn length digit string
/// must not drive a giant allocation.
constexpr std::uint64_t kMaxRecordBytes = 1ull << 30;

std::string FrameRecord(std::string_view payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(payload));
  std::string out;
  out.reserve(payload.size() + 24);
  out += "R ";
  out += crc;
  out += ' ';
  out += std::to_string(payload.size());
  out += ':';
  out += payload;
  out += '\n';
  return out;
}

enum class FrameKind { kRecord, kEof, kCorrupt };

/// Reads one framed record. `*consumed` counts every byte taken from the
/// stream, including the bytes of a frame that turns out to be corrupt.
FrameKind ReadFrame(std::istream& in, std::string* payload,
                    std::uint64_t* consumed) {
  *consumed = 0;
  auto next = [&]() -> int {
    int ch = in.get();
    if (ch != std::char_traits<char>::eof()) ++*consumed;
    return ch;
  };
  int c = next();
  if (c == std::char_traits<char>::eof()) return FrameKind::kEof;
  if (c != 'R' || next() != ' ') return FrameKind::kCorrupt;
  char crc_text[9] = {};
  for (int i = 0; i < 8; ++i) {
    int h = next();
    if (h == std::char_traits<char>::eof() ||
        !std::isxdigit(static_cast<unsigned char>(h))) {
      return FrameKind::kCorrupt;
    }
    crc_text[i] = static_cast<char>(h);
  }
  if (next() != ' ') return FrameKind::kCorrupt;
  std::uint64_t len = 0;
  int digits = 0;
  for (;;) {
    int d = next();
    if (d == ':') break;
    if (d == std::char_traits<char>::eof() || d < '0' || d > '9' ||
        ++digits > 19) {
      return FrameKind::kCorrupt;
    }
    len = len * 10 + static_cast<std::uint64_t>(d - '0');
    if (len > kMaxRecordBytes) return FrameKind::kCorrupt;
  }
  if (digits == 0) return FrameKind::kCorrupt;
  payload->clear();
  // Chunked read: a torn length field must not trigger a giant upfront
  // allocation before we notice the stream is shorter than advertised.
  char buf[4096];
  std::uint64_t remaining = len;
  while (remaining > 0) {
    std::streamsize want = static_cast<std::streamsize>(
        remaining < sizeof(buf) ? remaining : sizeof(buf));
    in.read(buf, want);
    std::streamsize got = in.gcount();
    *consumed += static_cast<std::uint64_t>(got);
    payload->append(buf, static_cast<std::size_t>(got));
    if (got < want) return FrameKind::kCorrupt;
    remaining -= static_cast<std::uint64_t>(got);
  }
  if (next() != '\n') return FrameKind::kCorrupt;
  std::uint32_t expected =
      static_cast<std::uint32_t>(std::strtoul(crc_text, nullptr, 16));
  if (Crc32(*payload) != expected) return FrameKind::kCorrupt;
  return FrameKind::kRecord;
}

/// Counts (and discards) every byte left in the stream.
std::uint64_t Drain(std::istream& in) {
  char buf[4096];
  std::uint64_t total = 0;
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    total += static_cast<std::uint64_t>(in.gcount());
    if (in.eof()) break;
  }
  return total;
}

bool IsSchemaRecord(const std::string& payload) {
  return payload.rfind("CLASS ", 0) == 0 || payload.rfind("TMPL ", 0) == 0 ||
         payload.rfind("REL ", 0) == 0;
}

/// Restores semantic checks even on early returns.
class SemanticsSuspender {
 public:
  explicit SemanticsSuspender(Database* db) : db_(db) {
    db_->set_semantics_enabled(false);
  }
  ~SemanticsSuspender() { db_->set_semantics_enabled(true); }

 private:
  Database* db_;
};

Status ApplyTrusted(Database* db, const std::string& record) {
  bool end = false;
  Status st = ApplyRecord(db, record, &end);
  if (st.ok()) return st;
  if (st.code() == Status::Code::kIoError) return st;
  return Status::IoError("corrupt journal record: " + st.ToString());
}

/// Legacy reader for v1 journals (line-framed, no checksums).
Status ReplayV1(Database* db, std::istream& in,
                Journal::ReplayReport* report) {
  SemanticsSuspender guard(db);
  std::string line;
  bool end = false;
  while (!end && std::getline(in, line)) {
    PROMETHEUS_RETURN_IF_ERROR(ApplyTrusted(db, line));
    if (line == kEndRecord) end = true;
    if (!end && !line.empty()) ++report->applied_records;
  }
  report->clean_end = end;
  // A missing END record means the writer was still live or crashed; all
  // complete records were applied, which is the contract of a WAL.
  return Status::Ok();
}

Status ReplayV2(Database* db, std::istream& in, std::uint64_t header_bytes,
                Journal::ReplayReport* report, bool prologue_expected) {
  SemanticsSuspender guard(db);
  std::uint64_t offset = header_bytes;
  std::uint64_t boundary = offset;  // resume point: end of last applied unit
  bool prologue_done = !prologue_expected;
  bool in_txn = false;
  std::vector<std::string> txbuf;
  std::string payload;
  std::ostringstream detail;
  for (;;) {
    std::uint64_t frame_bytes = 0;
    FrameKind kind = ReadFrame(in, &payload, &frame_bytes);
    if (kind == FrameKind::kEof) break;
    if (kind == FrameKind::kCorrupt) {
      report->torn_tail = true;
      report->dropped_bytes += frame_bytes + Drain(in);
      detail << "torn/corrupt record at offset " << offset << "; ";
      break;
    }
    offset += frame_bytes;
    if (payload == kEndRecord) {
      report->clean_end = true;
      if (in_txn) {  // a writer never does this; salvage what we can
        report->torn_tail = true;
        in_txn = false;
        txbuf.clear();
      } else {
        boundary = offset - frame_bytes;  // resume over the END marker
      }
      std::uint64_t trailing = Drain(in);
      if (trailing > 0) {
        report->torn_tail = true;
        report->dropped_bytes += trailing;
        detail << trailing << " trailing bytes after END; ";
      }
      break;
    }
    if (payload == kEndOfSchema) {
      prologue_done = true;
      boundary = offset;
      continue;
    }
    if (payload == kTxnBegin) {
      in_txn = true;
      txbuf.clear();
      continue;
    }
    if (payload == kTxnCommit) {
      if (!in_txn) {
        report->torn_tail = true;
        report->dropped_bytes += Drain(in);
        detail << "stray TXC at offset " << offset << "; ";
        break;
      }
      for (const std::string& record : txbuf) {
        PROMETHEUS_RETURN_IF_ERROR(ApplyTrusted(db, record));
        ++report->applied_records;
      }
      txbuf.clear();
      in_txn = false;
      boundary = offset;
      continue;
    }
    if (in_txn) {
      txbuf.push_back(payload);
      continue;
    }
    PROMETHEUS_RETURN_IF_ERROR(ApplyTrusted(db, payload));
    if (!IsSchemaRecord(payload)) ++report->applied_records;
    boundary = offset;
  }
  if (in_txn) {
    // The file ends inside a commit flush: the transaction vanishes.
    report->torn_tail = true;
    report->dropped_records += txbuf.size();
    report->dropped_bytes += offset - boundary;
    detail << "uncommitted transaction of " << txbuf.size()
           << " records dropped; ";
  }
  report->resumable = prologue_done;
  report->append_offset = prologue_done ? boundary : 0;
  report->detail += detail.str();
  return Status::Ok();
}

Status ReplayStream(Database* db, std::istream& in,
                    Journal::ReplayReport* report, bool lenient_header) {
  std::string header;
  std::getline(in, header);
  if (header == kJournalMagicV1) {
    return ReplayV1(db, in, report);
  }
  bool cont = header == kJournalHeaderCont;
  if (header == kJournalHeaderFull || cont) {
    return ReplayV2(db, in, header.size() + 1, report,
                    /*prologue_expected=*/!cont);
  }
  if (lenient_header) {
    // The header itself is torn (a crash during journal creation): nothing
    // after it can be trusted, but nothing durable was lost either — the
    // valid prefix is empty. The caller recreates the journal.
    report->torn_tail = true;
    report->resumable = false;
    report->dropped_bytes = header.size() + Drain(in);
    report->detail += "unreadable journal header; ";
    return Status::Ok();
  }
  return Status::IoError("not a Prometheus journal");
}

}  // namespace

Result<std::unique_ptr<Journal>> Journal::Open(Database* db,
                                               const std::string& path,
                                               OpenMode mode, Env* env) {
  if (env == nullptr) env = Env::Default();
  if (mode == OpenMode::kCreate && env->FileExists(path)) {
    Result<std::uint64_t> size = env->FileSize(path);
    if (size.ok() && size.value() > 0) {
      return Status::FailedPrecondition(
          "refusing to clobber existing journal '" + path +
          "'; open with OpenMode::kTruncate to discard it, or recover it "
          "through DurableStore");
    }
  }
  if (mode == OpenMode::kAppend) {
    if (!env->FileExists(path)) {
      return Status::FailedPrecondition("append mode needs an existing journal '" +
                                        path + "'");
    }
    PROMETHEUS_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> file,
        env->NewWritableFile(path, /*truncate=*/false));
    return std::unique_ptr<Journal>(new Journal(db, std::move(file)));
  }
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                              env->NewWritableFile(path, /*truncate=*/true));
  PROMETHEUS_RETURN_IF_ERROR(
      file->Append(std::string(kJournalHeaderFull) + "\n"));
  const DbSnapshot& store = db->live_store();
  for (const std::string& record : SchemaRecords(store)) {
    PROMETHEUS_RETURN_IF_ERROR(file->Append(FrameRecord(record)));
  }
  // A `full` journal must replay to the database's state standalone: a
  // brand-new store can already hold bootstrap data that no snapshot
  // covers, so the prologue carries that data too, not just the schema.
  // Same order as SaveSnapshot — objects first (contexts are objects, so
  // link records resolve), then links, then synonym edges.
  for (const ClassDef* cls : db->classes()) {
    for (Oid oid : db->Extent(cls->name(), /*include_subclasses=*/false)) {
      PROMETHEUS_RETURN_IF_ERROR(
          file->Append(FrameRecord(ObjectRecord(store, oid))));
    }
  }
  for (const RelationshipDef* rel : db->relationships()) {
    for (Oid oid :
         db->LinkExtent(rel->name(), /*include_subrelationships=*/false)) {
      PROMETHEUS_RETURN_IF_ERROR(
          file->Append(FrameRecord(LinkRecord(store, oid))));
    }
  }
  for (const ClassDef* cls : db->classes()) {
    for (Oid oid : db->Extent(cls->name(), /*include_subclasses=*/false)) {
      const Oid root = db->CanonicalOf(oid);
      if (root != oid) {
        PROMETHEUS_RETURN_IF_ERROR(file->Append(FrameRecord(
            "SYN " + std::to_string(oid) + " " + std::to_string(root))));
      }
    }
  }
  PROMETHEUS_RETURN_IF_ERROR(file->Append(FrameRecord(kEndOfSchema)));
  PROMETHEUS_RETURN_IF_ERROR(file->Flush());
  return std::unique_ptr<Journal>(new Journal(db, std::move(file)));
}

Result<std::unique_ptr<Journal>> Journal::OpenContinuation(
    Database* db, const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  PROMETHEUS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                              env->NewWritableFile(path, /*truncate=*/true));
  PROMETHEUS_RETURN_IF_ERROR(
      file->Append(std::string(kJournalHeaderCont) + "\n"));
  PROMETHEUS_RETURN_IF_ERROR(file->Flush());
  return std::unique_ptr<Journal>(new Journal(db, std::move(file)));
}

Journal::Journal(Database* db, std::unique_ptr<WritableFile> file)
    : db_(db), file_(std::move(file)) {
  listener_ = db_->bus().Subscribe(
      [this](const Event& e) {
        std::lock_guard<std::mutex> lock(mu_);
        OnEventLocked(e);
        // Surface the sticky write-error state through the event layer:
        // a mutation that cannot be made durable is vetoed/rolled back.
        return sticky_;
      },
      /*priority=*/40);
}

Journal::~Journal() { Close(); }

Status Journal::Close() {
  // Unsubscribe outside `mu_` so no event callback can be in flight (or
  // arrive later) while we append the END record below.
  db_->bus().Unsubscribe(listener_);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return sticky_;
  if (sticky_.ok()) {
    AppendLocked(kEndRecord);
    if (sticky_.ok()) {
      Status st;
      {
        JournalOpTimer timer(JournalMetrics::Get().sync_micros,
                             &obs::ThreadWait().journal_sync_micros);
        st = file_->Sync();
      }
      if (!st.ok()) {
        sticky_ = st;
        JournalMetrics::Get().errors->Increment();
      } else {
        sync_count_.fetch_add(1, std::memory_order_acq_rel);
        JournalMetrics::Get().syncs->Increment();
      }
    }
  }
  closed_ = true;
  Status close = file_->Close();
  if (sticky_.ok() && !close.ok()) sticky_ = close;
  return sticky_;
}

Status Journal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok() || closed_) return sticky_;
  Status st = file_->Flush();
  if (!st.ok()) sticky_ = st;
  return sticky_;
}

Status Journal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok() || closed_) return sticky_;
  Status st;
  {
    JournalOpTimer timer(JournalMetrics::Get().sync_micros,
                         &obs::ThreadWait().journal_sync_micros);
    st = file_->Sync();
  }
  if (!st.ok()) {
    sticky_ = st;
    JournalMetrics::Get().errors->Increment();
  } else {
    sync_count_.fetch_add(1, std::memory_order_acq_rel);
    JournalMetrics::Get().syncs->Increment();
  }
  return sticky_;
}

void Journal::AppendLocked(std::string_view payload) {
  if (!sticky_.ok() || closed_) return;
  std::string frame = FrameRecord(payload);
  Status st;
  {
    JournalOpTimer timer(JournalMetrics::Get().append_micros,
                         &obs::ThreadWait().journal_append_micros);
    st = file_->Append(frame);
  }
  if (!st.ok()) {
    sticky_ = st;
    JournalMetrics::Get().errors->Increment();
    return;
  }
  bytes_written_.fetch_add(frame.size(), std::memory_order_acq_rel);
  JournalMetrics::Get().bytes->Increment(frame.size());
}

void Journal::EmitLocked(std::string record) {
  if (record.empty()) return;
  if (in_transaction_) {
    pending_.push_back(std::move(record));
  } else {
    AppendLocked(record);
    if (sticky_.ok()) {
      record_count_.fetch_add(1, std::memory_order_acq_rel);
      JournalMetrics::Get().appends->Increment();
    }
  }
}

void Journal::OnEventLocked(const Event& event) {
  switch (event.kind) {
    case EventKind::kTransactionBegin:
      in_transaction_ = true;
      pending_.clear();
      break;
    case EventKind::kAfterCommit:
      in_transaction_ = false;
      if (!pending_.empty()) {
        // TXB/TXC bracketing makes the commit atomic on replay: a crash
        // anywhere inside this flush drops the whole transaction.
        AppendLocked(kTxnBegin);
        for (std::string& record : pending_) {
          AppendLocked(record);
          if (sticky_.ok()) {
            record_count_.fetch_add(1, std::memory_order_acq_rel);
            JournalMetrics::Get().appends->Increment();
          }
        }
        AppendLocked(kTxnCommit);
        pending_.clear();
      }
      break;
    case EventKind::kAfterAbort:
      // The transaction never happened; its records (including the
      // compensating ones published during rollback) are dropped.
      in_transaction_ = false;
      pending_.clear();
      break;
    case EventKind::kAfterCreateObject:
      EmitLocked(ObjectRecord(db_->live_store(), event.subject));
      break;
    case EventKind::kAfterDeleteObject:
      EmitLocked("DELO " + std::to_string(event.subject));
      break;
    case EventKind::kAfterSetAttribute: {
      std::ostringstream rec;
      rec << "SETA " << event.subject << " "
          << std::to_string(event.attribute.size()) << ":" << event.attribute
          << " " << EncodeValue(event.new_value);
      EmitLocked(rec.str());
      break;
    }
    case EventKind::kAfterCreateLink:
      EmitLocked(LinkRecord(db_->live_store(), event.subject));
      break;
    case EventKind::kAfterDeleteLink:
      EmitLocked("DELL " + std::to_string(event.subject));
      break;
    case EventKind::kAfterSetLinkAttribute: {
      std::ostringstream rec;
      rec << "SETL " << event.subject << " "
          << std::to_string(event.attribute.size()) << ":" << event.attribute
          << " " << EncodeValue(event.new_value);
      EmitLocked(rec.str());
      break;
    }
    case EventKind::kAfterDeclareSynonym:
      // `target` is the child root united under `source`.
      EmitLocked("SYN " + std::to_string(event.target) + " " +
           std::to_string(event.source));
      break;
    // Runtime DDL. Appended immediately — never buffered in pending_ —
    // because definitions are not undone by an abort, and data records
    // after the transaction may depend on them. Schema records are
    // excluded from record_count_ on replay and on followers, so they are
    // excluded here too, or replicas would report phantom lag forever.
    case EventKind::kAfterDefineClass: {
      const std::string record =
          ClassRecord(db_->live_store(), event.type_name);
      if (!record.empty()) AppendLocked(record);
      break;
    }
    case EventKind::kAfterDefineTemplate: {
      const std::string record =
          TemplateRecord(db_->live_store(), event.type_name);
      if (!record.empty()) AppendLocked(record);
      break;
    }
    case EventKind::kAfterDefineRelationship: {
      const std::string record =
          RelationshipRecord(db_->live_store(), event.type_name);
      if (!record.empty()) AppendLocked(record);
      break;
    }
    default:
      break;
  }
}

Status Journal::Replay(Database* db, std::istream& in, ReplayReport* report) {
  if (!db->classes().empty() || db->object_count() != 0) {
    return Status::FailedPrecondition(
        "journals replay into an empty database");
  }
  ReplayReport local;
  Status st = ReplayStream(db, in, report != nullptr ? report : &local,
                           /*lenient_header=*/false);
  return st;
}

Status Journal::Replay(Database* db, const std::string& path,
                       ReplayReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  return Replay(db, in, report);
}

Status Journal::ReplayTail(Database* db, std::istream& in,
                           ReplayReport* report) {
  ReplayReport local;
  return ReplayStream(db, in, report != nullptr ? report : &local,
                      /*lenient_header=*/true);
}

Status Journal::ReplayTail(Database* db, const std::string& path,
                           ReplayReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  return ReplayTail(db, in, report);
}

Journal::HeaderParse Journal::ParseHeader(std::string_view in,
                                          std::size_t* consumed) {
  *consumed = 0;
  const std::size_t line_max = kHeaderFull.size();  // both headers same size
  const std::size_t nl = in.find('\n');
  if (nl == std::string_view::npos) {
    if (in.size() > line_max) return HeaderParse::kBad;
    // Only a strict prefix of a known header may still grow into one.
    if (kHeaderFull.substr(0, in.size()) != in &&
        kHeaderCont.substr(0, in.size()) != in) {
      return HeaderParse::kBad;
    }
    return HeaderParse::kNeedMore;
  }
  const std::string_view line = in.substr(0, nl);
  *consumed = nl + 1;
  if (line == kHeaderFull) return HeaderParse::kFull;
  if (line == kHeaderCont) return HeaderParse::kCont;
  return HeaderParse::kBad;
}

Journal::FrameParse Journal::ParseFrame(std::string_view in,
                                        std::string* payload,
                                        std::size_t* consumed) {
  *consumed = 0;
  std::size_t pos = 0;
  if (in.empty()) return FrameParse::kNeedMore;
  if (in[pos] != 'R') return FrameParse::kCorrupt;
  if (++pos >= in.size()) return FrameParse::kNeedMore;
  if (in[pos] != ' ') return FrameParse::kCorrupt;
  ++pos;
  char crc_text[9] = {};
  for (int i = 0; i < 8; ++i, ++pos) {
    if (pos >= in.size()) return FrameParse::kNeedMore;
    if (!std::isxdigit(static_cast<unsigned char>(in[pos]))) {
      return FrameParse::kCorrupt;
    }
    crc_text[i] = in[pos];
  }
  if (pos >= in.size()) return FrameParse::kNeedMore;
  if (in[pos] != ' ') return FrameParse::kCorrupt;
  ++pos;
  std::uint64_t len = 0;
  int digits = 0;
  for (;;) {
    if (pos >= in.size()) return FrameParse::kNeedMore;
    const char d = in[pos];
    if (d == ':') {
      ++pos;
      break;
    }
    if (d < '0' || d > '9' || ++digits > 19) return FrameParse::kCorrupt;
    len = len * 10 + static_cast<std::uint64_t>(d - '0');
    if (len > kMaxRecordBytes) return FrameParse::kCorrupt;
    ++pos;
  }
  if (digits == 0) return FrameParse::kCorrupt;
  if (in.size() - pos < len + 1) return FrameParse::kNeedMore;
  const std::string_view body = in.substr(pos, static_cast<std::size_t>(len));
  pos += static_cast<std::size_t>(len);
  if (in[pos] != '\n') return FrameParse::kCorrupt;
  ++pos;
  const std::uint32_t expected =
      static_cast<std::uint32_t>(std::strtoul(crc_text, nullptr, 16));
  if (Crc32(body) != expected) return FrameParse::kCorrupt;
  payload->assign(body.data(), body.size());
  *consumed = pos;
  return FrameParse::kFrame;
}

}  // namespace prometheus::storage
