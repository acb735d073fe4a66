#ifndef PROMETHEUS_STORAGE_SNAPSHOT_H_
#define PROMETHEUS_STORAGE_SNAPSHOT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"

namespace prometheus::storage {

class Env;

/// Serialises a Value into the storage wire format (type tag +
/// length-prefixed payload; lists recurse). Exposed for tests.
std::string EncodeValue(const Value& value);

/// Parses a Value from `text` starting at `*pos`; advances `*pos`. All
/// parsing in this layer is exception-free: corrupt bytes yield a clean
/// `kIoError`, never a throw.
Result<Value> DecodeValue(const std::string& text, std::size_t* pos);

/// One-line records shared by snapshots and journals:
///   CLASS/TMPL/REL — schema definitions
///   OBJ/LINK   — full object / link state (used for creations)
///   SETA/SETL  — single attribute updates
///   DELO/DELL  — deletions
///   SYN        — synonym declaration
///   END        — end of stream
/// `SchemaRecords` renders the CLASS/TMPL/REL prologue as one string per
/// record; `WriteSchemaRecords` streams them; `ObjectRecord` / `LinkRecord`
/// render one instance; `ApplyRecord` parses and applies any record to a
/// database (with semantic checks suspended — records describe
/// already-validated history).
std::vector<std::string> SchemaRecords(const DbSnapshot& db);
Status WriteSchemaRecords(const DbSnapshot& db, std::ostream& out);
std::string ObjectRecord(const DbSnapshot& db, Oid oid);
std::string LinkRecord(const DbSnapshot& db, Oid oid);
/// Render one schema entity by name (empty string when absent) — the
/// journal uses these to make runtime DDL durable as it happens.
std::string ClassRecord(const DbSnapshot& db, const std::string& name);
std::string TemplateRecord(const DbSnapshot& db, const std::string& name);
std::string RelationshipRecord(const DbSnapshot& db, const std::string& name);

/// Applies one record line. Returns true in `*end` for the END record.
/// DELO/DELL of already-absent targets are ignored (cascades may have
/// removed them first).
Status ApplyRecord(Database* db, const std::string& line, bool* end);

/// The storage substrate (the role POET played under the thesis'
/// prototype): full-database snapshots.
///
/// `SaveSnapshot` writes schema, all live objects and links (with their
/// classification contexts and attributes) and the synonym sets of a store:
/// a pinned snapshot, or a database's live store (the `Database`
/// overloads).
/// `LoadSnapshot` restores them into an *empty* database, preserving every
/// Oid, so persisted references stay valid across processes.
///
/// Durability contract:
///  - The path overloads write atomically: the snapshot is staged in
///    `<path>.tmp`, fsynced, then renamed over `path` — a crash mid-save
///    never damages an existing snapshot at `path`.
///  - `LoadSnapshot` verifies the stream is complete (END record present)
///    *before* applying anything, so a truncated snapshot reports
///    `kIoError` and leaves the target database untouched.
Status SaveSnapshot(const DbSnapshot& db, const std::string& path,
                    Env* env = nullptr);
Status SaveSnapshot(const DbSnapshot& db, std::ostream& out);
Status SaveSnapshot(const Database& db, const std::string& path,
                    Env* env = nullptr);
Status SaveSnapshot(const Database& db, std::ostream& out);
Status LoadSnapshot(Database* db, const std::string& path);
Status LoadSnapshot(Database* db, std::istream& in);

}  // namespace prometheus::storage

#endif  // PROMETHEUS_STORAGE_SNAPSHOT_H_
