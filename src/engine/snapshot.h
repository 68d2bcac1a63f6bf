// Binary database snapshots (docs/snapshot_format.md is the full
// specification, including layout tables, validation rules and the
// versioning policy).
//
// SaveSnapshot writes one format, SPQLUO2: the finalized database —
// chunked dictionary, all three CSR permutation indexes (level-1
// directories, offset arrays, level-2 pair arrays) and Statistics — as
// 8-byte-aligned, individually CRC-32-checksummed sections behind a
// table-of-contents header. Loading mmaps the file (or falls back to one
// buffered read) and points the store at the section views — zero
// per-triple work, so the follow-up Finalize() only instantiates engine +
// executor.
//
// LoadSnapshot also reads the legacy data-only SPQLUO1 format (dictionary
// terms and raw (s, p, o) id records, streamed back into the staging
// store; the caller's Finalize() then rebuilds the indexes). It dispatches
// on the magic, so both formats load through one entry point.
#pragma once

#include <cstdint>
#include <string>

#include "engine/database.h"
#include "util/fault_fs.h"
#include "util/status.h"

namespace sparqluo {

/// The format a load found: kV1 is the read-only legacy format, kV2 the
/// mmap-friendly section format every save writes.
enum class SnapshotFormat : uint8_t { kV1 = 1, kV2 = 2 };

/// Load-time knobs (defaults are right for production use).
struct SnapshotLoadOptions {
  /// v2: mmap the file when possible; off forces the read-into-buffer
  /// fallback (useful for tests and for filesystems without mmap).
  bool allow_mmap = true;
  /// v2: verify the per-section CRC-32 checksums. Leaving this on costs
  /// one linear pass over the file — still far below a v1 rebuild — and
  /// is what turns silent corruption into a clean ParseError.
  bool verify_checksums = true;
};

/// What LoadSnapshot actually did (optional diagnostics out-param).
struct SnapshotLoadInfo {
  SnapshotFormat format = SnapshotFormat::kV1;
  bool mapped = false;       ///< v2 only: the file is mmap'd, not copied.
  uint64_t file_bytes = 0;
};

/// Writes the database to `path` as SPQLUO2. The save serializes the built
/// indexes, so it requires Finalize() (or a loaded v2 snapshot). It
/// pins the *current committed version* — making it the durable
/// checkpoint target for the updatable store — and publishes the file
/// atomically and durably: write-to-temporary, fsync the file, rename,
/// fsync the parent directory. A crash never leaves a torn snapshot,
/// re-saving over a currently mmap'd file is safe, and a published
/// snapshot survives power loss.
///
/// With a WAL attached to `db`, a successful save also checkpoints the
/// log: the saved version is recorded in the WAL directory's marker and
/// segments it fully covers are retired (docs/durability.md).
///
/// `ops` routes the durable-write syscalls (tests inject faults through
/// it); null uses the real filesystem.
Status SaveSnapshot(const Database& db, const std::string& path,
                    FileOps* ops = nullptr);

/// Loads a snapshot of either format into an empty database, dispatching
/// on the file magic. After a v1 load the caller runs db->Finalize() to
/// build indexes; after a v2 load Finalize() must still be called but
/// skips every rebuild (indexes and statistics are adopted from the
/// file). Errors name the failing section and byte offset.
Status LoadSnapshot(const std::string& path, Database* db,
                    const SnapshotLoadOptions& options = {},
                    SnapshotLoadInfo* info = nullptr);

}  // namespace sparqluo
