#include "engine/snapshot.h"

#include <fcntl.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "rdf/term_codec.h"
#include "store/wal.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/timer.h"

namespace sparqluo {

namespace {

constexpr char kMagicV1[8] = {'S', 'P', 'Q', 'L', 'U', 'O', '1', '\n'};
constexpr char kMagicV2[8] = {'S', 'P', 'Q', 'L', 'U', 'O', '2', '\n'};

// Term records use the shared codec in rdf/term_codec.h (the committed
// golden v1 fixture pins its byte shape).

std::string Offset(size_t off) {
  return "offset " + std::to_string(off);
}

/// The store/statistics pair a save serializes. Post-Finalize this is one
/// pinned version — a writer committing concurrently can neither destroy
/// the store mid-save nor let the sections drift apart (v2 checkpoints of
/// a live updatable store depend on this). Pre-Finalize it is the staging
/// store with statistics computed on demand.
struct SaveSource {
  std::shared_ptr<const DatabaseVersion> pin;  ///< Null before Finalize.
  const TripleStore* store = nullptr;

  explicit SaveSource(const Database& db)
      : pin(db.Snapshot()), store(pin ? pin->store.get() : &db.store()) {}

  Statistics ComputeOrPinnedStats(const Dictionary& dict) const {
    return pin ? pin->stats : Statistics::Compute(*store, dict);
  }
};

/// Writes `pieces` back to back into a fresh `tmp_path` and fsyncs it —
/// the file is fully durable (under its temporary name) when this
/// returns. All I/O goes through `ops` so tests can inject write/fsync
/// failures and crash points.
Status WriteTmpDurably(FileOps* ops, const std::string& tmp_path,
                       const std::vector<std::string_view>& pieces) {
  Result<int> fd = ops->Open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC);
  if (!fd.ok()) {
    return Status::NotFound("cannot open for write: " + tmp_path + ": " +
                            fd.status().message());
  }
  Status st = Status::OK();
  for (std::string_view piece : pieces) {
    if (piece.empty()) continue;
    st = ops->WriteAll(*fd, piece.data(), piece.size());
    if (!st.ok()) break;
  }
  if (st.ok()) st = ops->Fsync(*fd);
  Status close_st = ops->Close(*fd);
  if (st.ok()) st = close_st;
  if (!st.ok()) {
    (void)ops->Remove(tmp_path);
    return Status::Unavailable("write failed: " + tmp_path + ": " +
                               st.message());
  }
  return Status::OK();
}

/// Atomically publishes the finished (already fsynced) temporary file as
/// `path`: rename, then fsync the parent directory so the rename itself
/// is durable. Writing to a sibling temporary and renaming keeps three
/// hazards away: a crash mid-write never leaves a half-written snapshot
/// at `path`, a crash shortly *after* a successful save cannot surface an
/// empty delayed-allocation inode there either, and re-saving over a
/// currently mmap'd snapshot cannot truncate the pages a live store is
/// borrowing (the old inode survives until the last mapping drops).
Status PublishFile(FileOps* ops, const std::string& tmp_path,
                   const std::string& path) {
  ops->Crash(CrashPoint::kCheckpointAfterTmpWrite);
  Status st = ops->Rename(tmp_path, path);
  if (!st.ok()) {
    (void)ops->Remove(tmp_path);
    return Status::Unavailable("cannot rename " + tmp_path + " -> " + path +
                               ": " + st.message());
  }
  ops->Crash(CrashPoint::kCheckpointAfterRename);
  // Directory sync makes the rename durable. A failure here means the
  // publish may not survive power loss — report it; the caller must not
  // checkpoint the WAL against a snapshot that might vanish.
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  st = ops->SyncDir(dir);
  if (!st.ok()) {
    return Status::Unavailable("snapshot published but not durable: " +
                               st.message());
  }
  return Status::OK();
}

/// A term that would be rejected by the loader's 16 MiB record cap must
/// fail the save instead — a file that saves but can never load again is
/// worse than a failed save. Checked inline in the dictionary write loop.
Status OversizeTermError(TermId id) {
  return Status::InvalidArgument(
      "term " + std::to_string(id) + " exceeds the 16 MiB snapshot term "
      "size cap and would be rejected on load");
}

// ---------------------------------------------------------------------
// SPQLUO1: data-only stream format (read-only legacy)
// ---------------------------------------------------------------------

Status LoadSnapshotV1(const std::string& path, const FileImage& image,
                      Database* db, SnapshotLoadInfo* info) {
  auto err = [&](const std::string& msg) {
    return Status::ParseError("v1 snapshot '" + path + "': " + msg);
  };
  ByteReader in(image.data(), image.size());
  const uint8_t* skip;
  in.Borrow(&skip, 8);  // magic, verified by the dispatcher

  uint64_t term_count;
  if (!in.ReadU64(&term_count))
    return err("truncated header (section 'terms', " + Offset(in.offset()) +
               ")");
  // Ids are dense and assigned in order, so re-encoding reproduces them.
  for (uint64_t i = 0; i < term_count; ++i) {
    const size_t record_off = in.offset();
    Term t;
    std::string msg;
    if (!ReadTermRecord(&in, "terms", i, term_count, &t, &msg))
      return err(msg);
    TermId id = db->dict().Encode(t);
    if (id != i)
      return err("duplicate term (section 'terms', term " +
                 std::to_string(i) + " of " + std::to_string(term_count) +
                 ", " + Offset(record_off) + ")");
  }

  uint64_t triple_count;
  if (!in.ReadU64(&triple_count))
    return err("truncated header (section 'triples', " + Offset(in.offset()) +
               ")");
  for (uint64_t i = 0; i < triple_count; ++i) {
    const size_t record_off = in.offset();
    auto at = [&] {
      return "(section 'triples', triple " + std::to_string(i) + " of " +
             std::to_string(triple_count) + ", " + Offset(record_off) + ")";
    };
    uint32_t s, p, o;
    if (!in.ReadU32(&s) || !in.ReadU32(&p) || !in.ReadU32(&o))
      return err("truncated triple record " + at());
    if (s >= term_count || p >= term_count || o >= term_count)
      return err("triple references unknown term " + at());
    db->mutable_store().Add(Triple(s, p, o));
  }
  if (info != nullptr) {
    info->format = SnapshotFormat::kV1;
    info->mapped = false;  // Everything is copied out; the image is freed.
    info->file_bytes = image.size();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// SPQLUO2: section-based mmap format
// ---------------------------------------------------------------------

// Section ids. The CSR ids encode (permutation, array): 0x[perm+1][array],
// array 1 = level-1 firsts, 2 = offsets, 3 = level-2 pairs.
constexpr uint32_t kSecMeta = 0x01;
constexpr uint32_t kSecDict = 0x02;
constexpr uint32_t kSecStats = 0x03;
constexpr uint32_t CsrSectionId(Perm perm, uint32_t array) {
  return ((static_cast<uint32_t>(perm) + 1) << 4) | array;
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSecMeta: return "meta";
    case kSecDict: return "dict";
    case kSecStats: return "stats";
    case 0x11: return "spo.firsts";
    case 0x12: return "spo.offsets";
    case 0x13: return "spo.pairs";
    case 0x21: return "pos.firsts";
    case 0x22: return "pos.offsets";
    case 0x23: return "pos.pairs";
    case 0x31: return "osp.firsts";
    case 0x32: return "osp.offsets";
    case 0x33: return "osp.pairs";
    default: return "unknown";
  }
}

/// Every id a valid file must carry, in canonical write order.
constexpr uint32_t kRequiredSections[] = {
    kSecMeta, kSecDict, kSecStats,                    //
    0x11, 0x12, 0x13, 0x21, 0x22, 0x23, 0x31, 0x32, 0x33};
constexpr size_t kSectionCount =
    sizeof(kRequiredSections) / sizeof(kRequiredSections[0]);

constexpr uint32_t kLayoutVersion = 1;
constexpr uint32_t kEndianTag = 0x0A0B0C0D;
constexpr size_t kTocEntryBytes = 32;
constexpr size_t kHeaderBytes = 16;  // magic + section_count + toc_crc

constexpr uint64_t Align8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

Status SaveSnapshotV2(const Database& db, const SaveSource& src,
                      const std::string& path, FileOps* ops) {
  if constexpr (std::endian::native != std::endian::little)
    return Status::Unsupported(
        "v2 snapshots are little-endian raw-array images; this host is "
        "big-endian");
  const TripleStore& store = *src.store;
  if (!store.built())
    return Status::FailedPrecondition(
        "v2 snapshots serialize the built CSR indexes; call Finalize() "
        "first");
  const Dictionary& dict = db.dict();
  const size_t term_count = dict.size();

  std::string meta;
  PutU32(&meta, kLayoutVersion);
  PutU32(&meta, kEndianTag);
  PutU64(&meta, term_count);
  PutU64(&meta, store.size());

  std::string dict_blob;
  for (TermId id = 0; id < term_count; ++id) {
    const Term& t = dict.Decode(id);
    if (!TermFitsRecord(t)) return OversizeTermError(id);
    AppendTermRecord(&dict_blob, t);
  }

  std::string stats_blob;
  src.ComputeOrPinnedStats(dict).SerializeTo(&stats_blob);

  struct SectionOut {
    uint32_t id;
    const void* data;
    uint64_t length;
  };
  std::vector<SectionOut> sections = {
      {kSecMeta, meta.data(), meta.size()},
      {kSecDict, dict_blob.data(), dict_blob.size()},
      {kSecStats, stats_blob.data(), stats_blob.size()},
  };
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    const CsrIndex& ix = store.Csr(perm);
    sections.push_back({CsrSectionId(perm, 1), ix.firsts.data(),
                        ix.firsts.size() * sizeof(TermId)});
    sections.push_back({CsrSectionId(perm, 2), ix.offsets.data(),
                        ix.offsets.size() * sizeof(CsrOffset)});
    sections.push_back({CsrSectionId(perm, 3), ix.pairs.data(),
                        ix.pairs.size() * sizeof(IdPair)});
  }

  // Lay the payloads out back to back, each 8-byte aligned, and build the
  // TOC over the final positions.
  std::string toc;
  uint64_t cursor = Align8(kHeaderBytes + sections.size() * kTocEntryBytes);
  for (const SectionOut& s : sections) {
    PutU32(&toc, s.id);
    PutU32(&toc, 0);  // reserved
    PutU64(&toc, cursor);
    PutU64(&toc, s.length);
    PutU32(&toc, Crc32(s.data, s.length));
    PutU32(&toc, 0);  // reserved
    cursor = Align8(cursor + s.length);
  }

  std::string header(kMagicV2, sizeof(kMagicV2));
  PutU32(&header, static_cast<uint32_t>(sections.size()));
  PutU32(&header, Crc32(toc.data(), toc.size()));
  header += toc;

  std::vector<std::string_view> pieces;
  pieces.emplace_back(header);
  uint64_t written = header.size();
  static constexpr char kZeros[8] = {};
  for (const SectionOut& s : sections) {
    uint64_t target = Align8(written);
    pieces.emplace_back(kZeros, target - written);
    if (s.length > 0)
      pieces.emplace_back(static_cast<const char*>(s.data), s.length);
    written = target + s.length;
  }

  const std::string tmp_path = path + ".tmp";
  SPARQLUO_RETURN_NOT_OK(WriteTmpDurably(ops, tmp_path, pieces));
  return PublishFile(ops, tmp_path, path);
}

struct TocEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Borrows a raw little-endian array section as a typed ArrayRef. The
/// caller has already bounds-checked the section and verified divisibility
/// by sizeof(T); alignment holds because section offsets are 8-byte
/// aligned and the image base is page- (mmap) or malloc-aligned.
template <typename T>
ArrayRef<T> BorrowArray(const FileImage& image, const TocEntry& e) {
  return ArrayRef<T>::Borrowed(
      reinterpret_cast<const T*>(image.data() + e.offset),
      static_cast<size_t>(e.length / sizeof(T)));
}

Status LoadSnapshotV2(const std::string& path,
                      std::shared_ptr<const FileImage> image, Database* db,
                      const SnapshotLoadOptions& options,
                      SnapshotLoadInfo* info) {
  if constexpr (std::endian::native != std::endian::little)
    return Status::Unsupported(
        "v2 snapshots are little-endian raw-array images; this host is "
        "big-endian");
  auto err = [&](const std::string& msg) {
    return Status::ParseError("v2 snapshot '" + path + "': " + msg);
  };
  const uint8_t* base = image->data();
  const uint64_t file_size = image->size();
  if (file_size < kHeaderBytes)
    return err("file too small for header (" + std::to_string(file_size) +
               " bytes, need " + std::to_string(kHeaderBytes) + ")");

  ByteReader hdr(base + 8, kHeaderBytes - 8, 8);
  uint32_t section_count, stored_toc_crc;
  hdr.ReadU32(&section_count);
  hdr.ReadU32(&stored_toc_crc);
  if (section_count < kSectionCount || section_count > 64)
    return err("implausible section count " + std::to_string(section_count) +
               " (section 'toc', " + Offset(8) + ")");
  const uint64_t toc_bytes = uint64_t{section_count} * kTocEntryBytes;
  if (kHeaderBytes + toc_bytes > file_size)
    return err("truncated table of contents (section 'toc', need " +
               std::to_string(toc_bytes) + " bytes at " +
               Offset(kHeaderBytes) + ", file is " +
               std::to_string(file_size) + ")");
  const uint32_t computed_toc_crc =
      Crc32(base + kHeaderBytes, static_cast<size_t>(toc_bytes));
  if (computed_toc_crc != stored_toc_crc)
    return err("table of contents CRC mismatch (section 'toc', " +
               Offset(kHeaderBytes) + ")");

  // Parse and structurally validate every TOC entry: in bounds, aligned,
  // non-overlapping, no duplicate ids.
  std::vector<TocEntry> entries(section_count);
  {
    ByteReader toc(base + kHeaderBytes, static_cast<size_t>(toc_bytes),
                   kHeaderBytes);
    for (TocEntry& e : entries) {
      uint32_t reserved;
      toc.ReadU32(&e.id);
      toc.ReadU32(&reserved);
      toc.ReadU64(&e.offset);
      toc.ReadU64(&e.length);
      toc.ReadU32(&e.crc);
      toc.ReadU32(&reserved);
    }
  }
  const uint64_t payload_start = kHeaderBytes + toc_bytes;
  for (const TocEntry& e : entries) {
    const std::string at = std::string("section '") + SectionName(e.id) +
                           "' (" + Offset(e.offset) + ", length " +
                           std::to_string(e.length) + ")";
    if (e.offset % 8 != 0) return err("misaligned " + at);
    if (e.offset < payload_start || e.offset > file_size ||
        e.length > file_size - e.offset)
      return err("out-of-bounds " + at + ", file size " +
                 std::to_string(file_size));
  }
  std::vector<const TocEntry*> by_offset;
  by_offset.reserve(entries.size());
  for (const TocEntry& e : entries) by_offset.push_back(&e);
  std::sort(by_offset.begin(), by_offset.end(),
            [](const TocEntry* a, const TocEntry* b) {
              return a->offset < b->offset;
            });
  for (size_t i = 1; i < by_offset.size(); ++i) {
    const TocEntry& prev = *by_offset[i - 1];
    if (prev.offset + prev.length > by_offset[i]->offset)
      return err(std::string("overlapping sections '") +
                 SectionName(prev.id) + "' and '" +
                 SectionName(by_offset[i]->id) + "' (" +
                 Offset(by_offset[i]->offset) + ")");
  }

  const TocEntry* by_id[0x40] = {};
  for (const TocEntry& e : entries) {
    if (e.id >= 0x40) continue;  // Unknown high ids: ignored (forward compat).
    if (by_id[e.id] != nullptr)
      return err(std::string("duplicate section '") + SectionName(e.id) + "'");
    by_id[e.id] = &e;
  }
  for (uint32_t id : kRequiredSections) {
    if (by_id[id] == nullptr)
      return err(std::string("missing section '") + SectionName(id) + "'");
  }

  if (options.verify_checksums) {
    for (uint32_t id : kRequiredSections) {
      const TocEntry& e = *by_id[id];
      const uint32_t computed =
          Crc32(base + e.offset, static_cast<size_t>(e.length));
      if (computed != e.crc)
        return err(std::string("section '") + SectionName(id) +
                   "' CRC mismatch (" + Offset(e.offset) + ")");
    }
  }

  // --- meta ---
  const TocEntry& meta = *by_id[kSecMeta];
  uint32_t layout_version, endian_tag;
  uint64_t term_count, triple_count;
  {
    ByteReader in(base + meta.offset, static_cast<size_t>(meta.length),
                  static_cast<size_t>(meta.offset));
    if (!in.ReadU32(&layout_version) || !in.ReadU32(&endian_tag) ||
        !in.ReadU64(&term_count) || !in.ReadU64(&triple_count))
      return err("truncated section 'meta' (" + Offset(meta.offset) + ")");
    if (layout_version != kLayoutVersion)
      return err("unsupported layout version " +
                 std::to_string(layout_version) + " (section 'meta')");
    if (endian_tag != kEndianTag)
      return err("endianness tag mismatch (section 'meta'); file was "
                 "written on an incompatible host");
    if (term_count >= kInvalidTermId)
      return err("term count " + std::to_string(term_count) +
                 " exceeds the id space (section 'meta')");
    if (in.remaining() != 0)
      return err("trailing bytes in section 'meta' (" + Offset(in.offset()) +
                 "); meta extensions bump layout_version");
  }

  // --- CSR sections: structural validation, then borrow in place ---
  CsrIndex csr[3];
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    const TocEntry& ef = *by_id[CsrSectionId(perm, 1)];
    const TocEntry& eo = *by_id[CsrSectionId(perm, 2)];
    const TocEntry& ep = *by_id[CsrSectionId(perm, 3)];
    auto sec = [&](const TocEntry& e) {
      return std::string("section '") + SectionName(e.id) + "' (" +
             Offset(e.offset) + ")";
    };
    if (ef.length % sizeof(TermId) != 0 || eo.length % sizeof(CsrOffset) != 0 ||
        ep.length % sizeof(IdPair) != 0)
      return err("CSR section length not a multiple of its element size: " +
                 sec(ef.length % sizeof(TermId) != 0
                         ? ef
                         : (eo.length % sizeof(CsrOffset) != 0 ? eo : ep)));
    const uint64_t nfirsts = ef.length / sizeof(TermId);
    const uint64_t noffsets = eo.length / sizeof(CsrOffset);
    const uint64_t npairs = ep.length / sizeof(IdPair);
    if (npairs != triple_count)
      return err(sec(ep) + " holds " + std::to_string(npairs) +
                 " pairs, meta says " + std::to_string(triple_count) +
                 " triples");
    if (noffsets != nfirsts + 1)
      return err(sec(eo) + " has " + std::to_string(noffsets) +
                 " offsets for " + std::to_string(nfirsts) +
                 " directory entries (want directory + 1)");
    ArrayRef<TermId> firsts = BorrowArray<TermId>(*image, ef);
    ArrayRef<CsrOffset> offsets = BorrowArray<CsrOffset>(*image, eo);
    ArrayRef<IdPair> pairs = BorrowArray<IdPair>(*image, ep);
    // O(directory) invariants; intra-bucket pair *order* is covered by
    // the section CRC rather than an O(n) re-check, while pair *ids* get
    // a bounds scan below (docs/snapshot_format.md spells out this trust
    // model).
    if (offsets.size() > 0 && offsets[0] != 0)
      return err(sec(eo) + " does not start at 0");
    for (size_t b = 0; b + 1 < offsets.size(); ++b) {
      if (offsets[b] >= offsets[b + 1])
        return err(sec(eo) + " not strictly increasing at bucket " +
                   std::to_string(b) + " (buckets must be non-empty)");
    }
    if (nfirsts > 0 && offsets.back() != npairs)
      return err(sec(eo) + " ends at " + std::to_string(offsets.back()) +
                 ", pairs section holds " + std::to_string(npairs));
    if (nfirsts == 0 && npairs != 0)
      return err(sec(ep) + " holds pairs but the directory is empty");
    for (size_t b = 0; b < firsts.size(); ++b) {
      if (firsts[b] >= term_count)
        return err(sec(ef) + " references unknown term at bucket " +
                   std::to_string(b));
      if (b > 0 && firsts[b - 1] >= firsts[b])
        return err(sec(ef) + " not strictly ascending at bucket " +
                   std::to_string(b));
    }
    // The one O(pairs) check, and the one that makes the memory-safety
    // guarantee unconditional: every pair id must be decodable, or a
    // query result would hand Dictionary::Decode an id past the chunk
    // table. A sequential max-scan costs a few ms at LUBM(13) — noise
    // next to the rebuild this format avoids. (Intra-bucket *order* is
    // still only CRC-covered: wrong order misorders results, it cannot
    // touch invalid memory.)
    TermId max_id = 0;
    for (const IdPair& pr : pairs)
      max_id = std::max(max_id, std::max(pr.second, pr.third));
    if (npairs > 0 && max_id >= term_count)
      return err(sec(ep) + " references unknown term id " +
                 std::to_string(max_id));
    CsrIndex& ix = csr[static_cast<size_t>(perm)];
    ix.firsts = std::move(firsts);
    ix.offsets = std::move(offsets);
    ix.pairs = std::move(pairs);
  }

  // --- stats ---
  const TocEntry& stats_entry = *by_id[kSecStats];
  auto stats = Statistics::Deserialize(
      base + stats_entry.offset, static_cast<size_t>(stats_entry.length));
  if (!stats.ok())
    return err(stats.status().message() + " (section 'stats', " +
               Offset(stats_entry.offset) + ")");
  if (stats->num_triples() != triple_count)
    return err("statistics disagree with meta (" +
               std::to_string(stats->num_triples()) + " vs " +
               std::to_string(triple_count) +
               " triples; section 'stats', " + Offset(stats_entry.offset) +
               ")");

  // --- dict: bulk-append decoded terms (O(terms), no interning) ---
  {
    const TocEntry& e = *by_id[kSecDict];
    ByteReader in(base + e.offset, static_cast<size_t>(e.length),
                  static_cast<size_t>(e.offset));
    for (uint64_t i = 0; i < term_count; ++i) {
      Term t;
      std::string msg;
      if (!ReadTermRecord(&in, "dict", i, term_count, &t, &msg))
        return err(msg);
      db->dict().AppendForLoad(std::move(t));
    }
    if (in.remaining() != 0)
      return err("trailing bytes after last term record (section 'dict', " +
                 Offset(in.offset()) + ")");
  }

  if (info != nullptr) {
    info->format = SnapshotFormat::kV2;
    info->mapped = image->mapped();
    info->file_bytes = file_size;
  }
  db->AdoptStatistics(std::move(*stats));
  db->mutable_store().AdoptCsr(
      std::move(csr[0]), std::move(csr[1]), std::move(csr[2]),
      std::shared_ptr<const void>(std::move(image)));
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const Database& db, const std::string& path,
                    FileOps* ops) {
  Timer timer;
  ops = ResolveFileOps(ops);
  // Capture one version for the whole save (see SaveSource): the
  // checkpoint must be internally consistent even while a writer commits,
  // and its id is what a successful save checkpoints the WAL to.
  SaveSource src(db);
  Status s = SaveSnapshotV2(db, src, path, ops);
  if (s.ok()) {
    MetricRegistry::Global()
        .GetHistogram("sparqluo_snapshot_save_ms",
                      "Snapshot save latency in milliseconds")
        ->Observe(timer.ElapsedMillis());
  }
  // The snapshot now durably holds everything through the pinned version:
  // record that in the WAL directory and retire segments it covers. A
  // checkpoint failure doesn't invalidate the save — the log just stays
  // longer than it needed to — so the save still reports success.
  if (s.ok() && src.pin != nullptr) {
    if (Wal* wal = db.wal()) {
      Status ckpt = wal->Checkpoint(src.pin->id, src.store->size());
      if (!ckpt.ok()) {
        SPARQLUO_LOG(kWarn)
            << "wal checkpoint after snapshot save failed: "
            << ckpt.ToString();
      }
    }
  }
  return s;
}

Status LoadSnapshot(const std::string& path, Database* db,
                    const SnapshotLoadOptions& options,
                    SnapshotLoadInfo* info) {
  if (db->size() != 0 || db->dict().size() != 0)
    return Status::InvalidArgument("LoadSnapshot requires an empty database");
  Timer timer;
  auto image = FileImage::Open(path, options.allow_mmap);
  if (!image.ok()) return image.status();
  if ((*image)->size() < 8 ||
      (std::memcmp((*image)->data(), kMagicV1, 8) != 0 &&
       std::memcmp((*image)->data(), kMagicV2, 8) != 0))
    return Status::ParseError("not a sparqluo snapshot: " + path);
  bool v2 = std::memcmp((*image)->data(), kMagicV2, 8) == 0;
  Status s = v2 ? LoadSnapshotV2(path, std::move(*image), db, options, info)
                : LoadSnapshotV1(path, **image, db, info);
  if (s.ok()) {
    MetricRegistry::Global()
        .GetHistogram("sparqluo_snapshot_load_ms",
                      "Snapshot load latency in milliseconds")
        ->Observe(timer.ElapsedMillis());
  }
  return s;
}

}  // namespace sparqluo
