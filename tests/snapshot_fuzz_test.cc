// Snapshot corruption robustness.
//
// Every malformed input — truncations at every byte length, flipped
// magics, per-section CRC corruption, hostile TOC entries (overlapping,
// out-of-bounds, misaligned, duplicated), and random byte flips — must
// come back as a clean Status error (or, for flips that only touch
// unprotected padding, a clean success): never a crash, hang, huge
// allocation or sanitizer report. This test runs under the CI sanitizer
// matrix (thread | address,undefined) for exactly that reason.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/snapshot.h"
#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/random.h"

namespace sparqluo {
namespace {

/// In-memory little-endian field accessors for byte surgery.
uint32_t GetU32(const std::string& b, size_t off) {
  return static_cast<uint32_t>(static_cast<uint8_t>(b[off])) |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 3])) << 24;
}
uint64_t GetU64(const std::string& b, size_t off) {
  return static_cast<uint64_t>(GetU32(b, off + 4)) << 32 | GetU32(b, off);
}
void SetU32(std::string* b, size_t off, uint32_t v) {
  (*b)[off] = static_cast<char>(v);
  (*b)[off + 1] = static_cast<char>(v >> 8);
  (*b)[off + 2] = static_cast<char>(v >> 16);
  (*b)[off + 3] = static_cast<char>(v >> 24);
}
void SetU64(std::string* b, size_t off, uint64_t v) {
  SetU32(b, off, static_cast<uint32_t>(v));
  SetU32(b, off + 4, static_cast<uint32_t>(v >> 32));
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kTocEntryBytes = 32;

  void SetUp() override {
    path_ = ::testing::TempDir() + "snapshot_fuzz_test.bin";
    Database db;
    db.AddTriple(Term::Iri("http://f.org/a"), Term::Iri("http://f.org/p"),
                 Term::Iri("http://f.org/b"));
    db.AddTriple(Term::Iri("http://f.org/b"), Term::Iri("http://f.org/p"),
                 Term::Iri("http://f.org/c"));
    db.AddTriple(Term::Iri("http://f.org/a"), Term::Iri("http://f.org/q"),
                 Term::LangLiteral("x", "en"));
    db.AddTriple(Term::Blank("n0"), Term::Iri("http://f.org/q"),
                 Term::TypedLiteral("7", "http://dt"));
    db.Finalize();
    ASSERT_TRUE(SaveSnapshot(db, path_).ok());
    v2_ = ReadBytes(path_);
    // v1 bytes come from the committed fixture: nothing writes v1 anymore.
    v1_ = ReadBytes(std::string(SPARQLUO_TEST_DATA_DIR) +
                    "/golden_v1.snapshot");
    ASSERT_GT(v1_.size(), 16u);
    ASSERT_GT(v2_.size(), kHeaderBytes + 12 * kTocEntryBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Writes `bytes` to disk and attempts a load into a fresh database.
  /// The contract under fuzz: this returns — it never crashes — and a
  /// non-OK status is a clean ParseError/NotFound-style Status.
  Status TryLoad(const std::string& bytes, bool allow_mmap = true,
                 bool verify_checksums = true) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    Database db;
    SnapshotLoadOptions opts;
    opts.allow_mmap = allow_mmap;
    opts.verify_checksums = verify_checksums;
    return LoadSnapshot(path_, &db, opts);
  }

  /// Recomputes the v2 TOC checksum after TOC surgery, so corruption
  /// planted in the entries reaches the deeper validators instead of
  /// tripping the (also tested) TOC CRC first.
  void FixTocCrc(std::string* bytes) {
    uint32_t nsec = GetU32(*bytes, 8);
    SetU32(bytes, 12,
           Crc32(bytes->data() + kHeaderBytes, nsec * kTocEntryBytes));
  }

  std::string path_;
  std::string v1_, v2_;
};

// Truncation sweep, both formats: every proper prefix must fail cleanly.
// (v2 files end with a section payload and v1 files with a triple record,
// so any byte cut always amputates something a loader needs.)
TEST_F(SnapshotFuzzTest, EveryTruncationFailsCleanly) {
  for (const std::string* file : {&v2_, &v1_}) {
    for (size_t len = 0; len < file->size(); ++len) {
      Status st = TryLoad(file->substr(0, len));
      EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes loaded";
    }
  }
}

TEST_F(SnapshotFuzzTest, FlippedMagicAndVersionAreRejected) {
  std::string bad = v2_;
  bad[0] = 'X';
  EXPECT_FALSE(TryLoad(bad).ok());

  // A future version tag must be rejected, not misparsed.
  std::string future = v2_;
  future[6] = '3';
  Status st = TryLoad(future);
  EXPECT_EQ(st.code(), StatusCode::kParseError);

  // v2 bytes wearing the v1 magic parse as (nonsense) v1 records and must
  // come back as a clean error, not a crash or giant allocation.
  std::string masquerade = v2_;
  masquerade[6] = '1';
  EXPECT_FALSE(TryLoad(masquerade).ok());

  std::string v1_masquerade = v1_;
  v1_masquerade[6] = '2';
  EXPECT_FALSE(TryLoad(v1_masquerade).ok());
}

// One flipped payload byte per section: the per-section CRC must catch
// every single one (the CRC-vs-deep-validation trust model of
// docs/snapshot_format.md depends on it).
TEST_F(SnapshotFuzzTest, EverySectionCrcCatchesAPayloadFlip) {
  uint32_t nsec = GetU32(v2_, 8);
  for (uint32_t i = 0; i < nsec; ++i) {
    size_t entry = kHeaderBytes + i * kTocEntryBytes;
    uint64_t offset = GetU64(v2_, entry + 8);
    uint64_t length = GetU64(v2_, entry + 16);
    if (length == 0) continue;
    std::string bad = v2_;
    bad[offset + length / 2] =
        static_cast<char>(bad[offset + length / 2] ^ 0x20);
    Status st = TryLoad(bad);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "section " << i;
    EXPECT_NE(st.message().find("CRC"), std::string::npos)
        << "section " << i << ": " << st.ToString();
  }
}

// The memory-safety backstop behind the CRC: a file whose checksums all
// match (crafted, or loaded with verification off) but whose level-2
// pairs reference ids past the dictionary must be rejected by the pair
// bounds scan — otherwise the first query result would hand
// Dictionary::Decode an undecodable id.
TEST_F(SnapshotFuzzTest, CrcValidOutOfRangePairIdIsRejected) {
  std::string bad = v2_;
  const size_t entry = kHeaderBytes + 5 * kTocEntryBytes;  // spo.pairs
  ASSERT_EQ(GetU32(bad, entry), 0x13u);
  const uint64_t offset = GetU64(bad, entry + 8);
  const uint64_t length = GetU64(bad, entry + 16);
  ASSERT_GE(length, 8u);
  SetU32(&bad, offset, 0xFFFFFFF0u);  // first pair's `second` component
  SetU32(&bad, entry + 24, Crc32(bad.data() + offset, length));
  FixTocCrc(&bad);
  Status st = TryLoad(bad);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("unknown term id"), std::string::npos)
      << st.ToString();
  // Same outcome with checksum verification off — the scan, not the
  // CRC, is what guarantees decodability.
  std::string bad2 = bad;
  SetU32(&bad2, entry + 24, 0);  // wrong section CRC, ignored when off
  FixTocCrc(&bad2);              // (the TOC's own CRC is always checked)
  st = TryLoad(bad2, /*allow_mmap=*/true, /*verify_checksums=*/false);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("unknown term id"), std::string::npos)
      << st.ToString();
}

// Sanity for the option itself: a pristine file loads with verification
// disabled.
TEST_F(SnapshotFuzzTest, ChecksumVerificationCanBeDisabled) {
  EXPECT_TRUE(TryLoad(v2_, true, /*verify_checksums=*/false).ok());
}

TEST_F(SnapshotFuzzTest, TocCrcCatchesTocFlips) {
  std::string bad = v2_;
  bad[kHeaderBytes + 9] = static_cast<char>(bad[kHeaderBytes + 9] ^ 0x01);
  Status st = TryLoad(bad);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("table of contents"), std::string::npos)
      << st.ToString();
}

// Hostile TOC entries (with a valid TOC checksum, so the structural
// validators — not the CRC — must reject them).
TEST_F(SnapshotFuzzTest, HostileTocEntriesAreRejected) {
  const size_t e0 = kHeaderBytes;                     // first entry
  const size_t e1 = kHeaderBytes + kTocEntryBytes;    // second entry

  {  // Out of bounds: offset past EOF (8-aligned, so the bounds check —
     // not the alignment check — is what must reject it).
    std::string bad = v2_;
    SetU64(&bad, e0 + 8, (bad.size() + 15) & ~uint64_t{7});
    FixTocCrc(&bad);
    Status st = TryLoad(bad);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("out-of-bounds"), std::string::npos)
        << st.ToString();
  }
  {  // Out of bounds: length overruns EOF (and u64 overflow bait).
    std::string bad = v2_;
    SetU64(&bad, e0 + 16, UINT64_MAX - 4);
    FixTocCrc(&bad);
    EXPECT_EQ(TryLoad(bad).code(), StatusCode::kParseError);
  }
  {  // Overlap: point the second section into the first one's bytes.
    std::string bad = v2_;
    SetU64(&bad, e1 + 8, GetU64(bad, e0 + 8));
    FixTocCrc(&bad);
    Status st = TryLoad(bad);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  {  // Misaligned: borrowed arrays require 8-byte-aligned sections.
    std::string bad = v2_;
    SetU64(&bad, e0 + 8, GetU64(bad, e0 + 8) + 4);
    FixTocCrc(&bad);
    Status st = TryLoad(bad);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("misaligned"), std::string::npos)
        << st.ToString();
  }
  {  // Duplicate section id.
    std::string bad = v2_;
    SetU32(&bad, e1, GetU32(bad, e0));
    FixTocCrc(&bad);
    Status st = TryLoad(bad);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  {  // Implausible section count.
    std::string bad = v2_;
    SetU32(&bad, 8, 0xFFFFFF);
    EXPECT_EQ(TryLoad(bad).code(), StatusCode::kParseError);
  }
  {  // Zero sections.
    std::string bad = v2_;
    SetU32(&bad, 8, 0);
    EXPECT_EQ(TryLoad(bad).code(), StatusCode::kParseError);
  }
}

// Random single-bit flips over the whole file, both formats, both load
// modes. A flip in CRC-protected bytes must fail cleanly; a flip in
// padding may legally load; nothing may crash. Deterministic seed: a
// failure reproduces.
TEST_F(SnapshotFuzzTest, RandomBitFlipsNeverCrash) {
  Random rng(0xF00DF00Du);
  for (const std::string* file : {&v2_, &v1_}) {
    for (int iter = 0; iter < 400; ++iter) {
      std::string bad = *file;
      size_t pos = rng.Uniform(bad.size());
      bad[pos] = static_cast<char>(bad[pos] ^ (1u << rng.Uniform(8)));
      Status st = TryLoad(bad, /*allow_mmap=*/(iter % 2) == 0);
      (void)st;  // Any clean Status is acceptable; the assertion is
                 // "returned without crashing" under the sanitizers.
    }
  }
}

// Multi-byte random corruption bursts (more aggressive than single
// flips): still no crashes, hangs or runaway allocations.
TEST_F(SnapshotFuzzTest, RandomCorruptionBurstsNeverCrash) {
  Random rng(0xBADC0FFEu);
  for (int iter = 0; iter < 150; ++iter) {
    std::string bad = v2_;
    size_t burst = 1 + rng.Uniform(16);
    for (size_t i = 0; i < burst; ++i)
      bad[rng.Uniform(bad.size())] = static_cast<char>(rng.Uniform(256));
    (void)TryLoad(bad);
  }
}

}  // namespace
}  // namespace sparqluo
