// Seeded request streams for the benchmark workloads.
//
// The datasets are fixed (LUBM seed 42, DBpedia-like seed 7); the workload
// seed only drives what is asked of them: which anchors the LUBM templates
// are instantiated with, the hot pool, the order of the paper queries and
// the write batches. The same seed always yields the same streams.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "store/update.h"
#include "util/random.h"

namespace sqbench {

/// One read request: query text against dataset `db` (index into the
/// workload's datasets), `id` naming the template it came from.
struct Request {
  size_t db = 0;
  std::string id;
  std::string text;
};

/// Deterministic per-purpose generator: `tag` separates the streams drawn
/// from one workload seed (client index, hot pool, write batches, ...).
inline sparqluo::Random SeededRandom(uint64_t seed, uint64_t tag) {
  return sparqluo::Random(seed * 0x100000001B3ULL + tag);
}

/// Every undergraduate student and every department of a LUBM database,
/// sorted: the anchor spaces the templates are instantiated over.
///
/// Students are (assisted, university, department, index), where
/// `assisted` is 1 when the student takes a course that has a teaching
/// assistant. It leads the sort because it sets q1.3's cost: ~10 ms for
/// such a student, ~800 ms for the other quarter of students. A Weyl walk
/// over this order asks for the same share of both kinds in every run;
/// sampled without it, the share moved by a third between seeds and with
/// it the request rate.
struct LubmAnchors {
  std::vector<std::array<uint32_t, 4>> students;
  std::vector<std::array<uint32_t, 2>> departments;
};
LubmAnchors CollectAnchors(const sparqluo::Database& lubm);

/// The nine anchored LUBM paper templates (q1.1-q1.6 name a student,
/// q2.4-q2.6 a department). Instantiation rewrites every
/// `DepartmentD.UniversityU` and `UndergraduateStudentK` in the text.
class LubmTemplates {
 public:
  LubmTemplates();
  size_t size() const { return ids_.size(); }
  const std::string& id(size_t t) const { return ids_[t]; }
  bool student_anchored(size_t t) const { return student_[t]; }
  /// Template `t` instantiated with the anchor at fraction `x` in [0, 1)
  /// of its (sorted) anchor space.
  Request Draw(size_t t, const LubmAnchors& anchors, double x) const;

 private:
  std::vector<std::string> ids_;
  std::vector<std::string> texts_;
  std::vector<bool> student_;
};

/// Point k of the Weyl sequence frac(offset + k * golden ratio): any run of
/// consecutive points covers [0, 1) evenly. Walking an anchor space along it
/// from a seeded offset asks for different anchors under every seed, yet
/// the share of expensive anchors - some q1.3 anchors take ~1 s against a
/// ~13 ms median - is the same in every run.
double Weyl(double offset, uint64_t k);

/// lubm-distinct: seeded rounds that ask every template once, in a shuffled
/// order (so the template mix is the same in every run). Each template
/// walks its anchor space along a Weyl sequence from a seeded offset.
class DistinctStream {
 public:
  DistinctStream(const LubmTemplates& templates, const LubmAnchors& anchors,
                 sparqluo::Random rng);
  Request Next();

 private:
  const LubmTemplates* templates_;
  const LubmAnchors* anchors_;
  sparqluo::Random rng_;
  std::vector<size_t> round_;
  size_t pos_ = 0;
  std::vector<double> offset_;   ///< per template, seeded
  std::vector<uint64_t> drawn_;  ///< per template
};

/// Fisher-Yates shuffle of `order` driven by `rng`.
void Shuffle(std::vector<size_t>* order, sparqluo::Random& rng);

/// lubm-hot: the small-result templates, each with a pool of anchors taken
/// along a Weyl sequence from a seeded offset; requests pick uniformly from
/// all pools. Unlike a Zipf-skewed pick, this keeps the mix of result
/// sizes, and with it the cost of a hit, the same under every seed.
class HotPool {
 public:
  static constexpr size_t kAnchorsPerTemplate = 32;
  HotPool(const LubmTemplates& templates, const LubmAnchors& anchors,
          uint64_t seed);
  const std::vector<Request>& all() const { return requests_; }
  const Request& Next(sparqluo::Random& rng) const;

 private:
  std::vector<Request> requests_;
};

/// paper-embedded: all 24 Appendix-A queries (dataset 0 = LUBM, 1 = DBpedia).
std::vector<Request> PaperQueries();
/// Row counts of PaperQueries() on the full-scale datasets, in that order.
const std::vector<size_t>& PaperRowCounts();

/// lubm-rw write stream: batch k inserts 75 triples on fresh subjects and
/// deletes 25 triples inserted by earlier, still-live batches. The
/// predicate and subjects occur nowhere in LUBM, so no read template's
/// answer depends on the writes.
class WriteBatches {
 public:
  static constexpr size_t kInserts = 75;
  static constexpr size_t kDeletes = 25;
  /// Distinct `stream`s of one seed write disjoint subjects.
  WriteBatches(uint64_t seed, uint64_t stream);
  sparqluo::UpdateBatch Next();
  /// The batch as a SPARQL 1.1 Update (INSERT DATA; DELETE DATA) text.
  static std::string ToSparql(const sparqluo::UpdateBatch& batch);

 private:
  std::string subject_base_;
  uint64_t next_ = 0;
  sparqluo::Random rng_;
  std::vector<sparqluo::GroundTriple> live_;
};

}  // namespace sqbench
