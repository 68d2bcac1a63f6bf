#include "streams.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <regex>
#include <stdexcept>

#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sqbench {

using namespace sparqluo;

namespace {

/// Decoded first column of a one-variable SELECT.
std::vector<std::string> SelectIris(const Database& db, const std::string& text) {
  Result<BindingSet> rows = db.Query(text);
  if (!rows.ok()) throw std::runtime_error("anchor query failed: " + text);
  std::vector<std::string> out;
  out.reserve(rows->size());
  for (size_t i = 0; i < rows->size(); ++i)
    out.push_back(db.dict().Decode(rows->At(i, 0)).lexical);
  return out;
}

const char* kAnchoredIds[] = {"q1.1", "q1.2", "q1.3", "q1.4", "q1.5",
                              "q1.6", "q2.4", "q2.5", "q2.6"};
const char* kHotIds[] = {"q1.3", "q1.4", "q2.4", "q2.5", "q2.6"};

}  // namespace

LubmAnchors CollectAnchors(const Database& lubm) {
  const std::string prefix = std::string("PREFIX ub: <") + kUbPrefix + "> ";
  std::vector<std::string> assisted = SelectIris(
      lubm, prefix +
                "SELECT ?s WHERE { ?s ub:takesCourse ?c . "
                "?t ub:teachingAssistantOf ?c }");
  std::sort(assisted.begin(), assisted.end());
  LubmAnchors anchors;
  for (const std::string& iri : SelectIris(
           lubm, prefix + "SELECT ?s WHERE { ?s a ub:UndergraduateStudent }")) {
    std::array<uint32_t, 4> a{};
    a[0] = std::binary_search(assisted.begin(), assisted.end(), iri) ? 1 : 0;
    if (std::sscanf(iri.c_str(),
                    "http://www.Department%u.University%u.edu/"
                    "UndergraduateStudent%u",
                    &a[2], &a[1], &a[3]) == 3)
      anchors.students.push_back(a);
  }
  for (const std::string& iri : SelectIris(
           lubm, prefix + "SELECT ?d WHERE { ?d a ub:Department }")) {
    std::array<uint32_t, 2> a{};
    if (std::sscanf(iri.c_str(), "http://www.Department%u.University%u.edu",
                    &a[1], &a[0]) == 2)
      anchors.departments.push_back(a);
  }
  if (anchors.students.empty() || anchors.departments.empty())
    throw std::runtime_error("LUBM database has no anchors");
  std::sort(anchors.students.begin(), anchors.students.end());
  std::sort(anchors.departments.begin(), anchors.departments.end());
  return anchors;
}

LubmTemplates::LubmTemplates() {
  for (const char* id : kAnchoredIds) {
    const PaperQuery* q = FindQuery(LubmPaperQueries(), id);
    ids_.push_back(id);
    texts_.push_back(q->sparql);
    student_.push_back(q->sparql.find("UndergraduateStudent") !=
                       std::string::npos);
  }
}

Request LubmTemplates::Draw(size_t t, const LubmAnchors& anchors,
                            double x) const {
  static const std::regex kDept(R"(Department\d+\.University\d+)");
  static const std::regex kStudent(R"(UndergraduateStudent\d+)");
  uint32_t u, d, k = 0;
  if (student_[t]) {
    const auto& s = anchors.students[static_cast<size_t>(
        x * static_cast<double>(anchors.students.size()))];
    u = s[1], d = s[2], k = s[3];
  } else {
    const auto& dep = anchors.departments[static_cast<size_t>(
        x * static_cast<double>(anchors.departments.size()))];
    u = dep[0], d = dep[1];
  }
  std::string text = std::regex_replace(
      texts_[t], kDept,
      "Department" + std::to_string(d) + ".University" + std::to_string(u));
  text = std::regex_replace(text, kStudent,
                            "UndergraduateStudent" + std::to_string(k));
  return {0, ids_[t], std::move(text)};
}

void Shuffle(std::vector<size_t>* order, Random& rng) {
  for (size_t j = order->size(); j > 1; --j)
    std::swap((*order)[j - 1], (*order)[rng.Uniform(j)]);
}

DistinctStream::DistinctStream(const LubmTemplates& templates,
                               const LubmAnchors& anchors, Random rng)
    : templates_(&templates), anchors_(&anchors), rng_(rng),
      round_(templates.size()), drawn_(templates.size(), 0) {
  for (size_t t = 0; t < round_.size(); ++t) {
    round_[t] = t;
    offset_.push_back(rng_.NextDouble());
  }
}

double Weyl(double offset, uint64_t k) {
  constexpr double kGolden = 0.6180339887498949;
  double x = offset + static_cast<double>(k) * kGolden;
  return x - std::floor(x);
}

Request DistinctStream::Next() {
  if (pos_ == 0) Shuffle(&round_, rng_);
  size_t t = round_[pos_];
  pos_ = (pos_ + 1) % round_.size();
  return templates_->Draw(t, *anchors_, Weyl(offset_[t], drawn_[t]++));
}

HotPool::HotPool(const LubmTemplates& templates, const LubmAnchors& anchors,
                 uint64_t seed) {
  Random rng = SeededRandom(seed, 0x407);
  for (size_t t = 0; t < templates.size(); ++t) {
    if (std::find(std::begin(kHotIds), std::end(kHotIds), templates.id(t)) ==
        std::end(kHotIds))
      continue;
    const double offset = rng.NextDouble();
    for (size_t a = 0; a < kAnchorsPerTemplate; ++a)
      requests_.push_back(templates.Draw(t, anchors, Weyl(offset, a)));
  }
}

const Request& HotPool::Next(Random& rng) const {
  return requests_[rng.Uniform(requests_.size())];
}

std::vector<Request> PaperQueries() {
  std::vector<Request> out;
  for (const PaperQuery& q : LubmPaperQueries())
    out.push_back({0, "lubm." + q.id, q.sparql});
  for (const PaperQuery& q : DbpediaPaperQueries())
    out.push_back({1, "dbpedia." + q.id, q.sparql});
  return out;
}

const std::vector<size_t>& PaperRowCounts() {
  static const std::vector<size_t> kCounts = {
      // LUBM(13), seed 42: q1.1-q1.6, q2.1-q2.6.
      40145, 127737, 31, 533, 2844, 4865, 648, 719, 674, 9, 8, 8,
      // DBpedia-like, 30k articles, seed 7: q1.1-q1.6, q2.1-q2.6.
      122, 1818, 1, 810, 12653, 104, 1500, 219, 134, 150, 15516, 5400};
  return kCounts;
}

WriteBatches::WriteBatches(uint64_t seed, uint64_t stream)
    : subject_base_("http://bench.sparqluo.example/w/" + std::to_string(seed) +
                    "/" + std::to_string(stream) + "/"),
      rng_(SeededRandom(seed, 0x3717e + stream)) {}

UpdateBatch WriteBatches::Next() {
  const uint64_t k = next_++;
  UpdateBatch batch;
  const std::string base = subject_base_ + std::to_string(k) + "/";
  const Term predicate = Term::Iri("http://bench.sparqluo.example/p/value");
  std::vector<GroundTriple> fresh;
  for (size_t i = 0; i < kInserts; ++i) {
    GroundTriple t{Term::Iri(base + std::to_string(i)), predicate,
                   Term::Literal(std::to_string(k) + "." + std::to_string(i))};
    batch.Insert(t.s, t.p, t.o);
    fresh.push_back(std::move(t));
  }
  for (size_t i = 0; i < kDeletes && !live_.empty(); ++i) {
    size_t victim = rng_.Uniform(live_.size());
    batch.Delete(live_[victim].s, live_[victim].p, live_[victim].o);
    live_[victim] = std::move(live_.back());
    live_.pop_back();
  }
  for (GroundTriple& t : fresh) live_.push_back(std::move(t));
  return batch;
}

std::string WriteBatches::ToSparql(const UpdateBatch& batch) {
  // The generated terms need no escaping: IRIs and literals are made of
  // URL-safe characters and digits only.
  std::string inserts, deletes;
  for (const UpdateOp& op : batch.ops) {
    std::string& out = op.kind == UpdateOp::Kind::kInsert ? inserts : deletes;
    out += "<" + op.triple.s.lexical + "> <" + op.triple.p.lexical + "> \"" +
           op.triple.o.lexical + "\" .\n";
  }
  std::string text = "INSERT DATA {\n" + inserts + "}";
  if (!deletes.empty()) text += " ;\nDELETE DATA {\n" + deletes + "}";
  return text;
}

}  // namespace sqbench
