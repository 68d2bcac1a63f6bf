// Seeded property test of the bag operators' row output: Join,
// LeftOuterJoin, Minus and Join with a ParallelSpec (parallelism 1/2/8
// with morsels of 1/64 rows) over random BindingSets with 0-3 shared
// columns, unbound cells on either side, duplicate keys, zero-width and
// empty sides, and either side the larger. Each result must equal a
// nested-loop reference row for row: same schema, same cells, same order.
//
// The reference spells out the operators' order contract. The smaller
// side is the build side (a on ties), the other side is streamed in row
// order, and a streamed row meets the build rows it is compatible with:
//   - every build row, ascending, when no column is shared or the
//     streamed row leaves a shared cell unbound;
//   - otherwise the build rows whose shared cells are all bound (equal
//     keys), ascending, then those with an unbound shared cell, ascending.
// A merged row is a's row with its unbound shared cells taken from b,
// followed by b's other columns.
//
// Every case is replayable: the seed derives from SPARQLUO_OPS_SEED
// (default below) and each failure names its seed, so a divergence
// reproduces with
//   SPARQLUO_OPS_SEED=<seed> ./operators_property_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "util/executor_pool.h"
#include "util/random.h"

namespace sparqluo {
namespace {

constexpr uint64_t kDefaultSeed = 0x0b5eed5ULL;
constexpr int kIterations = 3000;

uint64_t BaseSeed() {
  const char* env = std::getenv("SPARQLUO_OPS_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 0);
  return kDefaultSeed;
}

/// A random bag over `schema`: values from a small domain (so keys repeat)
/// and, with probability `unbound`, unbound cells.
BindingSet RandomBag(Random* rng, std::vector<VarId> schema, size_t rows,
                     double unbound) {
  BindingSet b(std::move(schema));
  if (b.width() == 0) {
    b.AppendEmptyMappings(rows);
    return b;
  }
  const uint64_t domain = rng->Range(1, 6);
  std::vector<TermId> row(b.width());
  for (size_t r = 0; r < rows; ++r) {
    for (TermId& cell : row)
      cell = rng->Bernoulli(unbound) ? kUnboundTerm
                                     : static_cast<TermId>(rng->Uniform(domain));
    b.AppendRow(row.data());
  }
  return b;
}

/// (column in x, column in y) for every variable x and y share.
std::vector<std::pair<size_t, size_t>> Shared(const BindingSet& x,
                                              const BindingSet& y) {
  std::vector<std::pair<size_t, size_t>> cols;
  for (size_t i = 0; i < x.width(); ++i) {
    const size_t j = y.ColumnOf(x.schema()[i]);
    if (j != SIZE_MAX) cols.emplace_back(i, j);
  }
  return cols;
}

bool Compatible(const TermId* rx, const TermId* ry,
                const std::vector<std::pair<size_t, size_t>>& shared) {
  for (const auto& [cx, cy] : shared)
    if (rx[cx] != kUnboundTerm && ry[cy] != kUnboundTerm && rx[cx] != ry[cy])
      return false;
  return true;
}

/// The rows of `build` that streamed row `s` meets, in contract order.
std::vector<size_t> Meets(const BindingSet& stream, size_t s,
                          const BindingSet& build) {
  const auto shared = Shared(stream, build);
  const TermId* rs = stream.Row(s);
  bool key_bound = !shared.empty();
  for (const auto& [cs, cb] : shared)
    if (rs[cs] == kUnboundTerm) key_bound = false;
  std::vector<size_t> keyed, partial;
  for (size_t r = 0; r < build.size(); ++r) {
    const TermId* rb = build.Row(r);
    if (!Compatible(rs, rb, shared)) continue;
    bool build_bound = true;
    for (const auto& [cs, cb] : shared)
      if (rb[cb] == kUnboundTerm) build_bound = false;
    (!key_bound || build_bound ? keyed : partial).push_back(r);
  }
  keyed.insert(keyed.end(), partial.begin(), partial.end());
  return keyed;
}

std::vector<VarId> MergedSchema(const BindingSet& a, const BindingSet& b) {
  std::vector<VarId> schema = a.schema();
  for (VarId v : b.schema())
    if (a.ColumnOf(v) == SIZE_MAX) schema.push_back(v);
  return schema;
}

/// µa ∪ µb over MergedSchema(a, b).
std::vector<TermId> Merge(const BindingSet& a, size_t ra, const BindingSet& b,
                          size_t rb) {
  std::vector<TermId> row(a.Row(ra), a.Row(ra) + a.width());
  for (size_t j = 0; j < b.width(); ++j) {
    const size_t i = a.ColumnOf(b.schema()[j]);
    if (i == SIZE_MAX) {
      row.push_back(b.Row(rb)[j]);
    } else if (row[i] == kUnboundTerm) {
      row[i] = b.Row(rb)[j];
    }
  }
  return row;
}

/// µa alone over MergedSchema(a, b): b's other columns unbound.
std::vector<TermId> Pad(const BindingSet& a, size_t ra, const BindingSet& b) {
  std::vector<TermId> row(a.Row(ra), a.Row(ra) + a.width());
  row.resize(MergedSchema(a, b).size(), kUnboundTerm);
  return row;
}

void Emit(BindingSet* out, const std::vector<TermId>& row) {
  out->AppendRow(row.data());
}

/// Join (and, with `left`, LeftOuterJoin) by nested loops in contract order.
BindingSet RefJoin(const BindingSet& a, const BindingSet& b, bool left) {
  BindingSet out(MergedSchema(a, b));
  if (a.empty() || (!left && b.empty())) return out;
  if (left && b.empty()) {
    for (size_t ra = 0; ra < a.size(); ++ra) Emit(&out, Pad(a, ra, b));
    return out;
  }
  if (b.width() == 0 || (!left && a.width() == 0)) {
    // Every pair is compatible and a zero-width side adds only
    // multiplicity: pairs in a-major order. (A left join with a zero-width
    // a takes the general path below: no shared column, every row meets.)
    for (size_t ra = 0; ra < a.size(); ++ra)
      for (size_t rb = 0; rb < b.size(); ++rb) Emit(&out, Merge(a, ra, b, rb));
    return out;
  }
  if (a.size() <= b.size()) {
    std::vector<bool> matched(a.size(), false);
    for (size_t rb = 0; rb < b.size(); ++rb)
      for (size_t ra : Meets(b, rb, a)) {
        matched[ra] = true;
        Emit(&out, Merge(a, ra, b, rb));
      }
    if (left)
      for (size_t ra = 0; ra < a.size(); ++ra)
        if (!matched[ra]) Emit(&out, Pad(a, ra, b));
    return out;
  }
  for (size_t ra = 0; ra < a.size(); ++ra) {
    const std::vector<size_t> rbs = Meets(a, ra, b);
    for (size_t rb : rbs) Emit(&out, Merge(a, ra, b, rb));
    if (left && rbs.empty()) Emit(&out, Pad(a, ra, b));
  }
  return out;
}

/// a's rows, in order, that no b-row is compatible with. Without a shared
/// column every b-row is compatible with every a-row.
BindingSet RefMinus(const BindingSet& a, const BindingSet& b) {
  BindingSet out(a.schema());
  const auto shared = Shared(a, b);
  for (size_t ra = 0; ra < a.size(); ++ra) {
    bool any = false;
    for (size_t rb = 0; rb < b.size() && !any; ++rb)
      any = shared.empty() || Compatible(a.Row(ra), b.Row(rb), shared);
    if (!any) out.AppendRow(a.Row(ra));
  }
  return out;
}

/// Schema, row count and every cell in order.
::testing::AssertionResult SameRows(const BindingSet& got,
                                    const BindingSet& want) {
  if (got.schema() != want.schema())
    return ::testing::AssertionFailure() << "schemas differ";
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " rows, want " << want.size();
  for (size_t r = 0; r < got.size(); ++r)
    for (size_t c = 0; c < got.width(); ++c)
      if (got.At(r, c) != want.At(r, c))
        return ::testing::AssertionFailure()
               << "row " << r << " column " << c << ": " << got.At(r, c)
               << ", want " << want.At(r, c);
  return ::testing::AssertionSuccess();
}

class OperatorsPropertyTest : public ::testing::Test {
 protected:
  ExecutorPool pool_{3};
};

TEST_F(OperatorsPropertyTest, OperatorsMatchNestedLoopReferenceRowForRow) {
  const uint64_t base = BaseSeed();
  for (int it = 0; it < kIterations; ++it) {
    const uint64_t seed = base + static_cast<uint64_t>(it);
    SCOPED_TRACE("SPARQLUO_OPS_SEED=" + std::to_string(seed));
    Random rng(seed);
    // Variables 0..2 may be shared; each side adds up to two of its own.
    const size_t shared = rng.Range(0, 3);
    std::vector<VarId> sa, sb;
    for (VarId v = 0; v < shared; ++v) {
      sa.push_back(v);
      sb.push_back(v);
    }
    for (size_t k = rng.Range(0, 2); k > 0; --k) sa.push_back(10 + k);
    for (size_t k = rng.Range(0, 2); k > 0; --k) sb.push_back(20 + k);
    // Shuffle column order so shared columns sit at different positions.
    for (std::vector<VarId>* s : {&sa, &sb})
      for (size_t i = s->size(); i > 1; --i)
        std::swap((*s)[i - 1], (*s)[rng.Uniform(i)]);
    // Sizes up to 150 rows: past the 64-row morsel so Join fans out.
    const size_t na = rng.Bernoulli(0.1) ? 0 : rng.Range(1, 150);
    const size_t nb = rng.Bernoulli(0.1) ? 0 : rng.Range(1, 150);
    const BindingSet a = RandomBag(&rng, sa, na, rng.Bernoulli(0.5) ? 0.2 : 0);
    const BindingSet b = RandomBag(&rng, sb, nb, rng.Bernoulli(0.5) ? 0.2 : 0);

    const BindingSet join = RefJoin(a, b, false);
    ASSERT_TRUE(SameRows(Join(a, b), join)) << "Join";
    ASSERT_TRUE(SameRows(LeftOuterJoin(a, b), RefJoin(a, b, true)))
        << "LeftOuterJoin";
    ASSERT_TRUE(SameRows(Minus(a, b), RefMinus(a, b))) << "Minus";
    for (size_t parallelism : {1, 2, 8}) {
      for (size_t morsel : {1, 64}) {
        ParallelSpec spec;
        spec.pool = &pool_;
        spec.parallelism = parallelism;
        spec.morsel_size = morsel;
        ASSERT_TRUE(SameRows(Join(a, b, nullptr, spec), join))
            << "Join parallelism=" << parallelism
            << " morsel=" << morsel;
      }
    }
  }
}

}  // namespace
}  // namespace sparqluo
