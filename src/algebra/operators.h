// Bag-semantics operators over BindingSets (Section 3, Definition 7).
//
// All operators preserve duplicates. Compatibility (µ1 ~ µ2) is
// domain-aware: variables absent from dom(µ) — unbound cells — are
// compatible with anything, which is what makes OPTIONAL-produced partial
// mappings join correctly.
//
// Join, LeftOuterJoin and Minus build one flat CSR table over the
// smaller side (a fanned-out Join builds one per build shard): a
// directory from each distinct join key (hashed in place from the row
// cells) to a bucket, and one row-index array holding every bucket's rows
// in build-row order. Build rows with an unbound key cell are listed
// apart. A probe row with a bound key meets its bucket's rows ascending,
// then the compatible unbound-key rows ascending; a probe row with an
// unbound key cell meets every compatible build row ascending. That order
// fixes the output row order. Every operator writes its output rows in
// place through a RowWriter: no per-row or per-key heap containers.
#pragma once

#include "algebra/binding_set.h"
#include "sparql/ast.h"
#include "util/cancellation.h"
#include "util/executor_pool.h"

namespace sparqluo {

/// Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ~ µ2 }.
///
/// `cancel` (nullable) is polled per emitted row: join output can be
/// |Ω1|·|Ω2|, so without a checkpoint here a join-dominated query could
/// overshoot its deadline without bound.
///
/// With `spec` enabled and more than a morsel of input, the hash build over
/// the smaller side is sharded across `spec.pool` and the larger side is
/// probed in independent morsels whose outputs concatenate in morsel order:
/// the output (schema and row order) is bit-identical to the one-shard,
/// one-morsel join. `morsels` (nullable) accumulates the number of
/// parallel tasks issued.
BindingSet Join(const BindingSet& a, const BindingSet& b,
                const CancelToken* cancel = nullptr,
                const ParallelSpec& spec = {}, uint64_t* morsels = nullptr);

/// Ω1 ∪_bag Ω2 over the union schema (missing columns padded unbound).
BindingSet UnionBag(const BindingSet& a, const BindingSet& b);

/// Ω1 ▷ Ω2 = { µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2 }.
BindingSet Minus(const BindingSet& a, const BindingSet& b);

/// Left outer join: (Ω1 ⋈ Ω2) ∪_bag (Ω1 ▷ Ω2). Single-pass implementation.
/// `cancel` as in Join.
BindingSet LeftOuterJoin(const BindingSet& a, const BindingSet& b,
                         const CancelToken* cancel = nullptr);

/// Keeps the mappings for which `filter` evaluates to true. Mappings on
/// which the expression errors (e.g. comparison over an unbound variable)
/// are dropped, per SPARQL error semantics.
BindingSet ApplyFilter(const BindingSet& a, const FilterExpr& filter,
                       const Dictionary& dict);

namespace internal {
/// True iff the two rows agree on every shared variable that is bound in
/// both. `cols` lists (column in a, column in b) pairs of shared variables.
bool RowsCompatible(const TermId* ra, const TermId* rb,
                    const std::vector<std::pair<size_t, size_t>>& cols);
}  // namespace internal

}  // namespace sparqluo
