// Abstract syntax tree for SPARQL-UO queries (Definitions 2 and 6).
//
// A query's WHERE clause is a GroupGraphPattern: an ordered sequence of
// elements combined left-to-right by implicit AND, where each element is a
// triple pattern, a nested group, a UNION of groups, an OPTIONAL group, or a
// FILTER. This mirrors the SPARQL surface syntax one-to-one, which the
// BE-tree construction (src/betree) relies on, except that the parser puts
// a group's FILTERs after its other elements: a FILTER applies to its whole
// group (SPARQL 1.1 §18.2.2), wherever it is written.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace sparqluo {

/// Dense per-query variable id.
using VarId = uint32_t;
inline constexpr VarId kInvalidVarId = UINT32_MAX;

/// Per-query variable name table.
class VarTable {
 public:
  /// Returns the id for `name`, creating it on first sight.
  VarId Intern(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    VarId id = static_cast<VarId>(names_.size());
    index_.emplace(name, id);
    names_.push_back(name);
    return id;
  }

  /// Id of `name` or kInvalidVarId when unknown. Never inserts.
  VarId Lookup(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? kInvalidVarId : it->second;
  }

  const std::string& Name(VarId id) const { return names_[id]; }
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, VarId> index_;
};

/// One position of a triple pattern: a variable or a constant term.
struct PatternSlot {
  bool is_var = false;
  VarId var = kInvalidVarId;
  Term term;

  static PatternSlot Var(VarId v) {
    PatternSlot s;
    s.is_var = true;
    s.var = v;
    return s;
  }
  static PatternSlot Const(Term t) {
    PatternSlot s;
    s.is_var = false;
    s.term = std::move(t);
    return s;
  }

  bool operator==(const PatternSlot& other) const {
    if (is_var != other.is_var) return false;
    return is_var ? var == other.var : term == other.term;
  }
};

/// A triple pattern (Definition 2).
struct TriplePattern {
  PatternSlot s, p, o;

  /// var(t): all variables occurring in the pattern.
  std::vector<VarId> Variables() const;

  /// Variables at subject/object positions only — the positions that decide
  /// coalescability (Definition 3).
  std::vector<VarId> SubjectObjectVariables() const;

  bool operator==(const TriplePattern& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// True iff t1 and t2 share a variable at subject/object positions (Def. 3).
bool Coalescable(const TriplePattern& t1, const TriplePattern& t2);

/// Minimal FILTER expression tree: comparisons over variables/constants,
/// boolean connectives and BOUND().
struct FilterExpr {
  enum class Op {
    kEq, kNeq, kLt, kGt, kLe, kGe,  // binary comparisons over operands
    kAnd, kOr, kNot,                // boolean connectives over children
    kBound,                         // BOUND(?var)
  };
  Op op = Op::kEq;
  // Comparison operands (used when op is a comparison or kBound).
  PatternSlot lhs, rhs;
  std::vector<FilterExpr> children;
};

/// A property path expression. `/` and `|` are desugared at parse time
/// (sequence -> hidden-variable chain, alternative -> UNION), so only the
/// closure operators `*` and `+` survive into the algebra, where they wrap
/// an arbitrary nested path expression evaluated by iterative reachability
/// (src/engine/path_eval).
struct PathExpr {
  enum class Kind {
    kLink,  ///< a single IRI step (iri holds the predicate)
    kSeq,   ///< children evaluated left-to-right
    kAlt,   ///< union of children
    kStar,  ///< zero-or-more of children[0]
    kPlus,  ///< one-or-more of children[0]
  };
  Kind kind = Kind::kLink;
  Term iri;                        ///< kLink
  std::vector<PathExpr> children;  ///< kSeq/kAlt: 1+; kStar/kPlus: 1
};

/// A subject/object pattern connected by a closure path (`*` or `+`).
struct PathPattern {
  PatternSlot subject;
  PathExpr path;
  PatternSlot object;
};

struct GroupGraphPattern;

/// One element of a group graph pattern.
struct PatternElement {
  enum class Kind { kTriple, kGroup, kUnion, kOptional, kFilter, kPath };
  Kind kind = Kind::kTriple;
  TriplePattern triple;                  ///< kTriple
  std::vector<GroupGraphPattern> groups; ///< kGroup: 1; kUnion: 2+; kOptional: 1
  FilterExpr filter;                     ///< kFilter
  PathPattern path;                      ///< kPath
};

/// A group graph pattern `{ e1 . e2 . ... }` (Definition 6).
struct GroupGraphPattern {
  std::vector<PatternElement> elements;
};

/// Query forms supported by the engine. (The paper's scope is SELECT; ASK
/// and CONSTRUCT are the natural variants over the same evaluation.)
enum class QueryForm { kSelect, kAsk, kConstruct };

/// One ORDER BY key.
struct OrderKey {
  VarId var = kInvalidVarId;
  bool ascending = true;
};

/// Aggregate functions over a group.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// One `(AGG(?in) AS ?out)` projection item.
struct AggregateSpec {
  AggFunc func = AggFunc::kCount;
  bool distinct = false;    ///< AGG(DISTINCT ?in)
  bool count_star = false;  ///< COUNT(*): counts rows, `input` unused
  VarId input = kInvalidVarId;
  VarId output = kInvalidVarId;
};

/// A parsed SELECT, ASK or CONSTRUCT query with its solution modifiers.
struct Query {
  VarTable vars;
  QueryForm form = QueryForm::kSelect;
  bool distinct = false;
  /// Empty projection means SELECT * (also the paper's bare `SELECT WHERE`).
  std::vector<VarId> projection;
  GroupGraphPattern where;
  std::vector<OrderKey> order_by;
  size_t limit = SIZE_MAX;
  size_t offset = 0;
  /// GROUP BY keys, in surface order. Aggregation is active iff
  /// `!group_by.empty() || !aggregates.empty()` (an aggregate with no
  /// GROUP BY makes the whole solution set one implicit group).
  std::vector<VarId> group_by;
  std::vector<AggregateSpec> aggregates;
  /// kConstruct only: the template instantiated per solution, and the
  /// three synthetic output columns the executor emits triples under
  /// (hidden names ".cs"/".cp"/".co" interned by the parser — '.' cannot
  /// occur in surface variable names, so they never collide).
  std::vector<TriplePattern> construct_template;
  VarId construct_s = kInvalidVarId;
  VarId construct_p = kInvalidVarId;
  VarId construct_o = kInvalidVarId;
};

/// Collects every variable mentioned anywhere under `g` into `out`
/// (deduplicated, in first-occurrence order).
void CollectVariables(const GroupGraphPattern& g, std::vector<VarId>* out);

/// Serializes back to SPARQL surface syntax.
std::string ToString(const TriplePattern& t, const VarTable& vars);
std::string ToString(const GroupGraphPattern& g, const VarTable& vars,
                     int indent = 0);
std::string ToString(const Query& q);

}  // namespace sparqluo
