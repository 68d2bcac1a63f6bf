// RDF terms: IRIs, literals and blank nodes (Definition 1 of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace sparqluo {

/// Dense dictionary id of an RDF term. Ids are assigned in insertion order
/// starting at 0. kInvalidTermId doubles as the UNBOUND marker in bindings.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = UINT32_MAX;

/// The three RDF term kinds of Definition 1 (I, L, B).
enum class TermKind : uint8_t { kIri = 0, kLiteral = 1, kBlank = 2 };

/// A decoded RDF term.
///
/// Literals keep their language tag or datatype IRI in `qualifier`
/// (exactly one of the two may be non-empty; `qualifier_is_lang` says which).
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;          ///< IRI string, literal value, or blank label.
  std::string qualifier;        ///< Language tag or datatype IRI for literals.
  bool qualifier_is_lang = false;

  static Term Iri(std::string iri) {
    Term t;
    t.kind = TermKind::kIri;
    t.lexical = std::move(iri);
    return t;
  }
  static Term Literal(std::string value) {
    Term t;
    t.kind = TermKind::kLiteral;
    t.lexical = std::move(value);
    return t;
  }
  static Term LangLiteral(std::string value, std::string lang) {
    Term t = Literal(std::move(value));
    t.qualifier = std::move(lang);
    t.qualifier_is_lang = true;
    return t;
  }
  static Term TypedLiteral(std::string value, std::string datatype) {
    Term t = Literal(std::move(value));
    t.qualifier = std::move(datatype);
    t.qualifier_is_lang = false;
    return t;
  }
  static Term Blank(std::string label) {
    Term t;
    t.kind = TermKind::kBlank;
    t.lexical = std::move(label);
    return t;
  }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           qualifier == other.qualifier &&
           qualifier_is_lang == other.qualifier_is_lang;
  }

  /// N-Triples / SPARQL surface form: `<iri>`, `"lit"@en`, `"5"^^<dt>`, `_:b`.
  std::string ToString() const;

  /// Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;

  /// Room WriteTo needs: an upper bound of ToString().size().
  size_t MaxStringSize() const {
    return 6 + 2 * lexical.size() + qualifier.size();
  }

  /// Writes ToString()'s text at `out`, which has MaxStringSize() bytes of
  /// room, and returns its end.
  char* WriteTo(char* out) const;

  /// Canonical dictionary key; injective over all well-formed terms.
  std::string CanonicalKey() const;

  /// Parses a term from its N-Triples surface form.
  static Result<Term> Parse(std::string_view text);
};

/// Total order over terms for ORDER BY and FILTER comparisons: numeric when
/// both sides are numeric literals, otherwise by surface form. Returns
/// <0, 0 or >0.
int CompareTermsForOrdering(const Term& x, const Term& y);

/// A dictionary-encoded triple (s, p, o).
struct Triple {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  Triple() = default;
  Triple(TermId s_, TermId p_, TermId o_) : s(s_), p(p_), o(o_) {}

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

}  // namespace sparqluo
