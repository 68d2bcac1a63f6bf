#include "rdf/term.h"

#include <cstdlib>

#include "util/string_util.h"

namespace sparqluo {

std::string Term::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Term::AppendTo(std::string* out) const {
  const size_t old = out->size();
  out->resize(old + MaxStringSize());
  char* const begin = out->data();
  out->resize(static_cast<size_t>(WriteTo(begin + old) - begin));
}

char* Term::WriteTo(char* out) const {
  switch (kind) {
    case TermKind::kIri:
      *out++ = '<';
      out = CopyTo(lexical, out);
      *out++ = '>';
      return out;
    case TermKind::kBlank:
      return CopyTo(lexical, CopyTo("_:", out));
    case TermKind::kLiteral:
      *out++ = '"';
      out = EscapeLiteralTo(lexical, out);
      *out++ = '"';
      if (qualifier.empty()) return out;
      if (qualifier_is_lang) {
        *out++ = '@';
        return CopyTo(qualifier, out);
      }
      out = CopyTo(qualifier, CopyTo("^^<", out));
      *out++ = '>';
      return out;
  }
  return out;
}

std::string Term::CanonicalKey() const {
  // A one-byte kind tag keeps IRIs, literals and blanks disjoint even when
  // their lexical forms collide.
  std::string key;
  key.reserve(lexical.size() + qualifier.size() + 3);
  key += static_cast<char>('0' + static_cast<int>(kind));
  key += qualifier_is_lang ? '@' : '^';
  key += qualifier;
  key += '\x1f';
  key += lexical;
  return key;
}

int CompareTermsForOrdering(const Term& x, const Term& y) {
  auto numeric = [](const Term& t, double* out) {
    if (!t.is_literal()) return false;
    char* end = nullptr;
    double v = std::strtod(t.lexical.c_str(), &end);
    if (end == t.lexical.c_str() || *end != '\0') return false;
    *out = v;
    return true;
  };
  double xv, yv;
  if (numeric(x, &xv) && numeric(y, &yv)) {
    if (xv < yv) return -1;
    if (xv > yv) return 1;
    return 0;
  }
  std::string xs = x.ToString(), ys = y.ToString();
  return xs < ys ? -1 : (xs > ys ? 1 : 0);
}

Result<Term> Term::Parse(std::string_view text) {
  text = TrimString(text);
  if (text.empty())
    return Status::ParseError("empty term");
  if (text.front() == '<') {
    if (text.back() != '>')
      return Status::ParseError("unterminated IRI: " + std::string(text));
    return Term::Iri(std::string(text.substr(1, text.size() - 2)));
  }
  if (StartsWith(text, "_:")) {
    return Term::Blank(std::string(text.substr(2)));
  }
  if (text.front() == '"') {
    // Find the closing quote, honoring backslash escapes.
    size_t end = std::string_view::npos;
    for (size_t i = 1; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
        continue;
      }
      if (text[i] == '"') {
        end = i;
        break;
      }
    }
    if (end == std::string_view::npos)
      return Status::ParseError("unterminated literal: " + std::string(text));
    std::string value = UnescapeLiteral(text.substr(1, end - 1));
    std::string_view rest = text.substr(end + 1);
    if (rest.empty()) return Term::Literal(std::move(value));
    if (rest.front() == '@')
      return Term::LangLiteral(std::move(value), std::string(rest.substr(1)));
    if (StartsWith(rest, "^^<") && rest.back() == '>')
      return Term::TypedLiteral(std::move(value),
                                std::string(rest.substr(3, rest.size() - 4)));
    return Status::ParseError("malformed literal suffix: " + std::string(text));
  }
  return Status::ParseError("unrecognized term: " + std::string(text));
}

}  // namespace sparqluo
