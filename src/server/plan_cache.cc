#include "server/plan_cache.h"

#include <cctype>
#include <string>

namespace sparqluo {

std::string PlanCache::NormalizeQuery(const std::string& text) {
  // Mirrors the lexer's skipping rules (src/sparql/lexer.cc): `#` starts a
  // comment to end of line — but only outside string literals and outside
  // IRI refs (a `<` that closes with `>` before whitespace/quote/braces is
  // consumed as one token, so a `#` inside it is part of the IRI). Getting
  // this wrong would let queries that differ only in where a comment ends
  // (or in an IRI fragment) share a cache key and serve each other's plans.
  std::string out;
  out.reserve(text.size());
  char quote = '\0';  // inside a "..." or '...' literal when non-zero
  bool pending_space = false;
  auto emit = [&](char c) {
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (quote != '\0') {
      out.push_back(c);
      if (c == '\\' && i + 1 < text.size()) {
        out.push_back(text[++i]);
      } else if (c == quote) {
        quote = '\0';
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      emit(c);
      quote = c;
      continue;
    }
    if (c == '#') {  // comment: acts as whitespace to end of line
      while (i + 1 < text.size() && text[i + 1] != '\n') ++i;
      pending_space = true;
      continue;
    }
    if (c == '<') {
      // IRI ref iff it closes before any whitespace/quote/brace.
      size_t j = i + 1;
      bool iri = false;
      while (j < text.size()) {
        char d = text[j];
        if (d == '>') {
          iri = true;
          break;
        }
        if (d == ' ' || d == '\t' || d == '\n' || d == '\r' || d == '"' ||
            d == '{' || d == '}')
          break;
        ++j;
      }
      if (iri) {
        emit(c);
        while (++i <= j) out.push_back(text[i]);
        i = j;
        continue;
      }
      emit(c);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    emit(c);
  }
  return out;
}

namespace {

/// First standalone query-form keyword in normalized text, as a tag char:
/// 'S' SELECT, 'A' ASK, 'C' CONSTRUCT, '?' none found. Case-insensitive,
/// word-boundary matched so IRIs or literal content containing the letters
/// don't trigger.
char QueryFormTag(const std::string& normalized) {
  auto word_at = [&](size_t pos, const char* word, size_t len) {
    if (pos + len > normalized.size()) return false;
    for (size_t i = 0; i < len; ++i) {
      if (std::toupper(static_cast<unsigned char>(normalized[pos + i])) !=
          word[i])
        return false;
    }
    bool start_ok = pos == 0 || !std::isalnum(static_cast<unsigned char>(
                                    normalized[pos - 1]));
    bool end_ok = pos + len >= normalized.size() ||
                  !std::isalnum(static_cast<unsigned char>(
                      normalized[pos + len]));
    return start_ok && end_ok;
  };
  char quote = '\0';
  for (size_t i = 0; i < normalized.size(); ++i) {
    char c = normalized[i];
    if (quote != '\0') {
      if (c == '\\') ++i;
      else if (c == quote) quote = '\0';
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      continue;
    }
    if (c == '<') {  // IRI ref: skip to '>'
      size_t end = normalized.find('>', i);
      if (end != std::string::npos) i = end;
      continue;
    }
    if (word_at(i, "SELECT", 6)) return 'S';
    if (word_at(i, "ASK", 3)) return 'A';
    if (word_at(i, "CONSTRUCT", 9)) return 'C';
  }
  return '?';
}

}  // namespace

std::string PlanCache::MakeKey(const std::string& text,
                               const ExecOptions& options,
                               uint64_t version) {
  // Only the fields consulted by Executor::Plan participate: the transform
  // toggle and the pruning toggle, which both gates skip_cp_equivalent_levels
  // and makes every group lead its join runs with the smallest child.
  // Execution-time knobs (thresholds, row limits, cancel tokens) do not
  // change the plan, so requests differing only in those share an entry.
  // The version suffix partitions entries per committed DatabaseVersion.
  //
  // The leading form tag partitions entries by query form (SELECT / ASK /
  // CONSTRUCT) explicitly rather than relying on the form keyword's
  // presence in the normalized text, so a CONSTRUCT and a SELECT that ever
  // normalize to related text can never serve each other's plans.
  std::string normalized = NormalizeQuery(text);
  std::string key;
  key.reserve(normalized.size() + 16);
  key.push_back(QueryFormTag(normalized));
  key.push_back('\x1f');
  key += normalized;
  key.push_back('\x1f');
  key.push_back(options.tree_transform ? 'T' : 't');
  key.push_back(options.candidate_pruning ? 'C' : 'c');
  key.push_back('\x1f');
  key += std::to_string(version);
  return key;
}

}  // namespace sparqluo
