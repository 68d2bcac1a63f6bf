// Small string helpers shared by the parser, serializers and generators.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sparqluo {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimString(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Escapes a literal's characters for N-Triples / SPARQL output
/// (backslash, quote, newline, tab, carriage return).
std::string EscapeLiteral(std::string_view s);

/// EscapeLiteral appending to `out`; runs that need no escaping are
/// appended whole.
void AppendEscapedLiteral(std::string_view s, std::string* out);

/// Inverse of EscapeLiteral.
std::string UnescapeLiteral(std::string_view s);

}  // namespace sparqluo
