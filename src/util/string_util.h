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

/// Copies `s` to `out` and returns the end of the copy.
char* CopyTo(std::string_view s, char* out);

/// EscapeLiteral writing through a raw pointer: writes the escaped text
/// at `out`, which has room for 2 * s.size() bytes, and returns its end.
char* EscapeLiteralTo(std::string_view s, char* out);

/// Escapes `s` as the inside of a JSON string (quote, backslash and the
/// control characters below 0x20; UTF-8 passes through) at `out`, which
/// has room for 6 * s.size() bytes, and returns the end.
char* EscapeJsonTo(std::string_view s, char* out);

/// Inverse of EscapeLiteral.
std::string UnescapeLiteral(std::string_view s);

}  // namespace sparqluo
