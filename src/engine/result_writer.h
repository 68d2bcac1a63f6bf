// In-process query-result serialization in the W3C SPARQL 1.1 results
// formats: CSV, TSV (https://www.w3.org/TR/sparql11-results-csv-tsv/), the
// JSON results format (https://www.w3.org/TR/sparql11-results-json/) and
// N-Triples for CONSTRUCT results. Every format goes through the streaming
// writer in src/sparql/result_writer.h, the serializer the HTTP endpoint
// also streams through, so in-process output and over-the-wire bodies are
// bit-identical by construction.
#pragma once

#include <iosfwd>
#include <string>

#include "algebra/binding_set.h"
#include "sparql/result_writer.h"

namespace sparqluo {

/// The in-process result formats are the streaming writer's formats:
///   kCsv       header of variable names, values in plain form (IRIs bare,
///              literals unquoted unless they need escaping), CRLF rows;
///   kTsv       header of ?-prefixed variables, values in their N-Triples
///              surface form;
///   kJson      {"head":{"vars":[...]},"results":{"bindings":[...]}};
///   kNTriples  one statement per row (CONSTRUCT results: three
///              subject/predicate/object columns), no header.
/// Unbound cells are empty (omitted in JSON).
using ResultFormat = WireFormat;

/// Writes `rows` in `format` to `out` as it is produced, one flush of the
/// streaming writer at a time: the answer is never held whole in memory.
void WriteResults(const BindingSet& rows, const VarTable& vars,
                  const Dictionary& dict, ResultFormat format,
                  std::ostream& out);

/// Convenience: renders `rows` in `format` into a string.
std::string FormatResults(const BindingSet& rows, const VarTable& vars,
                          const Dictionary& dict, ResultFormat format);

/// WriteResults for a CONSTRUCT answer: the bindings formats name its
/// three columns subject, predicate and object, as the HTTP endpoint does
/// (StreamingResultWriter::WriteTriples).
void WriteConstructResults(const BindingSet& triples, const Dictionary& dict,
                           ResultFormat format, std::ostream& out);

}  // namespace sparqluo
