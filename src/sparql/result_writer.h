// Incremental (streaming) serialization of query results in the W3C
// SPARQL 1.1 results formats: the JSON results format
// (https://www.w3.org/TR/sparql11-results-json/), TSV and CSV
// (https://www.w3.org/TR/sparql11-results-csv-tsv/), plus N-Triples for
// CONSTRUCT results.
//
// The writer emits into a caller-supplied Sink in bounded flushes: rows
// are appended to an internal buffer that is handed off whenever it
// reaches `flush_bytes`, so serializing an arbitrarily large BindingSet
// never materializes more than ~one flush worth of text at a time. The
// HTTP endpoint points the sink at a chunked-transfer connection write
// (which applies socket backpressure); the in-process writers in
// src/engine/result_writer.cc point it at an ostream — both paths share
// this code, which is what makes over-the-wire bodies bit-identical to
// in-process FormatResults output.
//
// Rows are written through a pointer into raw buffer space: WriteRow
// bounds the row's rendered size, grows the buffer at most once, then
// writes every cell in place. Cells are rendered from each term's stored
// bytes, and escaping tests eight bytes at a time, copying clean words
// whole. Each column keeps the TermId of its previous cell with that
// cell's rendered text, so a value repeated down a column (a subject
// spanning many rows, a shared type or department) costs one copy. JSON
// object keys ("name":) are rendered once, at BeginSelect.
//
// A Sink returning false aborts serialization (client disconnected, write
// stalled): every later call becomes a no-op returning false, and nothing
// further is buffered.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/binding_set.h"

namespace sparqluo {

/// Wire formats the streaming writer can produce. kNTriples serializes
/// CONSTRUCT results (three-column subject/predicate/object rows) as one
/// N-Triples statement per row; it has no header and ignores variable
/// names. kCsv is the in-process CSV output (the HTTP endpoint does not
/// negotiate it).
enum class WireFormat { kJson, kTsv, kNTriples, kCsv };

/// The SPARQL results media type for `format` (no parameters). kCsv is not
/// served, so it has none yet: application/octet-stream.
std::string_view WireFormatContentType(WireFormat format);

/// Appends `s` as a JSON string token (including the surrounding quotes),
/// escaping quotes, backslashes and control characters. UTF-8 bytes pass
/// through unmodified.
void AppendJsonString(std::string_view s, std::string* out);

class StreamingResultWriter {
 public:
  /// Receives each flushed piece of output, in order. Returns false to
  /// abort serialization (e.g. the client hung up).
  using Sink = std::function<bool(std::string_view)>;

  static constexpr size_t kDefaultFlushBytes = 64 * 1024;

  StreamingResultWriter(WireFormat format, Sink sink,
                        size_t flush_bytes = kDefaultFlushBytes);

  /// Starts a SELECT result: JSON head object / TSV or CSV header line
  /// over the result schema, named through `vars` (read only during this
  /// call). Call exactly once, before any WriteRow.
  bool BeginSelect(const std::vector<VarId>& schema, const VarTable& vars);

  /// Appends one solution mapping (`width` cells; kUnboundTerm cells are
  /// omitted in JSON and empty in TSV/CSV). Returns false once aborted.
  bool WriteRow(const TermId* row, size_t width, const Dictionary& dict);

  /// Convenience: BeginSelect + every row of `rows` + Finish.
  bool WriteAll(const BindingSet& rows, const VarTable& vars,
                const Dictionary& dict);

  /// Convenience for a CONSTRUCT result (three columns per triple): like
  /// WriteAll, with the columns named subject, predicate and object
  /// instead of the parser's hidden template variables. N-Triples output
  /// has no header, so there the names go unused.
  bool WriteTriples(const BindingSet& triples, const Dictionary& dict);

  /// Serializes an ASK result (complete on its own: do not mix with
  /// BeginSelect/WriteRow). JSON: {"head":{},"boolean":b}; otherwise a
  /// single "true"/"false" line.
  bool WriteBoolean(bool value);

  /// Closes the enclosing structure and flushes everything buffered.
  bool Finish();

  /// False once the sink rejected a flush; no further output is produced.
  bool ok() const { return !failed_; }

  size_t rows_written() const { return rows_written_; }
  /// Total bytes handed to the sink so far.
  size_t bytes_emitted() const { return bytes_emitted_; }
  /// High-water mark of the internal buffer: the bounded-memory guarantee
  /// under test — stays O(flush_bytes + one row) regardless of row count.
  size_t max_buffered() const { return max_buffered_; }

 private:
  /// Per-column render state.
  struct Column {
    std::string key;             ///< JSON `"name":`, rendered at BeginSelect.
    TermId id = kUnboundTerm;    ///< The term `cell` holds, if any.
    std::string cell;            ///< Rendered text of `id` in this format.
  };

  /// WriteAll over `schema` (named through `vars`) instead of the rows'
  /// own schema; `schema` has one entry per column of `rows`.
  bool WriteAllAs(const BindingSet& rows, const std::vector<VarId>& schema,
                  const VarTable& vars, const Dictionary& dict);
  /// Makes room for `n` more bytes and returns where they go; the caller
  /// advances size_ by what it wrote.
  char* Reserve(size_t n);
  void Append(std::string_view s);
  bool MaybeFlush();
  bool FlushAll();

  WireFormat format_;
  Sink sink_;
  size_t flush_bytes_;
  /// Output not yet handed to the sink: size_ bytes of cap_. Raw storage,
  /// so reserving a row's worst case never zero-fills it.
  std::unique_ptr<char[]> buffer_;
  size_t size_ = 0;
  size_t cap_ = 0;
  std::vector<Column> columns_;
  bool began_ = false;
  bool finished_ = false;
  bool failed_ = false;
  size_t rows_written_ = 0;
  size_t bytes_emitted_ = 0;
  size_t max_buffered_ = 0;
};

}  // namespace sparqluo
