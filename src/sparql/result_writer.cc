#include "sparql/result_writer.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace sparqluo {

namespace {

/// Writes `s` as a JSON string token, quotes included. Room: 2 + 6 * size.
char* WriteJsonString(std::string_view s, char* out) {
  *out++ = '"';
  out = EscapeJsonTo(s, out);
  *out++ = '"';
  return out;
}

/// One cell of a JSON binding: {"type":…,"value":…[,"xml:lang"|"datatype":…]}.
char* WriteJsonCell(const Term& term, char* out) {
  switch (term.kind) {
    case TermKind::kIri:
      out = CopyTo("{\"type\":\"uri\",\"value\":", out);
      break;
    case TermKind::kLiteral:
      out = CopyTo("{\"type\":\"literal\",\"value\":", out);
      break;
    case TermKind::kBlank:
      out = CopyTo("{\"type\":\"bnode\",\"value\":", out);
      break;
  }
  out = WriteJsonString(term.lexical, out);
  if (term.is_literal() && !term.qualifier.empty()) {
    out = CopyTo(
        term.qualifier_is_lang ? ",\"xml:lang\":" : ",\"datatype\":", out);
    out = WriteJsonString(term.qualifier, out);
  }
  *out++ = '}';
  return out;
}

/// A CSV cell: the plain value (IRIs and literal values bare, blank nodes
/// as _:label), quoted with embedded quotes doubled when it holds a comma,
/// quote or line break.
char* WriteCsvCell(const Term& term, char* out) {
  const std::string_view value = term.lexical;
  const bool quote = value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (quote) *out++ = '"';
  if (term.is_blank()) out = CopyTo("_:", out);
  if (!quote) return CopyTo(value, out);
  for (char c : value) {
    if (c == '"') *out++ = '"';
    *out++ = c;
  }
  *out++ = '"';
  return out;
}

/// Room WriteCell needs for `term`.
size_t CellBound(WireFormat format, const Term& term) {
  switch (format) {
    case WireFormat::kJson:  // fixed text ≤ 43 bytes; escapes ≤ 6×
      return 48 + 6 * (term.lexical.size() + term.qualifier.size());
    case WireFormat::kTsv:
    case WireFormat::kNTriples: return term.MaxStringSize();
    case WireFormat::kCsv: return 4 + 2 * term.lexical.size();
  }
  return 0;
}

char* WriteCell(WireFormat format, const Term& term, char* out) {
  switch (format) {
    case WireFormat::kJson: return WriteJsonCell(term, out);
    case WireFormat::kTsv:
    case WireFormat::kNTriples: return term.WriteTo(out);
    case WireFormat::kCsv: return WriteCsvCell(term, out);
  }
  return out;
}

/// Cell separator of the row formats (JSON separates bound cells only).
char CellSeparator(WireFormat format) {
  switch (format) {
    case WireFormat::kCsv: return ',';
    case WireFormat::kNTriples: return ' ';
    default: return '\t';
  }
}

/// At most 3 bytes.
std::string_view RowEnd(WireFormat format) {
  switch (format) {
    case WireFormat::kJson: return "}";
    case WireFormat::kNTriples: return " .\n";
    case WireFormat::kCsv: return "\r\n";
    case WireFormat::kTsv: return "\n";
  }
  return "\n";
}

}  // namespace

std::string_view WireFormatContentType(WireFormat format) {
  switch (format) {
    case WireFormat::kJson: return "application/sparql-results+json";
    case WireFormat::kTsv: return "text/tab-separated-values";
    case WireFormat::kNTriples: return "application/n-triples";
    case WireFormat::kCsv: break;  // in-process only: HTTP does not serve CSV
  }
  return "application/octet-stream";
}

void AppendJsonString(std::string_view s, std::string* out) {
  const size_t old = out->size();
  out->resize(old + 2 + 6 * s.size());
  char* const begin = out->data();
  out->resize(static_cast<size_t>(WriteJsonString(s, begin + old) - begin));
}

StreamingResultWriter::StreamingResultWriter(WireFormat format, Sink sink,
                                             size_t flush_bytes)
    : format_(format),
      sink_(std::move(sink)),
      flush_bytes_(flush_bytes == 0 ? 1 : flush_bytes) {}

char* StreamingResultWriter::Reserve(size_t n) {
  if (cap_ - size_ < n) {
    const size_t cap = std::max(2 * cap_, size_ + n);
    auto grown = std::make_unique_for_overwrite<char[]>(cap);
    if (size_ > 0) std::memcpy(grown.get(), buffer_.get(), size_);
    buffer_ = std::move(grown);
    cap_ = cap;
  }
  return buffer_.get() + size_;
}

void StreamingResultWriter::Append(std::string_view s) {
  CopyTo(s, Reserve(s.size()));
  size_ += s.size();
}

bool StreamingResultWriter::MaybeFlush() {
  if (size_ > max_buffered_) max_buffered_ = size_;
  if (size_ < flush_bytes_) return !failed_;
  return FlushAll();
}

bool StreamingResultWriter::FlushAll() {
  if (failed_) return false;
  if (size_ > max_buffered_) max_buffered_ = size_;
  if (size_ == 0) return true;
  bytes_emitted_ += size_;
  const bool accepted = sink_(std::string_view(buffer_.get(), size_));
  size_ = 0;
  if (!accepted) failed_ = true;
  return accepted;
}

bool StreamingResultWriter::BeginSelect(const std::vector<VarId>& schema,
                                        const VarTable& vars) {
  if (failed_ || began_) return !failed_;
  began_ = true;
  columns_.assign(schema.size(), Column{});
  if (format_ == WireFormat::kJson) {
    Append("{\"head\":{\"vars\":[");
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) Append(",");
      std::string& key = columns_[c].key;
      AppendJsonString(vars.Name(schema[c]), &key);
      Append(key);
      key += ':';
    }
    Append("]},\"results\":{\"bindings\":[");
  } else if (format_ != WireFormat::kNTriples) {
    // TSV names carry their '?'; CSV names are bare.
    const char separator = CellSeparator(format_);
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) Append(std::string_view(&separator, 1));
      if (format_ == WireFormat::kTsv) Append("?");
      Append(vars.Name(schema[c]));
    }
    Append(RowEnd(format_));
  }
  // kNTriples: statements only, no header.
  return MaybeFlush();
}

bool StreamingResultWriter::WriteRow(const TermId* row, size_t width,
                                     const Dictionary& dict) {
  if (failed_) return false;
  if (columns_.size() < width) columns_.resize(width);
  // Bound the row: a separator per cell, ",{" and a row end of at most 3
  // bytes, and per bound cell its key plus its cached text or the room a
  // fresh rendering needs.
  size_t bound = width + 5;
  for (size_t c = 0; c < width; ++c) {
    const TermId id = row[c];
    if (id == kUnboundTerm) continue;
    const Column& col = columns_[c];
    bound += col.key.size();
    bound += col.id == id ? col.cell.size()
                          : CellBound(format_, dict.Decode(id));
  }
  char* const begin = Reserve(bound);
  char* out = begin;
  const bool json = format_ == WireFormat::kJson;
  if (json) {
    if (rows_written_ > 0) *out++ = ',';
    *out++ = '{';
  }
  bool first = true;
  for (size_t c = 0; c < width; ++c) {
    const TermId id = row[c];
    if (json) {
      if (id == kUnboundTerm) continue;  // unbound vars are omitted
      if (!first) *out++ = ',';
      first = false;
      out = CopyTo(columns_[c].key, out);
    } else if (c > 0) {
      *out++ = CellSeparator(format_);
    }
    if (id == kUnboundTerm) continue;  // an empty TSV/CSV cell
    Column& col = columns_[c];
    if (col.id == id) {
      out = CopyTo(col.cell, out);
      continue;
    }
    char* const cell = out;
    out = WriteCell(format_, dict.Decode(id), out);
    col.cell.assign(cell, out);
    col.id = id;
  }
  out = CopyTo(RowEnd(format_), out);
  size_ += static_cast<size_t>(out - begin);
  ++rows_written_;
  return MaybeFlush();
}

bool StreamingResultWriter::WriteAll(const BindingSet& rows,
                                     const VarTable& vars,
                                     const Dictionary& dict) {
  return WriteAllAs(rows, rows.schema(), vars, dict);
}

bool StreamingResultWriter::WriteTriples(const BindingSet& triples,
                                         const Dictionary& dict) {
  VarTable names;
  const std::vector<VarId> schema{names.Intern("subject"),
                                  names.Intern("predicate"),
                                  names.Intern("object")};
  return WriteAllAs(triples, schema, names, dict);
}

bool StreamingResultWriter::WriteAllAs(const BindingSet& rows,
                                       const std::vector<VarId>& schema,
                                       const VarTable& vars,
                                       const Dictionary& dict) {
  if (!BeginSelect(schema, vars)) return false;
  // A zero-width mapping (e.g. a fully-bound BGP that matched) renders as
  // an empty JSON object / blank line.
  const size_t width = rows.width();
  for (size_t r = 0; r < rows.size(); ++r)
    if (!WriteRow(rows.Row(r), width, dict)) return false;
  return Finish();
}

bool StreamingResultWriter::WriteBoolean(bool value) {
  if (failed_ || finished_) return !failed_;
  finished_ = true;
  if (format_ == WireFormat::kJson) {
    Append(value ? "{\"head\":{},\"boolean\":true}"
                 : "{\"head\":{},\"boolean\":false}");
  } else {
    Append(value ? "true\n" : "false\n");
  }
  return FlushAll();
}

bool StreamingResultWriter::Finish() {
  if (failed_ || finished_) return !failed_;
  finished_ = true;
  if (began_ && format_ == WireFormat::kJson) Append("]}}");
  return FlushAll();
}

}  // namespace sparqluo
