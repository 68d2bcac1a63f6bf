#include "sparql/result_writer.h"

#include <cstdio>

namespace sparqluo {

namespace {

/// Appends `s` to `out`, replacing every byte `needs_escape` selects with
/// what `escape` appends for it. Runs of bytes that need no escaping go
/// out in one append.
template <typename NeedsEscape, typename Escape>
void AppendEscaped(std::string_view s, std::string* out,
                   NeedsEscape needs_escape, Escape escape) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!needs_escape(static_cast<unsigned char>(s[i]))) continue;
    out->append(s.data() + run, i - run);
    escape(s[i], out);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

/// One cell of a JSON binding: {"type":…,"value":…[,"xml:lang"|"datatype":…]}.
void RenderJsonCell(const Term& term, std::string* out) {
  switch (term.kind) {
    case TermKind::kIri: *out += "{\"type\":\"uri\",\"value\":"; break;
    case TermKind::kLiteral: *out += "{\"type\":\"literal\",\"value\":"; break;
    case TermKind::kBlank: *out += "{\"type\":\"bnode\",\"value\":"; break;
  }
  AppendJsonString(term.lexical, out);
  if (term.is_literal() && !term.qualifier.empty()) {
    *out += term.qualifier_is_lang ? ",\"xml:lang\":" : ",\"datatype\":";
    AppendJsonString(term.qualifier, out);
  }
  *out += '}';
}

/// A CSV cell: the plain value (IRIs and literal values bare, blank nodes
/// as _:label), quoted with embedded quotes doubled when it holds a comma,
/// quote or line break.
void RenderCsvCell(const Term& term, std::string* out) {
  const std::string_view value = term.lexical;
  const bool quote = value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (quote) *out += '"';
  if (term.is_blank()) *out += "_:";
  if (!quote) {
    *out += value;
    return;
  }
  AppendEscaped(
      value, out, [](unsigned char c) { return c == '"'; },
      [](char, std::string* o) { *o += "\"\""; });
  *out += '"';
}

void RenderCell(WireFormat format, const Term& term, std::string* out) {
  switch (format) {
    case WireFormat::kJson: RenderJsonCell(term, out); return;
    case WireFormat::kTsv:
    case WireFormat::kNTriples: term.AppendTo(out); return;
    case WireFormat::kCsv: RenderCsvCell(term, out); return;
  }
}

/// Cell separator of the row formats (JSON separates bound cells only).
char CellSeparator(WireFormat format) {
  switch (format) {
    case WireFormat::kCsv: return ',';
    case WireFormat::kNTriples: return ' ';
    default: return '\t';
  }
}

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
  out->push_back('"');
  AppendEscaped(
      s, out,
      [](unsigned char c) { return c == '"' || c == '\\' || c < 0x20; },
      [](char c, std::string* o) {
        switch (c) {
          case '"': *o += "\\\""; break;
          case '\\': *o += "\\\\"; break;
          case '\n': *o += "\\n"; break;
          case '\r': *o += "\\r"; break;
          case '\t': *o += "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            *o += buf;
          }
        }
      });
  out->push_back('"');
}

StreamingResultWriter::StreamingResultWriter(WireFormat format, Sink sink,
                                             size_t flush_bytes)
    : format_(format),
      sink_(std::move(sink)),
      flush_bytes_(flush_bytes == 0 ? 1 : flush_bytes) {}

bool StreamingResultWriter::MaybeFlush() {
  if (buffer_.size() > max_buffered_) max_buffered_ = buffer_.size();
  if (buffer_.size() < flush_bytes_) return !failed_;
  return FlushAll();
}

bool StreamingResultWriter::FlushAll() {
  if (failed_) return false;
  if (buffer_.size() > max_buffered_) max_buffered_ = buffer_.size();
  if (buffer_.empty()) return true;
  bytes_emitted_ += buffer_.size();
  if (!sink_(buffer_)) {
    failed_ = true;
    buffer_.clear();
    return false;
  }
  buffer_.clear();
  return true;
}

bool StreamingResultWriter::BeginSelect(const std::vector<VarId>& schema,
                                        const VarTable& vars) {
  if (failed_ || began_) return !failed_;
  began_ = true;
  columns_.assign(schema.size(), Column{});
  if (format_ == WireFormat::kJson) {
    buffer_ += "{\"head\":{\"vars\":[";
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) buffer_ += ',';
      std::string& key = columns_[c].key;
      AppendJsonString(vars.Name(schema[c]), &key);
      buffer_.append(key);
      key += ':';
    }
    buffer_ += "]},\"results\":{\"bindings\":[";
  } else if (format_ != WireFormat::kNTriples) {
    // TSV names carry their '?'; CSV names are bare.
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) buffer_ += CellSeparator(format_);
      if (format_ == WireFormat::kTsv) buffer_ += '?';
      buffer_ += vars.Name(schema[c]);
    }
    buffer_ += RowEnd(format_);
  }
  // kNTriples: statements only, no header.
  return MaybeFlush();
}

bool StreamingResultWriter::WriteRow(const TermId* row, size_t width,
                                     const Dictionary& dict) {
  if (failed_) return false;
  if (columns_.size() < width) columns_.resize(width);
  const bool json = format_ == WireFormat::kJson;
  if (json) buffer_ += rows_written_ > 0 ? ",{" : "{";
  bool first = true;
  for (size_t c = 0; c < width; ++c) {
    const TermId id = row[c];
    if (json) {
      if (id == kUnboundTerm) continue;  // unbound vars are omitted
      if (!first) buffer_ += ',';
      first = false;
      buffer_ += columns_[c].key;
    } else if (c > 0) {
      buffer_ += CellSeparator(format_);
    }
    if (id == kUnboundTerm) continue;  // an empty TSV/CSV cell
    Column& col = columns_[c];
    if (col.id != id) {
      col.cell.clear();
      RenderCell(format_, dict.Decode(id), &col.cell);
      col.id = id;
    }
    buffer_ += col.cell;
  }
  buffer_ += RowEnd(format_);
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
    buffer_ += value ? "{\"head\":{},\"boolean\":true}"
                     : "{\"head\":{},\"boolean\":false}";
  } else {
    buffer_ += value ? "true\n" : "false\n";
  }
  return FlushAll();
}

bool StreamingResultWriter::Finish() {
  if (failed_ || finished_) return !failed_;
  finished_ = true;
  if (began_ && format_ == WireFormat::kJson) buffer_ += "]}}";
  return FlushAll();
}

}  // namespace sparqluo
