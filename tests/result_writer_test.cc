// Golden-output and bounded-memory tests for the streaming result writer
// (src/sparql/result_writer.h) — the single serializer behind both the
// in-process FormatResults API and the HTTP endpoint's chunked bodies.
#include "sparql/result_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/result_writer.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/random.h"

namespace sparqluo {
namespace {

/// Collects every flushed piece (and can abort after a fixed count).
struct CollectingSink {
  std::vector<std::string> pieces;
  size_t accept_limit = SIZE_MAX;

  StreamingResultWriter::Sink AsSink() {
    return [this](std::string_view piece) {
      if (pieces.size() >= accept_limit) return false;
      pieces.emplace_back(piece);
      return true;
    };
  }

  std::string Joined() const {
    std::string all;
    for (const std::string& p : pieces) all += p;
    return all;
  }
};

class ResultWriterTest : public ::testing::Test {
 protected:
  ResultWriterTest() {
    x_ = vars_.Intern("x");
    y_ = vars_.Intern("y");
    iri_ = dict_.Encode(Term::Iri("http://example.org/s"));
    escapes_ = dict_.Encode(
        Term::Literal("he said \"hi\"\n\tback\\slash\x01"));
    lang_ = dict_.Encode(Term::LangLiteral("bonjour", "fr"));
    typed_ = dict_.Encode(Term::TypedLiteral(
        "42", "http://www.w3.org/2001/XMLSchema#integer"));
    blank_ = dict_.Encode(Term::Blank("b0"));
    utf8_ = dict_.Encode(Term::Literal("h\xC3\xA9llo"));
  }

  /// The three-row fixture: escaping, lang/typed literals, a blank node,
  /// an unbound cell and pass-through UTF-8.
  BindingSet Rows() {
    BindingSet rows({x_, y_});
    rows.AppendRow({iri_, escapes_});
    rows.AppendRow({lang_, kUnboundTerm});
    rows.AppendRow({typed_, blank_});
    rows.AppendRow({utf8_, iri_});
    return rows;
  }

  std::string Render(WireFormat format, const BindingSet& rows) {
    CollectingSink sink;
    StreamingResultWriter writer(format, sink.AsSink());
    EXPECT_TRUE(writer.WriteAll(rows, vars_, dict_));
    return sink.Joined();
  }

  VarTable vars_;
  VarId x_, y_;
  Dictionary dict_;
  TermId iri_, escapes_, lang_, typed_, blank_, utf8_;
};

TEST_F(ResultWriterTest, JsonGolden) {
  std::string expected =
      "{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":["
      "{\"x\":{\"type\":\"uri\",\"value\":\"http://example.org/s\"},"
      "\"y\":{\"type\":\"literal\",\"value\":"
      "\"he said \\\"hi\\\"\\n\\tback\\\\slash\\u0001\"}},"
      "{\"x\":{\"type\":\"literal\",\"value\":\"bonjour\","
      "\"xml:lang\":\"fr\"}},"
      "{\"x\":{\"type\":\"literal\",\"value\":\"42\",\"datatype\":"
      "\"http://www.w3.org/2001/XMLSchema#integer\"},"
      "\"y\":{\"type\":\"bnode\",\"value\":\"b0\"}},"
      "{\"x\":{\"type\":\"literal\",\"value\":\"h\xC3\xA9llo\"},"
      "\"y\":{\"type\":\"uri\",\"value\":\"http://example.org/s\"}}"
      "]}}";
  EXPECT_EQ(Render(WireFormat::kJson, Rows()), expected);
}

TEST_F(ResultWriterTest, TsvGolden) {
  std::string expected =
      "?x\t?y\n"
      "<http://example.org/s>\t\"he said \\\"hi\\\"\\n\\tback\\\\slash\x01\"\n"
      "\"bonjour\"@fr\t\n"
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\t_:b0\n"
      "\"h\xC3\xA9llo\"\t<http://example.org/s>\n";
  EXPECT_EQ(Render(WireFormat::kTsv, Rows()), expected);
}

TEST_F(ResultWriterTest, EmptyResultSet) {
  BindingSet empty({x_});
  EXPECT_EQ(Render(WireFormat::kJson, empty),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}");
  EXPECT_EQ(Render(WireFormat::kTsv, empty), "?x\n");
}

TEST_F(ResultWriterTest, ZeroWidthMappings) {
  // ASK-style / fully-bound BGP results: mappings with no columns.
  BindingSet rows;
  rows.AppendEmptyMappings(2);
  EXPECT_EQ(Render(WireFormat::kJson, rows),
            "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[{},{}]}}");
  EXPECT_EQ(Render(WireFormat::kTsv, rows), "\n\n\n");
}

TEST_F(ResultWriterTest, AskBoolean) {
  for (bool value : {true, false}) {
    CollectingSink sink;
    StreamingResultWriter writer(WireFormat::kJson, sink.AsSink());
    EXPECT_TRUE(writer.WriteBoolean(value));
    EXPECT_EQ(sink.Joined(), value ? "{\"head\":{},\"boolean\":true}"
                                   : "{\"head\":{},\"boolean\":false}");
  }
  CollectingSink sink;
  StreamingResultWriter writer(WireFormat::kTsv, sink.AsSink());
  EXPECT_TRUE(writer.WriteBoolean(true));
  EXPECT_EQ(sink.Joined(), "true\n");
}

TEST_F(ResultWriterTest, EngineWritersAreBitIdenticalToStreaming) {
  // WriteJson/WriteTsv delegate to the streaming writer, so the in-process
  // formats and the over-the-wire bodies cannot drift apart.
  BindingSet rows = Rows();
  EXPECT_EQ(FormatResults(rows, vars_, dict_, ResultFormat::kJson),
            Render(WireFormat::kJson, rows));
  EXPECT_EQ(FormatResults(rows, vars_, dict_, ResultFormat::kTsv),
            Render(WireFormat::kTsv, rows));
}

TEST_F(ResultWriterTest, SinkAbortStopsSerialization) {
  CollectingSink sink;
  sink.accept_limit = 1;
  StreamingResultWriter writer(WireFormat::kJson, sink.AsSink(),
                               /*flush_bytes=*/16);
  BindingSet rows = Rows();
  EXPECT_FALSE(writer.WriteAll(rows, vars_, dict_));
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(sink.pieces.size(), 1u);
  // Everything after the abort is a cheap no-op.
  EXPECT_FALSE(writer.WriteRow(nullptr, 0, dict_));
  EXPECT_FALSE(writer.Finish());
  EXPECT_EQ(sink.pieces.size(), 1u);
}

TEST_F(ResultWriterTest, MillionRowsBoundedMemory) {
  // The streaming guarantee: serializing 1M rows never buffers more than
  // ~one flush unit + one row, regardless of total output size.
  constexpr size_t kRows = 1'000'000;
  constexpr size_t kFlushBytes = 4 * 1024;
  size_t total_bytes = 0, pieces = 0;
  StreamingResultWriter writer(
      WireFormat::kJson,
      [&](std::string_view piece) {
        total_bytes += piece.size();
        ++pieces;
        return true;
      },
      kFlushBytes);
  ASSERT_TRUE(writer.BeginSelect({x_, y_}, vars_));
  TermId row[2] = {iri_, lang_};
  for (size_t i = 0; i < kRows; ++i) ASSERT_TRUE(writer.WriteRow(row, 2, dict_));
  ASSERT_TRUE(writer.Finish());
  EXPECT_EQ(writer.rows_written(), kRows);
  EXPECT_EQ(writer.bytes_emitted(), total_bytes);
  EXPECT_GT(total_bytes, kRows * 50);  // ~100 bytes per row of JSON
  EXPECT_GT(pieces, total_bytes / (2 * kFlushBytes));
  // High-water mark stays O(flush unit + one row), nowhere near the body.
  EXPECT_LT(writer.max_buffered(), kFlushBytes + 1024);
}

// ---------------------------------------------------------------------------
// Differential test against a per-cell oracle.
//
// The oracle is the straightforward renderer the streaming writer's cell
// reuse and run-wise escaping replaced: every cell decoded and rendered
// anew, one byte at a time, TSV/N-Triples through Term::ToString(). The
// streaming writer must match it byte for byte in every format. (Its TSV
// and N-Triples cells come from Term::AppendTo, which ToString wraps;
// rdf_test pins that text on its own.)

void OracleJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string OracleCsvField(const Term& term) {
  std::string value =
      term.is_blank() ? "_:" + term.lexical : term.lexical;
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

/// Renders a SELECT result (or N-Triples statements) the per-cell way.
std::string OracleRender(WireFormat format, const std::vector<std::string>& names,
                         const std::vector<std::vector<TermId>>& rows,
                         size_t zero_width_rows, const Dictionary& dict) {
  std::string out;
  const size_t width = names.size();
  if (format == WireFormat::kJson) {
    out += "{\"head\":{\"vars\":[";
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) out += ',';
      OracleJsonString(names[c], &out);
    }
    out += "]},\"results\":{\"bindings\":[";
  } else if (format == WireFormat::kTsv || format == WireFormat::kCsv) {
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) out += format == WireFormat::kTsv ? "\t?" : ",";
      else if (format == WireFormat::kTsv) out += '?';
      out += names[c];
    }
    out += format == WireFormat::kCsv ? "\r\n" : "\n";
  }
  const size_t count = width == 0 ? zero_width_rows : rows.size();
  for (size_t r = 0; r < count; ++r) {
    if (format == WireFormat::kJson) {
      if (r > 0) out += ',';
      out += '{';
      bool first = true;
      for (size_t c = 0; c < width; ++c) {
        TermId id = rows[r][c];
        if (id == kUnboundTerm) continue;
        if (!first) out += ',';
        first = false;
        const Term& term = dict.Decode(id);
        OracleJsonString(names[c], &out);
        out += ":{\"type\":";
        switch (term.kind) {
          case TermKind::kIri: out += "\"uri\""; break;
          case TermKind::kLiteral: out += "\"literal\""; break;
          case TermKind::kBlank: out += "\"bnode\""; break;
        }
        out += ",\"value\":";
        OracleJsonString(term.lexical, &out);
        if (term.is_literal() && !term.qualifier.empty()) {
          out += term.qualifier_is_lang ? ",\"xml:lang\":" : ",\"datatype\":";
          OracleJsonString(term.qualifier, &out);
        }
        out += '}';
      }
      out += '}';
      continue;
    }
    const char sep = format == WireFormat::kCsv        ? ','
                     : format == WireFormat::kNTriples ? ' '
                                                       : '\t';
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) out += sep;
      TermId id = rows[r][c];
      if (id == kUnboundTerm) continue;
      out += format == WireFormat::kCsv ? OracleCsvField(dict.Decode(id))
                                        : dict.Decode(id).ToString();
    }
    out += format == WireFormat::kCsv        ? "\r\n"
           : format == WireFormat::kNTriples ? " .\n"
                                             : "\n";
  }
  if (format == WireFormat::kJson) out += "]}}";
  return out;
}

constexpr WireFormat kAllFormats[] = {WireFormat::kJson, WireFormat::kTsv,
                                      WireFormat::kNTriples, WireFormat::kCsv};

class ResultWriterDifferentialTest : public ::testing::Test {
 protected:
  ResultWriterDifferentialTest() {
    const std::vector<Term> terms = {
        Term::Iri("http://example.org/a"),
        Term::Iri("http://example.org/b,c"),
        Term::Iri("http://example.org/\xE2\x82\xAC"),
        Term::Literal("plain"),
        Term::Literal(""),
        Term::Literal("say \"hi\", then \\leave\\"),
        Term::Literal(std::string("ctl \x01 and \x1f and \0 nul", 21)),
        Term::Literal("tab\there\nnew line\r\nCRLF"),
        Term::Literal("h\xC3\xA9llo w\xC3\xB6rld \xF0\x9F\x98\x80"),
        Term::Literal("a,b"),
        Term::LangLiteral("bonjour", "fr"),
        Term::LangLiteral("quote \" in lang", "en-GB"),
        Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
        Term::TypedLiteral("x\ty", "http://example.org/dt"),
        Term::Blank("b0"),
        Term::Blank("node,1"),
    };
    for (const Term& t : terms) ids_.push_back(dict_.Encode(t));
  }

  /// Streams `rows` through BeginSelect/WriteRow/Finish at `flush_bytes`.
  std::string Stream(WireFormat format, const std::vector<std::string>& names,
                     const std::vector<std::vector<TermId>>& rows,
                     size_t zero_width_rows, size_t flush_bytes) {
    VarTable vars;
    std::vector<VarId> schema;
    for (const std::string& n : names) schema.push_back(vars.Intern(n));
    CollectingSink sink;
    StreamingResultWriter writer(format, sink.AsSink(), flush_bytes);
    EXPECT_TRUE(writer.BeginSelect(schema, vars));
    static const TermId kNoCells = kUnboundTerm;
    const size_t count = names.empty() ? zero_width_rows : rows.size();
    for (size_t r = 0; r < count; ++r) {
      const TermId* row = names.empty() ? &kNoCells : rows[r].data();
      EXPECT_TRUE(writer.WriteRow(row, names.size(), dict_));
    }
    EXPECT_TRUE(writer.Finish());
    EXPECT_EQ(writer.bytes_emitted(), sink.Joined().size());
    return sink.Joined();
  }

  Dictionary dict_;
  std::vector<TermId> ids_;
};

TEST_F(ResultWriterDifferentialTest, RandomRowsMatchPerCellOracle) {
  const std::vector<std::string> names = {"alt", "aba", "r1", "r2", "r3"};
  Random rng(20251018);
  std::vector<std::vector<TermId>> rows;
  const TermId a = ids_[5], b = ids_[6];
  for (size_t r = 0; r < 300; ++r) {
    std::vector<TermId> row(names.size());
    // Column 0 goes A, unbound, A, ...; column 1 goes A, B, A, ...: a
    // reused cell must never outlive the term it was rendered from.
    row[0] = r % 2 == 0 ? a : kUnboundTerm;
    row[1] = r % 2 == 0 ? a : b;
    for (size_t c = 2; c < names.size(); ++c) {
      uint64_t pick = rng.Uniform(ids_.size() + 2);
      // Runs of one value (reuse) mixed with fresh values and unbound.
      if (pick >= ids_.size() && r > 0) {
        row[c] = pick == ids_.size() ? rows.back()[c] : kUnboundTerm;
      } else {
        row[c] = ids_[pick % ids_.size()];
      }
    }
    rows.push_back(std::move(row));
  }
  for (WireFormat format : kAllFormats) {
    const std::string expected = OracleRender(format, names, rows, 0, dict_);
    for (size_t flush : {size_t{1}, size_t{7}, size_t{64 * 1024}}) {
      EXPECT_EQ(Stream(format, names, rows, 0, flush), expected)
          << "format " << static_cast<int>(format) << ", flush " << flush;
    }
  }
}

TEST_F(ResultWriterDifferentialTest, EveryTermInEveryColumnPosition) {
  // Each term once in a single-column result, then every term pair in a
  // two-column one, so each escaping case sits at a cell start and end.
  std::vector<std::vector<TermId>> single, pairs;
  for (TermId x : ids_) {
    single.push_back({x});
    for (TermId y : ids_) pairs.push_back({x, y});
  }
  for (WireFormat format : kAllFormats) {
    EXPECT_EQ(Stream(format, {"v"}, single, 0, 7),
              OracleRender(format, {"v"}, single, 0, dict_));
    EXPECT_EQ(Stream(format, {"x", "y"}, pairs, 0, 64 * 1024),
              OracleRender(format, {"x", "y"}, pairs, 0, dict_));
  }
}

TEST_F(ResultWriterDifferentialTest, ZeroWidthRowsMatchOracle) {
  for (WireFormat format : kAllFormats) {
    for (size_t flush : {size_t{1}, size_t{7}, size_t{64 * 1024}}) {
      EXPECT_EQ(Stream(format, {}, {}, 3, flush),
                OracleRender(format, {}, {}, 3, dict_));
    }
  }
}

TEST_F(ResultWriterDifferentialTest, FormatResultsMatchesOracleInEveryFormat) {
  VarTable vars;
  BindingSet rows({vars.Intern("x"), vars.Intern("y")});
  std::vector<std::vector<TermId>> raw;
  for (size_t i = 0; i < ids_.size(); ++i) {
    raw.push_back({ids_[i], i % 3 == 0 ? kUnboundTerm : ids_[ids_.size() - 1 - i]});
    rows.AppendRow(raw.back());
  }
  for (WireFormat format : kAllFormats)
    EXPECT_EQ(FormatResults(rows, vars, dict_, format),
              OracleRender(format, {"x", "y"}, raw, 0, dict_));
}

// Every byte the eight-byte escape test must catch (quote, backslash, the
// control bytes and the ones N-Triples escapes) and every near miss of its
// comparisons, at every offset of strings of 0 to 40 bytes — so each sits
// in a clean-word position, a dirty word and the tail — as IRIs, literal
// values, language tags and datatypes, in every format. Each row is
// written twice, so the second copy comes from the columns' cached cells.
TEST_F(ResultWriterDifferentialTest, EscapeBoundariesMatchOracle) {
  const unsigned char kBytes[] = {0x00, 0x1f, '"',  '\\', '\n',
                                  '\r', '\t', 0x20, 0x21, 0x23,
                                  0x5b, 0x5d, 0x7f, 0x80, 0xff};
  std::vector<std::string> texts = {""};
  for (size_t len = 1; len <= 40; ++len) {
    for (unsigned char b : kBytes) {
      for (size_t at = 0; at < len; ++at) {
        std::string text(len, 'a');
        text[at] = static_cast<char>(b);
        texts.push_back(std::move(text));
      }
    }
  }
  Dictionary dict;
  std::vector<std::vector<TermId>> rows;
  for (const std::string& text : texts) {
    std::vector<TermId> row = {
        dict.Encode(Term::Iri(text)), dict.Encode(Term::Literal(text)),
        dict.Encode(Term::LangLiteral("v", text)),
        dict.Encode(Term::TypedLiteral("v", text))};
    rows.push_back(row);
    rows.push_back(std::move(row));
  }
  const std::vector<std::string> names = {"iri", "value", "lang", "datatype"};
  for (WireFormat format : kAllFormats) {
    VarTable vars;
    std::vector<VarId> schema;
    for (const std::string& n : names) schema.push_back(vars.Intern(n));
    CollectingSink sink;
    StreamingResultWriter writer(format, sink.AsSink());
    ASSERT_TRUE(writer.BeginSelect(schema, vars));
    for (const auto& row : rows)
      ASSERT_TRUE(writer.WriteRow(row.data(), row.size(), dict));
    ASSERT_TRUE(writer.Finish());
    EXPECT_TRUE(sink.Joined() == OracleRender(format, names, rows, 0, dict))
        << "format " << static_cast<int>(format);
  }
  for (const std::string& text : texts) {
    std::string expected;
    OracleJsonString(text, &expected);
    std::string got;
    AppendJsonString(text, &got);
    EXPECT_EQ(got, expected);
  }
}

// WriteTriples names a CONSTRUCT answer's columns from a VarTable of its
// own, separate from the query's: the JSON keys must come from the table
// passed to BeginSelect, which need not outlive that call.
TEST_F(ResultWriterDifferentialTest, BeginSelectTakesNamesFromItsOwnVarTable) {
  const std::vector<std::vector<TermId>> rows = {
      {ids_[0], ids_[1], ids_[5]}, {ids_[0], ids_[1], ids_[14]}};
  for (WireFormat format : {WireFormat::kJson, WireFormat::kTsv,
                            WireFormat::kCsv}) {
    CollectingSink sink;
    StreamingResultWriter writer(format, sink.AsSink(), 7);
    {
      VarTable query_vars;  // interned first, so ids differ from `names`
      query_vars.Intern("hidden0");
      VarTable names;
      std::vector<VarId> schema{names.Intern("subject"),
                                names.Intern("predicate"),
                                names.Intern("object")};
      ASSERT_TRUE(writer.BeginSelect(schema, names));
    }
    for (const auto& row : rows)
      ASSERT_TRUE(writer.WriteRow(row.data(), row.size(), dict_));
    ASSERT_TRUE(writer.Finish());
    EXPECT_EQ(sink.Joined(),
              OracleRender(format, {"subject", "predicate", "object"}, rows, 0,
                           dict_));
  }
}

}  // namespace
}  // namespace sparqluo
