#include "engine/result_writer.h"

#include <ostream>
#include <sstream>

namespace sparqluo {

namespace {

/// A streaming writer over `out`. The ostream sink always accepts: the
/// historical "best effort" ostream behavior.
StreamingResultWriter OstreamWriter(ResultFormat format, std::ostream& out) {
  return StreamingResultWriter(format, [&out](std::string_view piece) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    return true;
  });
}

}  // namespace

void WriteResults(const BindingSet& rows, const VarTable& vars,
                  const Dictionary& dict, ResultFormat format,
                  std::ostream& out) {
  OstreamWriter(format, out).WriteAll(rows, vars, dict);
}

std::string FormatResults(const BindingSet& rows, const VarTable& vars,
                          const Dictionary& dict, ResultFormat format) {
  std::ostringstream out;
  WriteResults(rows, vars, dict, format, out);
  return out.str();
}

void WriteConstructResults(const BindingSet& triples, const Dictionary& dict,
                           ResultFormat format, std::ostream& out) {
  OstreamWriter(format, out).WriteTriples(triples, dict);
}

}  // namespace sparqluo
