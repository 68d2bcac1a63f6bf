#include "engine/result_writer.h"

#include <ostream>
#include <sstream>

namespace sparqluo {

void WriteResults(const BindingSet& rows, const VarTable& vars,
                  const Dictionary& dict, ResultFormat format,
                  std::ostream& out) {
  // The ostream sink always accepts: the historical "best effort" ostream
  // behavior.
  StreamingResultWriter writer(format, [&out](std::string_view piece) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    return true;
  });
  writer.WriteAll(rows, vars, dict);
}

std::string FormatResults(const BindingSet& rows, const VarTable& vars,
                          const Dictionary& dict, ResultFormat format) {
  std::ostringstream out;
  WriteResults(rows, vars, dict, format, out);
  return out.str();
}

}  // namespace sparqluo
