#include "bgp/engine.h"
#include "bgp/hashjoin_engine.h"
#include "bgp/wco_engine.h"

namespace sparqluo {

std::unique_ptr<BgpEngine> MakeEngine(EngineKind kind, const TripleStore& store,
                                      const Dictionary& dict,
                                      const Statistics& stats) {
  switch (kind) {
    case EngineKind::kWco:
      return std::make_unique<WcoEngine>(store, dict, stats);
    case EngineKind::kHashJoin:
      return std::make_unique<HashJoinEngine>(store, dict, stats);
  }
  return nullptr;
}

}  // namespace sparqluo
