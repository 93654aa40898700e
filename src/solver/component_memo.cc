#include "solver/component_memo.h"

#include "util/strings.h"

namespace gsls::solver {

std::string ComponentMemo::Stats::ToString() const {
  return StrCat("hits=", hits, " misses=", misses,
                " invalidations=", invalidations);
}

}  // namespace gsls::solver
