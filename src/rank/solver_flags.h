// Shared command-line surface for the solver knobs.
//
// Every binary that runs a PageRank solve (examples, tools, benches)
// ends up wanting the same three flags; before this header each one
// hand-rolled a different subset with slightly different spellings.
// Parse them here instead:
//
//   --partition=node|edge                row partition of the sweep
//   --kernel=scalar|simd                 pull-sweep instruction set
//   --order=identity|degree|bfs          cache-aware node relabeling
//
// --order is deliberately a separate call: it is only safe in binaries
// whose node ids are pure labels. A binary that derives structure from
// ids (e.g. qrank_ingest's site_of = id arithmetic) must NOT accept it,
// because relabeling would silently change which site every page
// belongs to.

#ifndef QRANK_RANK_SOLVER_FLAGS_H_
#define QRANK_RANK_SOLVER_FLAGS_H_

#include "common/flags.h"
#include "common/status.h"
#include "graph/reorder.h"
#include "rank/pagerank.h"

namespace qrank {

/// Usage-string fragments matching the two helpers below.
inline constexpr const char kSolverFlagsUsage[] =
    "[--partition=node|edge] [--kernel=scalar|simd]";
inline constexpr const char kOrderFlagUsage[] =
    "[--order=identity|degree|bfs]";

/// Reads --partition/--kernel into `options`, leaving
/// absent flags at the caller's defaults. InvalidArgument (naming the
/// flag and the accepted values) on an unknown spelling.
Status ApplySolverFlags(FlagParser& flags, PageRankOptions* options);

/// Reads --order (default: kIdentity). InvalidArgument on an unknown
/// name. See the header comment before adding this to a binary.
Result<NodeOrdering> OrderingFlag(FlagParser& flags);

}  // namespace qrank

#endif  // QRANK_RANK_SOLVER_FLAGS_H_
