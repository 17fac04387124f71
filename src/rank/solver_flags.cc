#include "rank/solver_flags.h"

namespace qrank {

Status ApplySolverFlags(FlagParser& flags, PageRankOptions* options) {
  const std::string partition =
      flags.GetString("partition", SweepPartitionName(options->partition));
  if (!ParseSweepPartition(partition, &options->partition)) {
    return Status::InvalidArgument("--partition must be node or edge, got '" +
                                   partition + "'");
  }
  const std::string kernel =
      flags.GetString("kernel", KernelVariantName(options->kernel));
  if (!ParseKernelVariant(kernel, &options->kernel)) {
    return Status::InvalidArgument("--kernel must be scalar or simd, got '" +
                                   kernel + "'");
  }
  return flags.status();
}

Result<NodeOrdering> OrderingFlag(FlagParser& flags) {
  const std::string order =
      flags.GetString("order", NodeOrderingName(NodeOrdering::kIdentity));
  QRANK_RETURN_NOT_OK(flags.status());
  return ParseNodeOrdering(order);
}

}  // namespace qrank
