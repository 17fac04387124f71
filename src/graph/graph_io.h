// Graph serialization: text edge lists (interchange) and a compact
// binary snapshot format (fast reload of simulator output).
//
// Text format ("qrank-edges v1"):
//   # comment lines start with '#'
//   <num_nodes>              -- first non-comment line
//   <src> <dst>              -- one edge per line, whitespace separated
//
// Binary format ("QRKG" magic, little-endian):
//   magic[4] version:u32 num_nodes:u32 num_edges:u64
//   offsets[num_nodes+1]:u64 targets[num_edges]:u32 checksum:u64
// The checksum is a FNV-1a over the payload; load verifies it and fails
// with Corruption on mismatch.

#ifndef QRANK_GRAPH_GRAPH_IO_H_
#define QRANK_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"

namespace qrank {

/// Writes `edges` as a text edge list.
Status WriteEdgeListText(const EdgeList& edges, const std::string& path);

/// Reads a text edge list. Fails with Corruption on malformed lines or
/// out-of-range endpoints.
Result<EdgeList> ReadEdgeListText(const std::string& path);

/// Writes a CSR graph in the binary snapshot format.
Status WriteGraphBinary(const CsrGraph& graph, const std::string& path);

/// Reads a binary snapshot; verifies magic, version, structure and
/// checksum.
Result<CsrGraph> ReadGraphBinary(const std::string& path);

}  // namespace qrank

#endif  // QRANK_GRAPH_GRAPH_IO_H_
