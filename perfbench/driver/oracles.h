// Oracles the benchmark checks the program's outputs against. Each one is
// computed apart from the library: shortest paths and shortest-path counts
// come from the benchmark's own Dijkstra over the live topology, never from
// a protocol table, and every check compares an answer the program gave
// with an expectation built here. A check returns "" when it holds and a
// description of the first mismatch otherwise.
#ifndef PERFBENCH_DRIVER_ORACLES_H_
#define PERFBENCH_DRIVER_ORACLES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/topology.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"

namespace perfbench {

using nettrails::NodeId;

/// All-pairs shortest distances over the live links of a topology, and the
/// number of distinct shortest paths for each pair. dist is -1 for an
/// unreachable pair.
struct ShortestPaths {
  std::vector<std::vector<int64_t>> dist;
  std::vector<std::vector<uint64_t>> count;
};

/// `link_up[i]` says whether topo.links[i] is live; an empty vector means
/// every link is.
ShortestPaths AllPairsShortestPaths(const nettrails::net::Topology& topo,
                                    const std::vector<bool>& link_up = {});

/// True when every node can reach every other over the live links.
bool Connected(const nettrails::net::Topology& topo,
               const std::vector<bool>& link_up,
               const std::vector<bool>& node_up);

/// Each node's `table` (mincost or bestcost: (@X, Z, C) rows) holds exactly
/// one row per other reachable node Z, with C == expected.dist[X][Z].
std::string CheckDistances(
    const std::vector<std::unique_ptr<nettrails::runtime::Engine>>& engines,
    const char* table, const ShortestPaths& expected);

/// Every expected `table` row (X, Z, dist[X][Z]) has a provenance edge at X
/// that is a base self-edge or whose rule execution resolves at the edge's
/// RLoc.
std::string CheckProvenanceResolves(nettrails::query::ProvenanceQuerier* q,
                                    const char* table,
                                    const ShortestPaths& expected);

/// At quiescence every message sent was delivered or dropped.
std::string CheckConservation(const nettrails::net::ChannelFaultStats& s);

/// The lineage leaves of bestpath(@X,Z,C,P) include link(@a,b,cost) for
/// every hop (a, b) of P, with cost the live link cost `cost_of(a, b)`.
std::string CheckLineage(const nettrails::Tuple& bestpath,
                         const std::vector<nettrails::Vid>& leaves,
                         const std::vector<std::vector<int64_t>>& link_cost);

/// The derivation count of bestpath(@X,Z,C,P) equals the number of cost-C
/// paths from X to Z.
std::string CheckDerivationCount(const nettrails::Tuple& bestpath,
                                 int64_t count, const ShortestPaths& expected);

/// A cached answer equals the uncached answer to the same query.
std::string CheckSameAnswer(const nettrails::query::QueryResult& cached,
                            const nettrails::query::QueryResult& uncached);

/// Live link cost matrix (-1 where there is no live link).
std::vector<std::vector<int64_t>> LinkCosts(
    const nettrails::net::Topology& topo, const std::vector<bool>& link_up);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_ORACLES_H_
