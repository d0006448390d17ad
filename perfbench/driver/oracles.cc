#include "oracles.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

using nettrails::Tuple;
using nettrails::Value;
using nettrails::Vid;
using nettrails::net::Topology;

namespace {

NodeId AsNode(const Value& v) {
  return v.is_address() ? v.as_address() : static_cast<NodeId>(v.as_int());
}

bool LinkLive(const std::vector<bool>& link_up, size_t i) {
  return link_up.empty() || link_up[i];
}

std::string RowName(const char* table, NodeId x, NodeId z) {
  return std::string(table) + "(@" + std::to_string(x) + "," +
         std::to_string(z) + ",_)";
}

}  // namespace

ShortestPaths AllPairsShortestPaths(const Topology& topo,
                                    const std::vector<bool>& link_up) {
  const size_t n = topo.num_nodes;
  std::vector<std::vector<std::pair<NodeId, int64_t>>> adj(n);
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (!LinkLive(link_up, i)) continue;
    const auto& l = topo.links[i];
    adj[l.a].push_back({l.b, l.cost});
    adj[l.b].push_back({l.a, l.cost});
  }
  ShortestPaths out;
  out.dist.assign(n, std::vector<int64_t>(n, -1));
  out.count.assign(n, std::vector<uint64_t>(n, 0));
  using Item = std::pair<int64_t, NodeId>;
  for (NodeId s = 0; s < n; ++s) {
    std::vector<int64_t>& dist = out.dist[s];
    std::vector<uint64_t>& count = out.count[s];
    std::vector<bool> done(n, false);
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[s] = 0;
    count[s] = 1;
    pq.push({0, s});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (done[u]) continue;
      done[u] = true;
      for (auto [v, c] : adj[u]) {
        const int64_t nd = d + c;
        if (dist[v] < 0 || nd < dist[v]) {
          dist[v] = nd;
          count[v] = count[u];
          pq.push({nd, v});
        } else if (nd == dist[v]) {
          count[v] += count[u];
        }
      }
    }
  }
  return out;
}

bool Connected(const Topology& topo, const std::vector<bool>& link_up,
               const std::vector<bool>& node_up) {
  const size_t n = topo.num_nodes;
  std::vector<std::vector<NodeId>> adj(n);
  for (size_t i = 0; i < topo.links.size(); ++i) {
    const auto& l = topo.links[i];
    if (!LinkLive(link_up, i) || !node_up[l.a] || !node_up[l.b]) continue;
    adj[l.a].push_back(l.b);
    adj[l.b].push_back(l.a);
  }
  NodeId start = 0;
  while (start < n && !node_up[start]) ++start;
  if (start == n) return true;
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack = {start};
  seen[start] = true;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (node_up[v] && !seen[v]) return false;
  }
  return true;
}

std::string CheckDistances(
    const std::vector<std::unique_ptr<nettrails::runtime::Engine>>& engines,
    const char* table, const ShortestPaths& expected) {
  const size_t n = engines.size();
  std::vector<int64_t> got(n);
  for (NodeId x = 0; x < n; ++x) {
    std::fill(got.begin(), got.end(), -1);
    for (const Tuple& t : engines[x]->TableContents(table)) {
      const NodeId z = AsNode(t.field(1));
      if (z >= n || got[z] >= 0) {
        return "unexpected or duplicate row " + t.ToString();
      }
      got[z] = t.field(2).as_int();
    }
    for (NodeId z = 0; z < n; ++z) {
      const int64_t want = z == x ? -1 : expected.dist[x][z];
      if (got[z] != want) {
        return RowName(table, x, z) + ": cost " + std::to_string(got[z]) +
               ", Dijkstra says " + std::to_string(want);
      }
    }
  }
  return "";
}

std::string CheckProvenanceResolves(nettrails::query::ProvenanceQuerier* q,
                                    const char* table,
                                    const ShortestPaths& expected) {
  const size_t n = q->node_count();
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId z = 0; z < n; ++z) {
      const int64_t c = expected.dist[x][z];
      if (z == x || c < 0) continue;
      const Tuple row(table,
                      {Value::Address(x), Value::Address(z), Value::Int(c)});
      const Vid vid = row.Hash();
      const auto* edges = q->store(x)->EdgesFor(vid);
      bool resolved = false;
      if (edges != nullptr) {
        for (const auto& e : *edges) {
          if (e.IsSelf(vid) ||
              (e.rloc < n && q->store(e.rloc)->ExecFor(e.rid) != nullptr)) {
            resolved = true;
            break;
          }
        }
      }
      if (!resolved) {
        return row.ToString() + " has no provenance edge that resolves";
      }
    }
  }
  return "";
}

std::string CheckConservation(const nettrails::net::ChannelFaultStats& s) {
  if (s.sent == s.delivered + s.dropped_link + s.dropped_fault) return "";
  return "sent " + std::to_string(s.sent) + " != delivered " +
         std::to_string(s.delivered) + " + dropped " +
         std::to_string(s.dropped_link + s.dropped_fault);
}

std::vector<std::vector<int64_t>> LinkCosts(const Topology& topo,
                                            const std::vector<bool>& link_up) {
  std::vector<std::vector<int64_t>> cost(
      topo.num_nodes, std::vector<int64_t>(topo.num_nodes, -1));
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (!LinkLive(link_up, i)) continue;
    const auto& l = topo.links[i];
    cost[l.a][l.b] = l.cost;
    cost[l.b][l.a] = l.cost;
  }
  return cost;
}

std::string CheckLineage(const Tuple& bestpath, const std::vector<Vid>& leaves,
                         const std::vector<std::vector<int64_t>>& link_cost) {
  const nettrails::ValueList& path = bestpath.field(3).as_list();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId a = AsNode(path[i]);
    const NodeId b = AsNode(path[i + 1]);
    const int64_t c = link_cost[a][b];
    const Tuple link("link",
                     {Value::Address(a), Value::Address(b), Value::Int(c)});
    if (c < 0 ||
        std::find(leaves.begin(), leaves.end(), link.Hash()) == leaves.end()) {
      return "lineage of " + bestpath.ToString() + " lacks " +
             link.ToString();
    }
  }
  return "";
}

std::string CheckDerivationCount(const Tuple& bestpath, int64_t count,
                                 const ShortestPaths& expected) {
  const NodeId x = AsNode(bestpath.field(0));
  const NodeId z = AsNode(bestpath.field(1));
  const int64_t c = bestpath.field(2).as_int();
  if (expected.dist[x][z] != c) {
    return bestpath.ToString() + ": Dijkstra cost is " +
           std::to_string(expected.dist[x][z]);
  }
  if (static_cast<uint64_t>(count) != expected.count[x][z]) {
    return bestpath.ToString() + ": derivation count " +
           std::to_string(count) + ", cost-" + std::to_string(c) +
           " paths " + std::to_string(expected.count[x][z]);
  }
  return "";
}

std::string CheckSameAnswer(const nettrails::query::QueryResult& cached,
                            const nettrails::query::QueryResult& uncached) {
  std::vector<Vid> a = cached.leaf_vids;
  std::vector<Vid> b = uncached.leaf_vids;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (cached.count != uncached.count || a != b ||
      cached.nodes != uncached.nodes ||
      cached.truncated != uncached.truncated) {
    return "cached answer (count " + std::to_string(cached.count) + ", " +
           std::to_string(a.size()) + " leaves, " +
           std::to_string(cached.nodes.size()) +
           " nodes) differs from uncached (count " +
           std::to_string(uncached.count) + ", " + std::to_string(b.size()) +
           " leaves, " + std::to_string(uncached.nodes.size()) + " nodes)";
  }
  return "";
}

}  // namespace perfbench
