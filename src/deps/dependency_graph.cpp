#include "deps/dependency_graph.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "telemetry/telemetry.hpp"

namespace iotsan::deps {

namespace {

/// Tarjan's strongly-connected-components algorithm (iterative form not
/// needed: handler graphs are small).
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<int>>& adjacency)
      : adjacency_(adjacency),
        index_(adjacency.size(), -1),
        lowlink_(adjacency.size(), 0),
        on_stack_(adjacency.size(), false),
        component_(adjacency.size(), -1) {}

  /// Returns component id per node; ids are assigned in reverse
  /// topological order of the condensation.
  std::vector<int> Run() {
    for (std::size_t v = 0; v < adjacency_.size(); ++v) {
      if (index_[v] < 0) Strongconnect(static_cast<int>(v));
    }
    return component_;
  }

  int component_count() const { return component_count_; }

 private:
  const std::vector<std::vector<int>>& adjacency_;
  std::vector<int> index_;
  std::vector<int> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<int> component_;
  std::vector<int> stack_;
  int next_index_ = 0;
  int component_count_ = 0;

  void Strongconnect(int v) {
    index_[v] = lowlink_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = true;
    for (int w : adjacency_[v]) {
      if (index_[w] < 0) {
        Strongconnect(w);
        lowlink_[v] = std::min(lowlink_[v], lowlink_[w]);
      } else if (on_stack_[w]) {
        lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
    }
    if (lowlink_[v] == index_[v]) {
      while (true) {
        int w = stack_.back();
        stack_.pop_back();
        on_stack_[w] = false;
        component_[w] = component_count_;
        if (w == v) break;
      }
      ++component_count_;
    }
  }
};

void AddUniquePattern(std::vector<ir::EventPattern>& list,
                      const ir::EventPattern& pattern) {
  for (const ir::EventPattern& existing : list) {
    if (existing == pattern) return;
  }
  list.push_back(pattern);
}

bool AnyOverlap(const std::vector<ir::EventPattern>& outputs,
                const std::vector<ir::EventPattern>& inputs) {
  for (const ir::EventPattern& out : outputs) {
    for (const ir::EventPattern& in : inputs) {
      if (in.Overlaps(out)) return true;
    }
  }
  return false;
}

bool AnyConflict(const std::vector<ir::EventPattern>& a,
                 const std::vector<ir::EventPattern>& b) {
  for (const ir::EventPattern& x : a) {
    for (const ir::EventPattern& y : b) {
      if (x.ConflictsWith(y)) return true;
    }
  }
  return false;
}

}  // namespace

DependencyGraph DependencyGraph::Build(
    std::span<const ir::AnalyzedApp> apps) {
  // Flat handler table.
  std::vector<HandlerRef> handlers;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (std::size_t h = 0; h < apps[a].handlers.size(); ++h) {
      handlers.push_back({static_cast<int>(a), static_cast<int>(h)});
    }
  }
  auto handler_of = [&apps](const HandlerRef& ref) -> const ir::HandlerInfo& {
    return apps[ref.app].handlers[ref.handler];
  };

  // Raw edges u -> v when outputs(u) overlap inputs(v).  Self-loops are
  // kept (they form singleton SCCs with a cycle, merged below).
  const std::size_t n = handlers.size();
  std::vector<std::vector<int>> raw(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (AnyOverlap(handler_of(handlers[u]).outputs,
                     handler_of(handlers[v]).inputs)) {
        raw[u].push_back(static_cast<int>(v));
      }
    }
  }

  // SCC merge.
  Tarjan tarjan(raw);
  std::vector<int> component = tarjan.Run();
  const int vertex_count = tarjan.component_count();

  DependencyGraph graph;
  graph.vertices_.resize(vertex_count);
  graph.children_.resize(vertex_count);
  graph.parents_.resize(vertex_count);

  // Keep vertex numbering stable with handler declaration order: remap
  // component ids by first appearance.
  std::vector<int> remap(vertex_count, -1);
  int next_id = 0;
  std::vector<int> vertex_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    int& id = remap[component[i]];
    if (id < 0) id = next_id++;
    vertex_of[i] = id;
  }

  for (std::size_t i = 0; i < n; ++i) {
    Vertex& vertex = graph.vertices_[vertex_of[i]];
    vertex.members.push_back(handlers[i]);
    for (const ir::EventPattern& in : handler_of(handlers[i]).inputs) {
      AddUniquePattern(vertex.inputs, in);
    }
    for (const ir::EventPattern& out : handler_of(handlers[i]).outputs) {
      AddUniquePattern(vertex.outputs, out);
    }
  }

  std::set<std::pair<int, int>> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (int v : raw[u]) {
      int cu = vertex_of[u];
      int cv = vertex_of[static_cast<std::size_t>(v)];
      if (cu == cv) continue;
      if (edges.insert({cu, cv}).second) {
        graph.children_[cu].push_back(cv);
        graph.parents_[cv].push_back(cu);
      }
    }
  }
  if (auto* t = telemetry::Active()) {
    t->pipeline.dependency_edges += edges.size();
  }
  return graph;
}

std::vector<int> DependencyGraph::Leaves() const {
  std::vector<int> leaves;
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    if (children_[v].empty()) leaves.push_back(static_cast<int>(v));
  }
  return leaves;
}

std::vector<int> DependencyGraph::AncestorClosure(int vertex) const {
  std::set<int> seen;
  std::function<void(int)> visit = [&](int v) {
    if (!seen.insert(v).second) return;
    for (int parent : parents_[v]) visit(parent);
  };
  visit(vertex);
  return {seen.begin(), seen.end()};
}

std::string DependencyGraph::ToDot(
    std::span<const ir::AnalyzedApp> apps) const {
  std::string out = "digraph deps {\n";
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    std::string label;
    for (const HandlerRef& ref : vertices_[v].members) {
      if (!label.empty()) label += "\\n";
      label += apps[ref.app].app.name + "." +
               apps[ref.app].handlers[ref.handler].name;
    }
    out += "  v" + std::to_string(v) + " [label=\"" + std::to_string(v) +
           ": " + label + "\"];\n";
  }
  for (std::size_t u = 0; u < children_.size(); ++u) {
    for (int v : children_[u]) {
      out += "  v" + std::to_string(u) + " -> v" + std::to_string(v) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::vector<RelatedSet> ComputeRelatedSets(const DependencyGraph& graph) {
  std::vector<std::vector<int>> sets;

  // Step 1: initial related set per leaf (ancestor closure).
  for (int leaf : graph.Leaves()) {
    sets.push_back(graph.AncestorClosure(leaf));
  }

  // Step 2: merge closures of vertices with conflicting outputs.
  const auto& vertices = graph.vertices();
  for (std::size_t u = 0; u < vertices.size(); ++u) {
    for (std::size_t v = u + 1; v < vertices.size(); ++v) {
      if (!AnyConflict(vertices[u].outputs, vertices[v].outputs)) continue;
      std::vector<int> merged = graph.AncestorClosure(static_cast<int>(u));
      std::vector<int> other = graph.AncestorClosure(static_cast<int>(v));
      merged.insert(merged.end(), other.begin(), other.end());
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      sets.push_back(std::move(merged));
    }
  }

  // Step 3: drop duplicates and subsets.
  std::vector<std::vector<int>> kept;
  for (const std::vector<int>& candidate : sets) {
    bool subsumed = false;
    for (const std::vector<int>& other : sets) {
      if (&candidate == &other) continue;
      if (candidate.size() > other.size()) continue;
      const bool subset = std::includes(other.begin(), other.end(),
                                        candidate.begin(), candidate.end());
      if (subset && (candidate.size() < other.size() || &candidate > &other)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(candidate);
  }

  std::vector<RelatedSet> result;
  for (std::vector<int>& vertex_ids : kept) {
    RelatedSet set;
    set.vertices = std::move(vertex_ids);
    std::set<int> apps;
    for (int v : set.vertices) {
      for (const HandlerRef& ref : graph.vertices()[v].members) {
        apps.insert(ref.app);
        ++set.handler_count;
      }
    }
    set.apps.assign(apps.begin(), apps.end());
    result.push_back(std::move(set));
  }
  if (auto* t = telemetry::Active()) {
    t->pipeline.related_sets += result.size();
  }
  return result;
}

ScaleStats ComputeScaleStats(std::span<const ir::AnalyzedApp> apps) {
  return ComputeScaleStats(
      apps, ComputeRelatedSets(DependencyGraph::Build(apps)));
}

ScaleStats ComputeScaleStats(std::span<const ir::AnalyzedApp> apps,
                             std::span<const RelatedSet> sets) {
  ScaleStats stats;
  for (const ir::AnalyzedApp& app : apps) {
    stats.original_size += static_cast<int>(app.handlers.size());
  }
  for (const RelatedSet& set : sets) {
    stats.new_size = std::max(stats.new_size, set.handler_count);
  }
  if (stats.new_size > 0) {
    stats.ratio =
        static_cast<double>(stats.original_size) / stats.new_size;
  }
  return stats;
}

}  // namespace iotsan::deps
