#include "core/query_mapping.h"

#include <set>
#include <unordered_map>

#include "common/filter_op.h"
#include "common/logging.h"

namespace grasp::core {

query::ConjunctiveQuery MapToQuery(const summary::AugmentedGraph& graph,
                                   const MatchingSubgraph& subgraph,
                                   const QueryMappingContext& context) {
  query::ConjunctiveQuery q;
  q.set_cost(subgraph.cost);

  std::unordered_map<summary::NodeId, query::VarId> var_of_node;
  auto var_of = [&](summary::NodeId n) {
    auto it = var_of_node.find(n);
    if (it != var_of_node.end()) return it->second;
    const query::VarId v = q.NewVariable();
    var_of_node.emplace(n, v);
    // Filter-operator extension: an artificial node introduced by an
    // operator keyword constrains its variable with a FILTER condition.
    if (const FilterSpec* filter = graph.FilterOf(n)) {
      q.AddFilter(query::FilterCondition{v, filter->op, filter->value});
    }
    return v;
  };
  auto emit_type = [&](summary::NodeId n) {
    const summary::SummaryNode& node = graph.node(n);
    if (node.kind != summary::NodeKind::kClass) return;  // Thing: no atom
    if (context.type_term == rdf::kInvalidTermId) return;
    q.AddAtom(query::Atom{context.type_term,
                          query::QueryTerm::Variable(var_of(n)),
                          query::QueryTerm::Constant(node.term)});
  };

  std::set<summary::NodeId> covered;
  for (summary::EdgeId e : subgraph.edges) {
    const summary::SummaryEdge& edge = graph.edge(e);
    covered.insert(edge.from);
    covered.insert(edge.to);
    switch (edge.kind) {
      case summary::SummaryEdgeKind::kAttribute: {
        emit_type(edge.from);
        const summary::SummaryNode& to = graph.node(edge.to);
        const query::QueryTerm object =
            to.kind == summary::NodeKind::kArtificial
                ? query::QueryTerm::Variable(var_of(edge.to))
                : query::QueryTerm::Constant(to.term);
        q.AddAtom(query::Atom{edge.label,
                              query::QueryTerm::Variable(var_of(edge.from)),
                              object});
        break;
      }
      case summary::SummaryEdgeKind::kRelation: {
        emit_type(edge.from);
        if (edge.from == edge.to) {
          // Self-loop at a class node: the two endpoints stand for two
          // *distinct* entities of that class (e.g. cites(Publication,
          // Publication)), so the object gets a fresh variable with its own
          // type atom rather than repeating var(v).
          const query::VarId object_var = q.NewVariable();
          const summary::SummaryNode& node = graph.node(edge.to);
          if (node.kind == summary::NodeKind::kClass &&
              context.type_term != rdf::kInvalidTermId) {
            q.AddAtom(query::Atom{context.type_term,
                                  query::QueryTerm::Variable(object_var),
                                  query::QueryTerm::Constant(node.term)});
          }
          q.AddAtom(query::Atom{edge.label,
                                query::QueryTerm::Variable(var_of(edge.from)),
                                query::QueryTerm::Variable(object_var)});
          break;
        }
        emit_type(edge.to);
        q.AddAtom(query::Atom{edge.label,
                              query::QueryTerm::Variable(var_of(edge.from)),
                              query::QueryTerm::Variable(var_of(edge.to))});
        break;
      }
      case summary::SummaryEdgeKind::kSubclass: {
        // Ground assertion between class constants; it joins nothing but
        // keeps the query faithful to the matched structure.
        q.AddAtom(query::Atom{
            edge.label,
            query::QueryTerm::Constant(graph.node(edge.from).term),
            query::QueryTerm::Constant(graph.node(edge.to).term)});
        break;
      }
    }
  }

  // Nodes not incident to any subgraph edge (single-element subgraphs or
  // keyword elements that already coincide with the connecting element).
  for (summary::NodeId n : subgraph.nodes) {
    if (covered.count(n) > 0) continue;
    const summary::SummaryNode& node = graph.node(n);
    if (node.kind == summary::NodeKind::kClass) {
      emit_type(n);
      continue;
    }
    if (node.kind == summary::NodeKind::kValue) {
      // Re-attach the value through one of its augmented A-edges so the
      // query can mention it (a V-vertex alone is not a triple pattern).
      // Under a predicate scope only admitted edges qualify; a value with
      // none has no in-scope interpretation.
      bool attached = false;
      for (summary::EdgeId e : graph.IncidentEdges(n)) {
        const summary::SummaryEdge& edge = graph.edge(e);
        if (edge.kind != summary::SummaryEdgeKind::kAttribute ||
            edge.to != n) {
          continue;
        }
        if (context.edge_filter != nullptr &&
            !context.edge_filter->Contains(e)) {
          continue;
        }
        emit_type(edge.from);
        q.AddAtom(query::Atom{edge.label,
                              query::QueryTerm::Variable(var_of(edge.from)),
                              query::QueryTerm::Constant(node.term)});
        attached = true;
        break;
      }
      if (!attached) return query::ConjunctiveQuery();
    }
    // Thing / artificial nodes in isolation constrain nothing.
  }

  q.DeduplicateAtoms();
  return q;
}

}  // namespace grasp::core
