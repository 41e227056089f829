#ifndef GRASP_CORE_QUERY_MAPPING_H_
#define GRASP_CORE_QUERY_MAPPING_H_

#include "core/subgraph.h"
#include "graph/edge_filter.h"
#include "query/conjunctive_query.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

/// Context the mapping rules need beyond the subgraph itself.
struct QueryMappingContext {
  /// Interned id of the `type` predicate (DataGraph::type_term()); atoms
  /// type(var, class) use it. kInvalidTermId suppresses type atoms (only
  /// possible for data without any class assertions).
  rdf::TermId type_term = rdf::kInvalidTermId;
  /// The query's predicate scope over the augmented graph (the view the
  /// exploration ran on); must outlive the call. A lone V-vertex is only
  /// re-attached through an A-edge the scope admits. nullptr = unscoped.
  const graph::OverlayEdgeFilter* edge_filter = nullptr;
};

/// Translates a matching subgraph of the augmented summary graph into a
/// conjunctive query via the deterministic rules of Sec. VI-D:
///
///  - every subgraph node receives a distinct variable var(v);
///  - A-edge e(c, value-vertex v2): emits type(var(c), c) and
///    e(var(c), constant(v2)); for artificial `value` nodes the object stays
///    a fresh variable e(var(c), var(value));
///  - R-edge e(c1, c2): emits type atoms for both class endpoints plus
///    e(var(c1), var(c2));
///  - subclass edges between classes become the ground atom
///    subclass(c1, c2) (checkable against the data, joins nothing);
///  - `Thing` nodes emit no type atom (they stand for untyped entities);
///  - a subgraph consisting of a single class node maps to type(x, c); a
///    single keyword V-vertex maps through its first incident A-edge that
///    the context's edge filter admits. With no such edge the V-vertex
///    cannot be expressed in scope and the result is an empty query.
///
/// The query's cost is set to the subgraph's cost. Duplicate atoms emitted
/// by adjacent rules are removed.
query::ConjunctiveQuery MapToQuery(const summary::AugmentedGraph& graph,
                                   const MatchingSubgraph& subgraph,
                                   const QueryMappingContext& context);

}  // namespace grasp::core

#endif  // GRASP_CORE_QUERY_MAPPING_H_
