// The engine's search pipeline rebuilt from each layer's public calls, so
// that the traced run can time the stages on the same keywords and the
// checks can hold the flat explorer against ReferenceExplorer.
#include <algorithm>
#include <cmath>
#include <map>

#include "common/filter_op.h"
#include "core/cost_model.h"
#include "core/exploration_reference.h"
#include "core/query_mapping.h"
#include "harness.h"

namespace perfbench {

std::string KeywordQuery::Key() const {
  std::string key;
  for (const std::string& k : keywords) key += k + " ";
  key += "|";
  for (const std::string& s : scope) key += s + ",";
  return key;
}

namespace {

/// The engine's keyword-stage selection, applied to the raw Lookup lists:
/// an element hit by h > 1 of the query's keywords has its scores scaled by
/// sqrt(h) (capped at 1), each list is stably reordered by (hits, score),
/// then truncated to max_matches_per_keyword.
void SelectMatches(std::vector<std::vector<keyword::KeywordMatch>>* matches,
                   std::size_t max_per_keyword) {
  if (matches->size() > 1) {
    std::map<std::pair<int, rdf::TermId>, int> hits;
    for (const auto& list : *matches) {
      for (const keyword::KeywordMatch& m : list) {
        ++hits[{static_cast<int>(m.kind), m.term}];
      }
    }
    for (auto& list : *matches) {
      for (keyword::KeywordMatch& m : list) {
        const int h = hits[{static_cast<int>(m.kind), m.term}];
        if (h > 1) m.score = std::min(1.0, m.score * std::sqrt(double(h)));
      }
      std::stable_sort(list.begin(), list.end(),
                       [&hits](const keyword::KeywordMatch& a,
                               const keyword::KeywordMatch& b) {
                         const int ha = hits[{static_cast<int>(a.kind), a.term}];
                         const int hb = hits[{static_cast<int>(b.kind), b.term}];
                         if (ha != hb) return ha > hb;
                         return a.score > b.score;
                       });
    }
  }
  for (auto& list : *matches) {
    if (list.size() > max_per_keyword) list.resize(max_per_keyword);
  }
}

struct Mapped {
  RankedEntry entry;
  double structure_cost = 0.0;
  std::size_t constants = 0;
};

}  // namespace

Replay ReplayQuery(const core::KeywordSearchEngine& engine,
                   const text::Thesaurus& thesaurus, const KeywordQuery& query,
                   std::size_t k, SpanLog* log, std::uint64_t op) {
  Replay r;
  const core::KeywordSearchEngine::Options& options = engine.options();
  ScopedSpan root(log, "replay", op, 0);

  // Keyword layer: one Lookup (or LookupFilter) per keyword, unbounded, as
  // the engine issues them.
  text::InvertedIndex::SearchOptions search = options.keyword_search;
  search.thesaurus = options.use_thesaurus ? &thesaurus : nullptr;
  search.max_results = 0;
  for (const std::string& kw : query.keywords) {
    ScopedSpan span(log, "keyword.lookup", op, root.id());
    const Clock::time_point start = Clock::now();
    if (const auto filter = grasp::ParseFilterKeyword(kw)) {
      auto match = engine.keyword_index().LookupFilter(*filter);
      r.matches.push_back(match.has_value()
                              ? std::vector<keyword::KeywordMatch>{*match}
                              : std::vector<keyword::KeywordMatch>{});
    } else {
      r.matches.push_back(engine.keyword_index().Lookup(kw, search));
    }
    r.lookup_ms += MillisSince(start);
    r.matches_returned += r.matches.back().size();
  }
  SelectMatches(&r.matches, options.max_matches_per_keyword);
  for (const auto& list : r.matches) r.matches_kept += list.size();

  // Summary layer: the augmented graph, plus the scope view when scoped.
  // Scope resolution mirrors the engine's cached per-scope step and stays
  // outside the timed span, as a repeated scope costs the engine a lookup.
  if (!query.scope.empty()) {
    r.scope_terms = ResolveScope(engine.dictionary(), query.scope);
    r.summary_mask = std::make_unique<graph::EdgeFilter>(
        engine.summary_graph().PredicateScopeFilter(r.scope_terms));
  }
  {
    ScopedSpan span(log, "summary.augment", op, root.id());
    const Clock::time_point start = Clock::now();
    r.graph = std::make_unique<summary::AugmentedGraph>(
        summary::AugmentedGraph::Build(engine.summary_graph(), r.matches));
    if (r.summary_mask != nullptr) {
      r.scoped_view = std::make_unique<graph::OverlayEdgeFilter>(
          r.graph->ScopedFilter(r.summary_mask.get(), r.scope_terms));
    }
    r.augment_ms = MillisSince(start);
  }

  // Core layer: exploration with the engine's overfetch.
  r.explore = options.exploration;
  r.explore.k = std::max<std::size_t>(
      k, static_cast<std::size_t>(std::ceil(static_cast<double>(k) *
                                            options.subgraph_overfetch)));
  r.explore.edge_filter = r.scoped_view.get();
  {
    ScopedSpan span(log, "core.explore", op, root.id());
    const Clock::time_point start = Clock::now();
    core::SubgraphExplorer explorer(*r.graph, r.explore);
    r.subgraphs = explorer.FindTopK();
    r.stats = explorer.stats();
    r.explore_ms = MillisSince(start);
  }

  // Core layer: mapping to conjunctive queries, deduplicated up to
  // isomorphism, ranked with the engine's tie-breaks.
  {
    ScopedSpan span(log, "core.map", op, root.id());
    const Clock::time_point start = Clock::now();
    core::QueryMappingContext context;
    context.type_term = engine.data_graph().type_term();
    const core::CostFunction popularity(core::CostModel::kPopularity,
                                        *r.graph);
    std::vector<Mapped> mapped;
    std::map<std::string, std::size_t> seen;
    for (const core::MatchingSubgraph& sg : r.subgraphs) {
      query::ConjunctiveQuery q = core::MapToQuery(*r.graph, sg, context);
      if (q.empty()) continue;
      Mapped m;
      m.entry.cost = sg.cost;
      m.entry.canonical = q.CanonicalString();
      for (summary::NodeId n : sg.nodes) {
        m.structure_cost +=
            popularity.ElementCost(summary::ElementId::Node(n));
      }
      for (summary::EdgeId e : sg.edges) {
        m.structure_cost +=
            popularity.ElementCost(summary::ElementId::Edge(e));
      }
      for (const query::Atom& atom : q.atoms()) {
        if (!atom.subject.is_variable) ++m.constants;
        if (!atom.object.is_variable) ++m.constants;
      }
      auto it = seen.find(m.entry.canonical);
      if (it != seen.end()) {
        if (q.cost() < mapped[it->second].entry.cost) {
          mapped[it->second] = std::move(m);
        }
        continue;
      }
      seen.emplace(m.entry.canonical, mapped.size());
      mapped.push_back(std::move(m));
    }
    std::sort(mapped.begin(), mapped.end(),
              [](const Mapped& a, const Mapped& b) {
                if (a.entry.cost != b.entry.cost) {
                  return a.entry.cost < b.entry.cost;
                }
                if (a.structure_cost != b.structure_cost) {
                  return a.structure_cost < b.structure_cost;
                }
                if (a.constants != b.constants) {
                  return a.constants < b.constants;
                }
                return a.entry.canonical < b.entry.canonical;
              });
    if (mapped.size() > k) mapped.resize(k);
    for (Mapped& m : mapped) r.ranking.push_back(std::move(m.entry));
    r.map_ms = MillisSince(start);
  }
  return r;
}

std::string CheckAgainstReference(const Replay& replay) {
  core::ReferenceExplorer reference(*replay.graph, replay.explore);
  const std::vector<core::MatchingSubgraph> expected = reference.FindTopK();
  if (expected.size() != replay.subgraphs.size()) {
    return "flat explorer returned " + std::to_string(replay.subgraphs.size()) +
           " subgraphs, reference " + std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].cost != replay.subgraphs[i].cost) {
      return "cost differs from the reference at position " +
             std::to_string(i);
    }
    if (expected[i].StructureKey() != replay.subgraphs[i].StructureKey()) {
      return "structure differs from the reference at position " +
             std::to_string(i);
    }
  }
  return "";
}

}  // namespace perfbench
