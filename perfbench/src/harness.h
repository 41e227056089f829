// Shared pieces of the keyword-search benchmark: statistics, span tracing,
// output checks, the stage-by-stage replay of one search, the datasets and
// the keep-alive HTTP client. Every timing here is taken from outside the
// program, around calls into the layers' public functions.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/exploration.h"
#include "graph/edge_filter.h"
#include "net/socket.h"
#include "query/evaluator.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "summary/augmented_graph.h"
#include "text/thesaurus.h"

namespace perfbench {

namespace core = grasp::core;
namespace graph = grasp::graph;
namespace keyword = grasp::keyword;
namespace query = grasp::query;
namespace rdf = grasp::rdf;
namespace summary = grasp::summary;
namespace text = grasp::text;
using grasp::Status;

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process CPU time (user + sys, every thread) in milliseconds.
double ProcessCpuMillis();
/// Peak resident set of this process in MiB.
double PeakRssMiB();

// ------------------------------------------------------------------ stats --

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. Empty input gives 0.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile position.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The highest of the percentiles 99.9, 99 and 90 that leaves at least ten
/// samples beyond it out of n (50 when none does).
double TailPercentileFor(std::size_t n);

/// How late an open-loop send was: actual send time minus scheduled send
/// time, never negative.
double LatenessMillis(Clock::time_point scheduled, Clock::time_point sent);

// ---------------------------------------------------------------- tracing --

/// One timed interval at a layer boundary. Spans of one operation share
/// `op`; `parent` is the id of the span that caused this one (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread, in-memory span buffer. Disabled logs record nothing and
/// cost one branch per span.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint64_t id_base)
      : enabled_(enabled), next_id_(id_base) {}
  std::uint64_t Begin(const char* name, std::uint64_t op,
                      std::uint64_t parent);
  void End(std::uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // id -> index in spans_
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op,
             std::uint64_t parent)
      : log_(log), id_(log->Begin(name, op, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// Per span name: how many, total duration and self time (duration minus
/// the part of its interval that its children cover), in milliseconds.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> ReduceSpans(const std::vector<Span>& spans);

/// Self time of `span` given its children's intervals (union, clipped to
/// the span), in milliseconds.
double SelfMillis(const Span& span, const std::vector<Span>& children);

// ----------------------------------------------------------------- checks --

/// One ranked interpretation as the checks see it, from the engine or from
/// an HTTP body.
struct RankedEntry {
  double cost = 0.0;
  std::string canonical;
};

std::vector<RankedEntry> EntriesOf(
    const core::KeywordSearchEngine::SearchResult& result);

/// The ranking contract: OK, not degraded, 1..k entries, non-decreasing
/// costs, pairwise distinct canonical forms. Returns the first violation,
/// or an empty string.
std::string CheckRanking(const Status& status, bool degraded,
                         const std::vector<RankedEntry>& entries,
                         std::size_t k);

/// Every row satisfies every atom (checked with TripleStore::Contains, not
/// through query::Evaluate) and every FILTER of `query`.
std::string CheckAnswerRows(const query::ConjunctiveQuery& query,
                            const query::EvalResult& result,
                            const rdf::TripleStore& store,
                            const rdf::Dictionary& dictionary);

/// Resolves predicate-scope strings the way the engine documents it: exact
/// IRI first, then IRI local name. Sorted, deduplicated.
std::vector<rdf::TermId> ResolveScope(const rdf::Dictionary& dictionary,
                                      const std::vector<std::string>& scope);

/// Every atom of every ranked query uses an in-scope predicate, rdf:type
/// or the subclass predicate.
std::string CheckScope(const core::KeywordSearchEngine::SearchResult& result,
                       const std::vector<rdf::TermId>& scope_terms,
                       rdf::TermId type_term, rdf::TermId subclass_term);

/// Parsed `/search` response body.
struct HttpRanking {
  std::string status;
  bool degraded = false;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  std::vector<RankedEntry> entries;
  /// Costs as the wire printed them, for exact comparison.
  std::vector<std::string> cost_text;
};
bool ParseSearchBody(const std::string& body, HttpRanking* out);

/// The wire ranking equals `expected` (costs printed as %.6f, canonical
/// strings byte for byte).
std::string CompareWireRanking(const HttpRanking& wire,
                               const std::vector<RankedEntry>& expected);

// ----------------------------------------------------------------- replay --

/// One keyword query of a workload.
struct KeywordQuery {
  std::vector<std::string> keywords;
  std::vector<std::string> scope;  ///< empty = unscoped
  std::string Key() const;
};

/// The engine's pipeline rebuilt from the layers' public calls:
/// KeywordIndex::Lookup -> AugmentedGraph::Build -> SubgraphExplorer
/// ::FindTopK -> MapToQuery + CanonicalString.
struct Replay {
  std::vector<std::vector<keyword::KeywordMatch>> matches;  ///< kept
  std::size_t matches_returned = 0;  ///< summed over the Lookup calls
  std::size_t matches_kept = 0;
  std::unique_ptr<summary::AugmentedGraph> graph;
  std::vector<rdf::TermId> scope_terms;
  std::unique_ptr<graph::EdgeFilter> summary_mask;
  std::unique_ptr<graph::OverlayEdgeFilter> scoped_view;
  core::ExplorationOptions explore;
  std::vector<core::MatchingSubgraph> subgraphs;
  core::ExplorationStats stats;
  std::vector<RankedEntry> ranking;
  double lookup_ms = 0.0;
  double augment_ms = 0.0;
  double explore_ms = 0.0;
  double map_ms = 0.0;
};

/// Replays `query` on `engine`'s indexes. With an enabled `log`, records a
/// `replay` root span and its stage spans under operation `op`.
Replay ReplayQuery(const core::KeywordSearchEngine& engine,
                   const text::Thesaurus& thesaurus, const KeywordQuery& query,
                   std::size_t k, SpanLog* log, std::uint64_t op);

/// Runs ReferenceExplorer on the replay's augmented graph with the same
/// options and compares costs and structure keys with the replay's
/// SubgraphExplorer result.
std::string CheckAgainstReference(const Replay& replay);

// --------------------------------------------------------------- datasets --

/// Generated triples plus their dictionary. The store is left unfinalized:
/// finalizing it is the first step of set-up.
struct Dataset {
  rdf::Dictionary dictionary;
  rdf::TripleStore store;
};

/// The benchmark's datasets, at the scale of GRASP_BENCH_SCALE=4 (LUBM: 8)
/// and with the generators' fixed seeds.
std::unique_ptr<Dataset> MakeDblp();
std::unique_ptr<Dataset> MakeTap();
std::unique_ptr<Dataset> MakeLubm();

/// Keyword tokens of a label, as a user would type them: the label split
/// at non-alphanumerics and camelCase boundaries, lowercased.
std::vector<std::string> LabelTokens(std::string_view label);

// ------------------------------------------------------------ http client --

/// Blocking keep-alive HTTP/1.1 client over one connection.
class HttpClient {
 public:
  /// Connects to 127.0.0.1:`port`.
  Status Connect(std::uint16_t port);
  /// GET /search for `keywords` (top `k`); fills the status code and body.
  Status Search(const std::vector<std::string>& keywords, std::size_t k,
                int* http_status, std::string* body);

 private:
  Status ReadResponse(int* http_status, std::string* body);
  grasp::net::OwnedFd fd_;
  std::string buffer_;
};

// ---------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Spans of the traced run (empty when tracing is off).
  std::vector<Span> spans;
  /// End-to-end figures of a traced run, for the tracing-overhead report.
  std::vector<Metric> end_to_end_when_traced;

  /// Records one failed check. Prints the first few to stderr.
  void Fail(const std::string& what);
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for snapshot images and trace dumps.
  std::string work_dir;
};

RunResult RunDblpFig5(const RunOptions& options);
RunResult RunTapExplore(const RunOptions& options);
RunResult RunLubmHttp(const RunOptions& options);

/// Fisher-Yates shuffle with an explicit modulo draw, so the order depends
/// only on the seed and not on the standard library's distributions.
template <typename T>
void SeededShuffle(std::vector<T>* items, std::mt19937_64* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>((*rng)() % i);
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
