// Helpers shared by the three workloads (private to the benchmark binary).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One operation of a run: which query it issued, how long it took and
/// whether any check failed on its output.
struct OpRecord {
  std::size_t query = 0;
  double latency_ms = 0.0;
  bool failed = false;
};

/// Figures the traced run reduces to the per-layer metrics. Layers a
/// workload does not use stay 0.
struct LayerFigures {
  double graph_build_ms = 0.0;
  double summary_build_ms = 0.0;
  double index_build_ms = 0.0;
  double save_ms = 0.0;
  double open_ms = 0.0;
  double lookup_ms = 0.0;
  double matches = 0.0;
  double kept_ratio = 0.0;
  double augment_ms = 0.0;
  double cache_hit_ratio = 0.0;
  double search_ms = 0.0;
  double explore_ms = 0.0;
  double pops = 0.0;
  double ns_per_pop = 0.0;
  double candidates = 0.0;
  double distinct_ratio = 0.0;
  double map_ms = 0.0;
  double eval_ms = 0.0;
  double eval_rows = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double net_overhead_ms = 0.0;
  double response_bytes = 0.0;
  double late_ms = 0.0;
};

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const LayerFigures& f);

/// The end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double queries_per_s = 0.0;
  double cpu_ms_per_query = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  double index_mb = 0.0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

/// Times the three set-up builders through their public calls (median of
/// `reps`), recording spans under operation 0.
void TimeSetupBuilders(const core::KeywordSearchEngine& engine,
                       const rdf::TripleStore& store,
                       const rdf::Dictionary& dictionary, int reps,
                       SpanLog* log, LayerFigures* figures);

/// Size of the image SaveIndex writes for `engine`, in MiB; the image is
/// written under `work_dir` and removed again.
double IndexMiB(const core::KeywordSearchEngine& engine,
                const std::string& work_dir, RunResult* result);

/// Replays every query in `distinct` and checks the flat explorer against
/// ReferenceExplorer, on up to four threads. Returns one failure message
/// per query (empty when it passed).
std::vector<std::string> CheckAllAgainstReference(
    const core::KeywordSearchEngine& engine,
    const std::vector<KeywordQuery>& distinct, std::size_t k);

/// Per-layer stage figures and exploration counts from single-threaded
/// replays of the distinct queries, each weighted by how many operations
/// issued it. The median of `reps` replays is taken per query; the counts
/// equal the served searches' (same augmented graph, same options).
void ReplayStages(const core::KeywordSearchEngine& engine,
                  const std::vector<KeywordQuery>& distinct,
                  const std::vector<std::size_t>& weight, std::size_t k,
                  int reps, SpanLog* log, LayerFigures* figures);

/// Marks every operation of a query whose reference check failed.
void MarkReferenceFailures(const std::vector<std::string>& failures,
                           std::vector<OpRecord>* ops, RunResult* result);

double Median(std::vector<double> samples);

/// Augmentation-cache hits over lookups between two readings of
/// KeywordSearchEngine::augmentation_cache_stats() (0 without lookups).
double CacheHitRatio(const summary::AugmentationCache::Stats& before,
                     const summary::AugmentationCache::Stats& after);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
