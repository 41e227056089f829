#include "common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
#include "summary/summary_graph.h"

namespace perfbench {

/// Threads for the untimed reference checks (at most the machine's 4 cores).
constexpr std::size_t kCheckThreads = 4;
/// Replayed queries get operation ids above any timed operation's.
constexpr std::uint64_t kReplayOpBase = std::uint64_t{1} << 40;

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                what.c_str());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double CacheHitRatio(const summary::AugmentationCache::Stats& before,
                     const summary::AugmentationCache::Stats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

std::vector<Metric> LayerMetrics(const LayerFigures& f) {
  return {
      {"rdf.graph_build_ms", f.graph_build_ms, "ms"},
      {"summary.build_ms", f.summary_build_ms, "ms"},
      {"keyword.index_build_ms", f.index_build_ms, "ms"},
      {"snapshot.save_ms", f.save_ms, "ms"},
      {"snapshot.open_ms", f.open_ms, "ms"},
      {"keyword.lookup_ms", f.lookup_ms, "ms"},
      {"keyword.matches", f.matches, "count"},
      {"keyword.kept_ratio", f.kept_ratio, "ratio"},
      {"summary.augment_ms", f.augment_ms, "ms"},
      {"summary.cache_hit_ratio", f.cache_hit_ratio, "ratio"},
      {"core.search_ms", f.search_ms, "ms"},
      {"core.explore_ms", f.explore_ms, "ms"},
      {"core.explore.pops", f.pops, "count"},
      {"core.explore.ns_per_pop", f.ns_per_pop, "ns"},
      {"core.explore.candidates", f.candidates, "count"},
      {"core.explore.distinct_ratio", f.distinct_ratio, "ratio"},
      {"core.map_ms", f.map_ms, "ms"},
      {"query.eval_ms", f.eval_ms, "ms"},
      {"query.eval_rows", f.eval_rows, "count"},
      {"serve.queue_ms", f.queue_ms, "ms"},
      {"serve.service_ms", f.service_ms, "ms"},
      {"net.overhead_ms", f.net_overhead_ms, "ms"},
      {"net.response_bytes", f.response_bytes, "bytes"},
      {"loadgen.late_ms", f.late_ms, "ms"},
  };
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"latency_p50_ms", e.latency_p50_ms, "ms"},
      {"latency_tail_ms", e.latency_tail_ms, "ms"},
      {"queries_per_s", e.queries_per_s, "1/s"},
      {"cpu_ms_per_query", e.cpu_ms_per_query, "ms"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
      {"setup_s", e.setup_s, "s"},
      {"index_mb", e.index_mb, "MiB"},
  };
}

void TimeSetupBuilders(const core::KeywordSearchEngine& engine,
                       const rdf::TripleStore& store,
                       const rdf::Dictionary& dictionary, int reps,
                       SpanLog* log, LayerFigures* figures) {
  std::vector<double> graph_ms, summary_ms, index_ms;
  for (int rep = 0; rep < reps; ++rep) {
    Clock::time_point start = Clock::now();
    std::uint64_t span = log->Begin("rdf.graph_build", 0, 0);
    rdf::DataGraph graph = rdf::DataGraph::Build(store, dictionary);
    log->End(span);
    graph_ms.push_back(MillisSince(start));

    start = Clock::now();
    span = log->Begin("summary.build", 0, 0);
    summary::SummaryGraph summary_graph = summary::SummaryGraph::Build(graph);
    log->End(span);
    summary_ms.push_back(MillisSince(start));

    start = Clock::now();
    span = log->Begin("keyword.index_build", 0, 0);
    keyword::KeywordIndex index =
        keyword::KeywordIndex::Build(graph, engine.options().analyzer);
    log->End(span);
    index_ms.push_back(MillisSince(start));
  }
  figures->graph_build_ms = Median(graph_ms);
  figures->summary_build_ms = Median(summary_ms);
  figures->index_build_ms = Median(index_ms);
}

double IndexMiB(const core::KeywordSearchEngine& engine,
                const std::string& work_dir, RunResult* result) {
  const std::string path = work_dir + "/index-size.img";
  const Status saved = engine.SaveIndex(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: SaveIndex failed: %s\n",
                 saved.ToString().c_str());
    result->correct = false;
    return 0.0;
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  std::filesystem::remove(path, ec);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::vector<std::string> CheckAllAgainstReference(
    const core::KeywordSearchEngine& engine,
    const std::vector<KeywordQuery>& distinct, std::size_t k) {
  std::vector<std::string> failures(distinct.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    const text::Thesaurus thesaurus = text::Thesaurus::BuiltIn();
    SpanLog off(false, 0);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= distinct.size()) return;
      const Replay replay =
          ReplayQuery(engine, thesaurus, distinct[i], k, &off, 0);
      failures[i] = CheckAgainstReference(replay);
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      {kCheckThreads, std::max<unsigned>(1, std::thread::hardware_concurrency()),
       std::max<std::size_t>(1, distinct.size())});
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return failures;
}

void ReplayStages(const core::KeywordSearchEngine& engine,
                  const std::vector<KeywordQuery>& distinct,
                  const std::vector<std::size_t>& weight, std::size_t k,
                  int reps, SpanLog* log, LayerFigures* figures) {
  const text::Thesaurus thesaurus = text::Thesaurus::BuiltIn();
  double total_weight = 0.0, lookup = 0.0, augment = 0.0, explore = 0.0,
         map = 0.0, returned = 0.0, kept = 0.0, pops = 0.0, generated = 0.0,
         deduplicated = 0.0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    if (weight[i] == 0) continue;
    std::vector<double> lookup_ms, augment_ms, explore_ms, map_ms;
    Replay last;
    for (int rep = 0; rep < reps; ++rep) {
      last = ReplayQuery(engine, thesaurus, distinct[i], k, log,
                         kReplayOpBase + i);
      lookup_ms.push_back(last.lookup_ms);
      augment_ms.push_back(last.augment_ms);
      explore_ms.push_back(last.explore_ms);
      map_ms.push_back(last.map_ms);
    }
    const double w = static_cast<double>(weight[i]);
    total_weight += w;
    lookup += w * Median(lookup_ms);
    augment += w * Median(augment_ms);
    explore += w * Median(explore_ms);
    map += w * Median(map_ms);
    returned += w * static_cast<double>(last.matches_returned);
    kept += w * static_cast<double>(last.matches_kept);
    pops += w * static_cast<double>(last.stats.cursors_popped);
    generated += w * static_cast<double>(last.stats.subgraphs_generated);
    deduplicated += w * static_cast<double>(last.stats.subgraphs_deduplicated);
  }
  if (total_weight == 0.0) return;
  figures->lookup_ms = lookup / total_weight;
  figures->matches = returned / total_weight;
  figures->kept_ratio = returned > 0.0 ? kept / returned : 0.0;
  figures->augment_ms = augment / total_weight;
  figures->explore_ms = explore / total_weight;
  figures->map_ms = map / total_weight;
  figures->ns_per_pop = pops > 0.0 ? explore * 1e6 / pops : 0.0;
  figures->pops = pops / total_weight;
  figures->candidates = generated / total_weight;
  figures->distinct_ratio =
      generated > 0.0 ? (generated - deduplicated) / generated : 0.0;
}

void MarkReferenceFailures(const std::vector<std::string>& failures,
                           std::vector<OpRecord>* ops, RunResult* result) {
  for (OpRecord& op : *ops) {
    const std::string& why = failures[op.query];
    if (why.empty()) continue;
    if (!op.failed) result->Fail("reference explorer: " + why);
    op.failed = true;
  }
}

}  // namespace perfbench
