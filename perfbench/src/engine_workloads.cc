// dblp-fig5 and tap-explore: one client in a closed loop, calling the
// engine directly (the serve and net layers are bypassed).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

#include "common.h"
#include "datagen/tap_gen.h"
#include "datagen/workload.h"
#include "rdf/data_graph.h"
#include "rdf/term.h"

namespace perfbench {
namespace {

constexpr std::size_t kTopK = 10;
constexpr std::size_t kAnswerRows = 10;
constexpr int kDblpSetUps = 8;
constexpr int kTapSetUps = 16;
/// Tail percentiles: TailPercentileFor() of a 20 s run's operation count at
/// this commit's speed (about 2900 and 320; 29 and 32 samples beyond).
/// Fixed, so that faster or slower code is compared on the same percentile.
constexpr double kDblpTailPercentile = 99.0;
constexpr double kTapTailPercentile = 90.0;

/// One set-up: finalize the generated triples, build the engine, serve one
/// query; returns its seconds. Set-up queries are checked but are not
/// operations, so that every run's operations are whole rounds.
struct EngineSetUp {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<core::KeywordSearchEngine> engine;
};

template <typename MakeData>
double TimeSetUp(MakeData make_data, const std::vector<std::string>& first_query,
                 EngineSetUp* s, RunResult* result) {
  s->engine.reset();
  s->data = make_data();
  const Clock::time_point start = Clock::now();
  s->data->store.Finalize();
  s->engine = std::make_unique<core::KeywordSearchEngine>(s->data->store,
                                                          s->data->dictionary);
  const auto first = s->engine->Search(first_query, kTopK);
  const double seconds = MillisSince(start) / 1e3;
  const std::string why =
      CheckRanking(first.status, first.degraded, EntriesOf(first), kTopK);
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench: set-up query: %s\n", why.c_str());
    result->correct = false;
  }
  return seconds;
}

/// setup_s is the median of `reps` set-ups, half timed before the measured
/// loop and half after it, so that a slow stretch of the machine at either
/// end moves it less. The last set-up before the loop serves the loop.
template <typename MakeData>
EngineSetUp SetUpBefore(MakeData make_data, int reps,
                        const std::vector<std::string>& first_query,
                        std::vector<double>* seconds, RunResult* result) {
  EngineSetUp s;
  for (int rep = 0; rep < (reps + 1) / 2; ++rep) {
    seconds->push_back(TimeSetUp(make_data, first_query, &s, result));
  }
  return s;
}

template <typename MakeData>
double SetUpAfter(MakeData make_data, int reps,
                  const std::vector<std::string>& first_query,
                  std::vector<double>* seconds, RunResult* result) {
  for (int rep = 0; rep < reps / 2; ++rep) {
    EngineSetUp s;
    seconds->push_back(TimeSetUp(make_data, first_query, &s, result));
  }
  return Median(*seconds);
}

/// Closed-loop accounting shared by both engine workloads: wall and CPU
/// time of the loop minus the time spent checking outputs.
struct LoopClock {
  Clock::time_point start = Clock::now();
  double cpu_start = ProcessCpuMillis();
  double check_wall_ms = 0.0;
  double check_cpu_ms = 0.0;

  double ElapsedMillis() const { return MillisSince(start) - check_wall_ms; }
  double CpuMillis() const {
    return ProcessCpuMillis() - cpu_start - check_cpu_ms;
  }
};

/// Brackets an output check so the loop's figures exclude it.
class CheckTimer {
 public:
  explicit CheckTimer(LoopClock* clock)
      : clock_(clock), start_(Clock::now()), cpu_(ProcessCpuMillis()) {}
  ~CheckTimer() {
    clock_->check_wall_ms += MillisSince(start_);
    clock_->check_cpu_ms += ProcessCpuMillis() - cpu_;
  }
  CheckTimer(const CheckTimer&) = delete;
  CheckTimer& operator=(const CheckTimer&) = delete;

 private:
  LoopClock* clock_;
  Clock::time_point start_;
  double cpu_;
};

void FillLoopFigures(const std::vector<OpRecord>& ops, const LoopClock& clock,
                     double tail_p, EndToEnd* e) {
  std::vector<double> latency;
  for (const OpRecord& op : ops) latency.push_back(op.latency_ms);
  const double n = static_cast<double>(ops.size());
  e->latency_tail_ms = Percentile(latency, tail_p);
  e->queries_per_s = n / (clock.ElapsedMillis() / 1e3);
  e->cpu_ms_per_query = clock.CpuMillis() / n;
  e->peak_rss_mb = PeakRssMiB();
  if (SamplesBeyond(ops.size(), tail_p) < 10) {
    std::fprintf(stderr,
                 "perfbench: only %zu samples beyond p%g; lengthen the run\n",
                 SamplesBeyond(ops.size(), tail_p), tail_p);
  }
}

}  // namespace

// ------------------------------------------------------------- dblp-fig5 --
//
// Fig. 5's protocol on DBLP: Q1-Q10, each operation a Search for the top 10
// queries followed by Answers on them, best first, until 10 rows. Rounds
// run all ten queries in a seeded order until the run's time is used.
RunResult RunDblpFig5(const RunOptions& options) {
  RunResult result;
  SpanLog log(options.trace, 0);
  std::vector<KeywordQuery> queries;
  for (const auto& w : grasp::datagen::DblpPerformanceWorkload()) {
    queries.push_back(KeywordQuery{w.keywords, {}});
  }

  std::vector<double> setup_seconds;
  EngineSetUp set_up = SetUpBefore(MakeDblp, kDblpSetUps, queries[0].keywords,
                                   &setup_seconds, &result);
  const core::KeywordSearchEngine& engine = *set_up.engine;
  const rdf::TripleStore& store = set_up.data->store;
  const rdf::Dictionary& dictionary = set_up.data->dictionary;

  std::mt19937_64 rng(options.seed);
  std::vector<OpRecord> ops;
  std::vector<std::vector<double>> per_query_ms(queries.size());
  double eval_ms = 0.0, eval_rows = 0.0, search_ms = 0.0, pops = 0.0,
         generated = 0.0, deduplicated = 0.0;
  const auto cache_before = engine.augmentation_cache_stats();
  LoopClock clock;
  while (clock.ElapsedMillis() < options.seconds * 1e3) {
    std::vector<std::size_t> order(queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    SeededShuffle(&order, &rng);
    for (std::size_t qi : order) {
      const std::uint64_t op_id = ops.size() + 1;
      OpRecord op;
      op.query = qi;
      std::vector<query::EvalResult> answers;
      std::vector<const query::ConjunctiveQuery*> answered;
      std::string eval_error;
      const Clock::time_point start = Clock::now();
      const std::uint64_t root = log.Begin("op", op_id, 0);
      std::uint64_t span = log.Begin("core.search", op_id, root);
      const Clock::time_point search_start = Clock::now();
      const auto found = engine.Search(queries[qi].keywords, kTopK);
      const double this_search_ms = MillisSince(search_start);
      log.End(span);
      std::size_t rows = 0;
      const Clock::time_point eval_start = Clock::now();
      for (const auto& ranked : found.queries) {
        if (rows >= kAnswerRows) break;
        span = log.Begin("query.eval", op_id, root);
        auto evaluated = engine.Answers(ranked.query, kAnswerRows - rows);
        log.End(span);
        if (!evaluated.ok()) {
          eval_error = evaluated.status().ToString();
          break;
        }
        rows += evaluated.value().rows.size();
        answers.push_back(std::move(evaluated).value());
        answered.push_back(&ranked.query);
      }
      const double this_eval_ms = MillisSince(eval_start);
      log.End(root);
      op.latency_ms = MillisSince(start);

      {
        CheckTimer check(&clock);
        std::string why = CheckRanking(found.status, found.degraded,
                                       EntriesOf(found), kTopK);
        if (why.empty() && !eval_error.empty()) why = "Answers: " + eval_error;
        for (std::size_t a = 0; why.empty() && a < answers.size(); ++a) {
          why = CheckAnswerRows(*answered[a], answers[a], store, dictionary);
        }
        if (!why.empty()) {
          result.Fail(queries[qi].Key() + ": " + why);
          op.failed = true;
        }
        search_ms += this_search_ms;
        eval_ms += this_eval_ms;
        eval_rows += static_cast<double>(rows);
        pops += static_cast<double>(found.exploration_stats.cursors_popped);
        generated +=
            static_cast<double>(found.exploration_stats.subgraphs_generated);
        deduplicated += static_cast<double>(
            found.exploration_stats.subgraphs_deduplicated);
      }
      per_query_ms[qi].push_back(op.latency_ms);
      ops.push_back(op);
    }
  }

  EndToEnd e;
  FillLoopFigures(ops, clock, kDblpTailPercentile, &e);
  // Every query runs equally often, so the pooled median would fall in the
  // gap between the fifth- and sixth-fastest query and jump between them;
  // the median of the ten per-query medians is the steady centre.
  std::vector<double> medians;
  for (const auto& samples : per_query_ms) medians.push_back(Median(samples));
  e.latency_p50_ms = Median(medians);
  const auto cache_after = engine.augmentation_cache_stats();
  e.index_mb = IndexMiB(engine, options.work_dir, &result);
  e.setup_s = SetUpAfter(MakeDblp, kDblpSetUps, queries[0].keywords,
                         &setup_seconds, &result);

  MarkReferenceFailures(CheckAllAgainstReference(engine, queries, kTopK),
                        &ops, &result);
  result.attempted += ops.size();

  if (options.trace) {
    const double n = static_cast<double>(ops.size());
    LayerFigures f;
    TimeSetupBuilders(engine, store, dictionary, 3, &log, &f);
    std::vector<std::size_t> weight(queries.size(), 0);
    for (const OpRecord& op : ops) ++weight[op.query];
    ReplayStages(engine, queries, weight, kTopK, 3, &log, &f);
    f.cache_hit_ratio = CacheHitRatio(cache_before, cache_after);
    f.search_ms = search_ms / n;
    // Exploration counts from SearchResult::exploration_stats.
    f.pops = pops / n;
    f.candidates = generated / n;
    f.distinct_ratio = generated > 0.0 ? (generated - deduplicated) / generated
                                       : 0.0;
    f.eval_ms = eval_ms / n;
    f.eval_rows = eval_rows / n;
    result.metrics = LayerMetrics(f);
    result.end_to_end_when_traced = EndToEndMetrics(e);
    result.spans = log.spans();
  } else {
    result.metrics = EndToEndMetrics(e);
  }
  return result;
}

// ----------------------------------------------------------- tap-explore --
namespace {

/// TAP queries are shaped like T1-T9: the two words of a leaf class label
/// (domain and concept, as the data spells them), sometimes with the number
/// of an instance name. They come in fixed rounds; the run's seed only
/// orders the operations inside each round.
constexpr std::uint64_t kTapPoolSeed = 20090329;
constexpr std::size_t kTapRounds = 150;
/// Per round: 4 two-word and 5 three-word queries; the last of each kind
/// carries a predicate scope. The scopes hold both attribute predicates.
/// With the probe, 6 of 10 operations carry a number and are heavy, so the
/// median falls inside their times rather than in the gap between the two
/// groups. The data spell 240 two-word class labels, enough for 59 rounds.
constexpr std::size_t kTapPairs = 4;
constexpr std::size_t kTapTriples = 5;
/// One operation per round repeats this fixed scoped query, whose ranking
/// breaks its scope (see README): it fails every time, so each round has
/// exactly one failed operation until the engine is fixed.
const KeywordQuery kTapScopeProbe{{"history", "album", "2"}, {"name"}};

std::vector<std::vector<KeywordQuery>> TapRounds(
    const core::KeywordSearchEngine& engine, const Dataset& data,
    const std::vector<std::string>& exclude) {
  const rdf::Dictionary& dict = data.dictionary;
  const rdf::TermId type_term = engine.data_graph().type_term();
  const rdf::TermId name_term =
      dict.Find(rdf::TermKind::kIri, std::string(grasp::datagen::kTapNs) +
                                         "name");
  std::set<rdf::TermId> leaf_classes;
  std::set<std::string> numbers;
  for (const rdf::Triple& t : data.store.triples()) {
    if (t.predicate == type_term) leaf_classes.insert(t.object);
    if (t.predicate == name_term) {
      const std::vector<std::string> tokens = LabelTokens(dict.text(t.object));
      const std::string& last = tokens.back();
      if (std::all_of(last.begin(), last.end(),
                      [](char c) { return std::isdigit(c) != 0; })) {
        numbers.insert(last);
      }
    }
  }
  // Every keyword must match at least one element, or Search returns an
  // empty ranking by design.
  text::InvertedIndex::SearchOptions lookup = engine.options().keyword_search;
  std::map<std::string, bool> matches;
  auto matched = [&](const std::string& kw) {
    auto it = matches.find(kw);
    if (it == matches.end()) {
      const bool any = !engine.keyword_index().Lookup(kw, lookup).empty();
      it = matches.emplace(kw, any).first;
    }
    return it->second;
  };
  std::vector<KeywordQuery> pairs, triples;
  for (rdf::TermId cls : leaf_classes) {
    const std::vector<std::string> words =
        LabelTokens(rdf::IriLocalName(dict.text(cls)));
    if (words.size() != 2 || !matched(words[0]) || !matched(words[1])) {
      continue;
    }
    if (words != exclude) pairs.push_back(KeywordQuery{words, {}});
    for (const std::string& n : numbers) {
      if (matched(n)) {
        triples.push_back(KeywordQuery{{words[0], words[1], n}, {}});
      }
    }
  }
  std::mt19937_64 pool_rng(kTapPoolSeed);
  SeededShuffle(&pairs, &pool_rng);
  SeededShuffle(&triples, &pool_rng);
  static const std::vector<std::vector<std::string>> kScopes = {
      {"name", "description"}, {"name", "description", "relatedTo", "partOf"}};
  std::vector<std::vector<KeywordQuery>> rounds;
  for (std::size_t r = 0; r < kTapRounds; ++r) {
    if ((r + 1) * kTapPairs > pairs.size() ||
        (r + 1) * kTapTriples > triples.size()) {
      break;
    }
    std::vector<KeywordQuery> round(pairs.begin() + r * kTapPairs,
                                    pairs.begin() + (r + 1) * kTapPairs);
    round.insert(round.end(), triples.begin() + r * kTapTriples,
                 triples.begin() + (r + 1) * kTapTriples);
    round[kTapPairs - 1].scope = kScopes[r % kScopes.size()];
    round.back().scope = kScopes[(r + 1) % kScopes.size()];
    round.push_back(kTapScopeProbe);
    rounds.push_back(std::move(round));
  }
  return rounds;
}

}  // namespace

// Exploration-heavy search on TAP: distinct 2-3 keyword queries, one Search
// per operation, one client in a closed loop.
RunResult RunTapExplore(const RunOptions& options) {
  RunResult result;
  SpanLog log(options.trace, 0);
  const std::vector<std::string> first_query = {"music", "album"};
  std::vector<double> setup_seconds;
  EngineSetUp set_up =
      SetUpBefore(MakeTap, kTapSetUps, first_query, &setup_seconds, &result);
  const core::KeywordSearchEngine& engine = *set_up.engine;
  // Distinct queries, and each round as indexes into them.
  std::vector<KeywordQuery> pool;
  std::vector<std::vector<std::size_t>> rounds;
  {
    std::map<std::string, std::size_t> index;
    for (const auto& round : TapRounds(engine, *set_up.data, first_query)) {
      rounds.emplace_back();
      for (const KeywordQuery& q : round) {
        auto [it, added] = index.emplace(q.Key(), pool.size());
        if (added) pool.push_back(q);
        rounds.back().push_back(it->second);
      }
    }
  }
  std::fprintf(stderr, "perfbench: tap-explore has %zu rounds of %zu queries\n",
               rounds.size(), rounds.empty() ? 0 : rounds[0].size());
  const rdf::TermId type_term = engine.data_graph().type_term();
  const rdf::TermId subclass_term = engine.data_graph().subclass_term();
  std::vector<std::vector<rdf::TermId>> scope_terms(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].scope.empty()) {
      scope_terms[i] = ResolveScope(engine.dictionary(), pool[i].scope);
    }
  }

  std::mt19937_64 rng(options.seed);
  std::vector<OpRecord> ops;
  std::vector<double> latency;
  double search_ms = 0.0, pops = 0.0, generated = 0.0, deduplicated = 0.0;
  const auto cache_before = engine.augmentation_cache_stats();
  LoopClock clock;
  for (std::size_t r = 0; clock.ElapsedMillis() < options.seconds * 1e3;
       ++r) {
    if (r == rounds.size()) {
      std::fprintf(stderr, "perfbench: tap rounds exhausted; queries repeat\n");
    }
    std::vector<std::size_t> order = rounds[r % rounds.size()];
    SeededShuffle(&order, &rng);
    for (std::size_t qi : order) {
      const std::uint64_t op_id = ops.size() + 1;
      OpRecord op;
      op.query = qi;
      core::KeywordSearchEngine::KeywordQuery request;
      request.keywords = pool[qi].keywords;
      request.predicate_scope = pool[qi].scope;
      request.k = kTopK;
      const Clock::time_point start = Clock::now();
      const std::uint64_t root = log.Begin("op", op_id, 0);
      const std::uint64_t span = log.Begin("core.search", op_id, root);
      const auto found = engine.Search(request);
      log.End(span);
      log.End(root);
      op.latency_ms = MillisSince(start);
      {
        CheckTimer check(&clock);
        std::string why = CheckRanking(found.status, found.degraded,
                                       EntriesOf(found), kTopK);
        if (why.empty() && !pool[qi].scope.empty()) {
          why = CheckScope(found, scope_terms[qi], type_term, subclass_term);
        }
        if (!why.empty()) {
          result.Fail(pool[qi].Key() + ": " + why);
          op.failed = true;
        }
        search_ms += op.latency_ms;
        pops += static_cast<double>(found.exploration_stats.cursors_popped);
        generated +=
            static_cast<double>(found.exploration_stats.subgraphs_generated);
        deduplicated += static_cast<double>(
            found.exploration_stats.subgraphs_deduplicated);
      }
      latency.push_back(op.latency_ms);
      ops.push_back(op);
    }
  }

  EndToEnd e;
  FillLoopFigures(ops, clock, kTapTailPercentile, &e);
  e.latency_p50_ms = Percentile(latency, 50.0);
  const auto cache_after = engine.augmentation_cache_stats();
  e.index_mb = IndexMiB(engine, options.work_dir, &result);
  e.setup_s =
      SetUpAfter(MakeTap, kTapSetUps, first_query, &setup_seconds, &result);

  // Reference checks cover the queries this run issued.
  std::vector<std::size_t> weight(pool.size(), 0);
  for (const OpRecord& op : ops) ++weight[op.query];
  std::vector<KeywordQuery> issued;
  std::vector<std::size_t> issued_weight, issued_index(pool.size(), 0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (weight[i] == 0) continue;
    issued_index[i] = issued.size();
    issued.push_back(pool[i]);
    issued_weight.push_back(weight[i]);
  }
  const std::vector<std::string> issued_failures =
      CheckAllAgainstReference(engine, issued, kTopK);
  std::vector<std::string> failures(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (weight[i] > 0) failures[i] = issued_failures[issued_index[i]];
  }
  MarkReferenceFailures(failures, &ops, &result);
  result.attempted += ops.size();

  if (options.trace) {
    const double n = static_cast<double>(ops.size());
    LayerFigures f;
    TimeSetupBuilders(engine, set_up.data->store, set_up.data->dictionary, 3,
                      &log, &f);
    ReplayStages(engine, issued, issued_weight, kTopK, 1, &log, &f);
    f.cache_hit_ratio = CacheHitRatio(cache_before, cache_after);
    f.search_ms = search_ms / n;
    // Exploration counts from SearchResult::exploration_stats.
    f.pops = pops / n;
    f.candidates = generated / n;
    f.distinct_ratio = generated > 0.0 ? (generated - deduplicated) / generated
                                       : 0.0;
    result.metrics = LayerMetrics(f);
    result.end_to_end_when_traced = EndToEndMetrics(e);
    result.spans = log.spans();
  } else {
    result.metrics = EndToEndMetrics(e);
  }
  return result;
}

}  // namespace perfbench
