// lubm-http: LUBM served over HTTP by net::HttpServer over
// serve::QueryServer, warm-started from its snapshot image, on loopback.
// Phase 1 is an open loop at a fixed rate (latency), sent on four keep-alive
// connections; phase 2 a closed loop on three (throughput). Each connection
// has its own client thread.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "common.h"
#include "common/metrics.h"
#include "datagen/lubm_gen.h"
#include "net/http_server.h"
#include "rdf/data_graph.h"
#include "rdf/term.h"
#include "serve/admission.h"

namespace perfbench {
namespace {

constexpr std::size_t kTopK = 10;
constexpr int kSetUps = 12;
/// The pool of keyword sets and its Zipf ranks are fixed by the workload.
/// Each phase issues a fixed Zipf-proportioned multiset of pool entries
/// (stratified, so every run sends each entry equally often); the run's
/// seed orders the requests.
constexpr std::uint64_t kLubmPoolSeed = 20090330;
constexpr std::size_t kLubmPoolSize = 400;
constexpr std::size_t kNameTokens = 24;
constexpr double kZipfSkew = 0.8;
/// One worker serves the (unscoped) queries, and phase 2 keeps two requests
/// queued behind the running one, so it measures the worker's capacity
/// rather than how fast idle threads wake up on the round trip.
constexpr std::size_t kDeepWorkers = 1;
/// Phase 1 sends at this fixed rate, about a third of the worker's
/// capacity; over 14 of a run's 20 s that is 490 requests, whose tail is
/// p90.
constexpr double kOpenLoopRate = 35.0;
constexpr std::size_t kOpenConnections = 4;
constexpr std::size_t kClosedConnections = 3;
/// Phase 2 runs whole rounds of this many requests.
constexpr std::size_t kClosedRound = 200;
/// Share of the run's seconds given to the open loop.
constexpr double kOpenShare = 0.7;

/// Keyword sets of 2-3 words drawn from the generated data as it is
/// spelled: the tokens of class and predicate names, of research-area
/// values, and of a fixed sample of entity names. Every word matches at
/// least one element.
std::vector<KeywordQuery> LubmPool(const core::KeywordSearchEngine& engine,
                                   const Dataset& data) {
  const rdf::Dictionary& dict = data.dictionary;
  const rdf::TermId type_term = engine.data_graph().type_term();
  const rdf::TermId subclass_term = engine.data_graph().subclass_term();
  const rdf::TermId interest_term = dict.Find(
      rdf::TermKind::kIri,
      std::string(grasp::datagen::kLubmNs) + "researchInterest");
  const rdf::TermId name_term = dict.Find(
      rdf::TermKind::kIri, std::string(grasp::datagen::kLubmNs) + "name");
  std::set<std::string> words;
  std::set<std::string> name_tokens;
  auto add_tokens = [&words](std::string_view label) {
    for (std::string& t : LabelTokens(label)) words.insert(std::move(t));
  };
  for (const rdf::Triple& t : data.store.triples()) {
    if (t.predicate == type_term) {
      add_tokens(rdf::IriLocalName(dict.text(t.object)));
    } else if (t.predicate != subclass_term) {
      add_tokens(rdf::IriLocalName(dict.text(t.predicate)));
    }
    if (t.predicate == interest_term) add_tokens(dict.text(t.object));
    if (t.predicate == name_term) {
      for (std::string& tok : LabelTokens(dict.text(t.object))) {
        const bool letters = std::any_of(tok.begin(), tok.end(), [](char c) {
          return std::isalpha(static_cast<unsigned char>(c)) != 0;
        });
        const bool digits = std::any_of(tok.begin(), tok.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        });
        if (letters && digits) name_tokens.insert(std::move(tok));
      }
    }
  }
  std::mt19937_64 rng(kLubmPoolSeed);
  std::vector<std::string> names(name_tokens.begin(), name_tokens.end());
  SeededShuffle(&names, &rng);
  if (names.size() > kNameTokens) names.resize(kNameTokens);
  words.insert(names.begin(), names.end());

  text::InvertedIndex::SearchOptions lookup = engine.options().keyword_search;
  std::vector<std::string> vocabulary;
  for (const std::string& w : words) {
    if (!engine.keyword_index().Lookup(w, lookup).empty()) {
      vocabulary.push_back(w);
    }
  }
  std::vector<KeywordQuery> pool;
  std::set<std::vector<std::string>> seen;
  while (pool.size() < kLubmPoolSize) {
    const std::size_t n = 2 + rng() % 2;
    std::vector<std::string> picked;
    while (picked.size() < n) {
      const std::string& w = vocabulary[rng() % vocabulary.size()];
      if (std::find(picked.begin(), picked.end(), w) == picked.end()) {
        picked.push_back(w);
      }
    }
    std::vector<std::string> sorted = picked;
    std::sort(sorted.begin(), sorted.end());
    if (seen.insert(sorted).second) pool.push_back(KeywordQuery{picked, {}});
  }
  return pool;
}

/// The request multiset of `total` requests over `n` ranked entries:
/// entry r gets its Zipf share total / (r + 1)^s / H, rounded by largest
/// remainder (ties to the better rank) so the counts sum to `total`.
std::vector<std::size_t> ZipfMultiset(std::size_t n, double s,
                                      std::size_t total) {
  std::vector<double> share(n);
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    sum += share[r];
  }
  std::vector<std::size_t> count(n);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double exact = static_cast<double>(total) * share[r] / sum;
    count[r] = static_cast<std::size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(-(exact - static_cast<double>(count[r])), r);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t i = 0; assigned < total; ++i, ++assigned) {
    ++count[remainder[i % n].second];
  }
  std::vector<std::size_t> requests;
  for (std::size_t r = 0; r < n; ++r) requests.insert(requests.end(), count[r], r);
  return requests;
}

/// The serving stack of one set-up: snapshot-opened engine, admission
/// layer, HTTP front-end. Members are destroyed in reverse order.
struct Serving {
  std::unique_ptr<core::KeywordSearchEngine> engine;
  std::unique_ptr<grasp::serve::QueryServer> query_server;
  std::unique_ptr<grasp::net::HttpServer> http;

  /// Stops the front-end before the layers it calls into.
  void Reset() {
    http.reset();
    query_server.reset();
    engine.reset();
  }
};

/// One HTTP request as the client saw it.
struct Request {
  std::size_t query = 0;
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point done;
  int http_status = 0;
  std::string body;
  std::string error;
};

Status SendRequest(HttpClient* client, const KeywordQuery& q, Request* r,
                   SpanLog* log, std::uint64_t op) {
  const std::uint64_t span = log->Begin("net.request", op, 0);
  r->sent = Clock::now();
  const Status status = client->Search(q.keywords, kTopK, &r->http_status,
                                       &r->body);
  r->done = Clock::now();
  log->End(span);
  if (!status.ok()) r->error = status.ToString();
  return status;
}

/// One timed set-up: finalize, build, SaveIndex, Open, start the servers,
/// serve the first request. The request is checked but is not an
/// operation: every run's operations are the phases' requests only.
struct SetUpTimes {
  double seconds = 0.0;
  double save_ms = 0.0;
  double open_ms = 0.0;
  double index_mb = 0.0;
};

bool SetUpServing(const std::string& image, const KeywordQuery& first_query,
                  grasp::metrics::Registry* registry, SpanLog* log,
                  Serving* serving, SetUpTimes* times) {
  serving->Reset();
  std::unique_ptr<Dataset> data = MakeLubm();
  const Clock::time_point start = Clock::now();
  data->store.Finalize();
  auto built = std::make_unique<core::KeywordSearchEngine>(data->store,
                                                           data->dictionary);
  Clock::time_point step = Clock::now();
  std::uint64_t span = log->Begin("snapshot.save", 0, 0);
  const Status saved = built->SaveIndex(image);
  log->End(span);
  times->save_ms = MillisSince(step);
  step = Clock::now();
  span = log->Begin("snapshot.open", 0, 0);
  core::KeywordSearchEngine::Options engine_options;
  engine_options.metrics = registry;
  auto opened = core::KeywordSearchEngine::Open(image, engine_options);
  log->End(span);
  times->open_ms = MillisSince(step);
  if (!saved.ok() || !opened.ok()) {
    std::fprintf(stderr, "perfbench: snapshot save/open failed: %s %s\n",
                 saved.ToString().c_str(), opened.status().ToString().c_str());
    return false;
  }
  serving->engine = std::move(opened).value();
  grasp::serve::QueryServer::Options serve_options;
  serve_options.deep_workers = kDeepWorkers;
  serving->query_server = std::make_unique<grasp::serve::QueryServer>(
      *serving->engine, serve_options);
  serving->http = std::make_unique<grasp::net::HttpServer>(
      serving->query_server.get(), grasp::net::HttpServer::Options());
  Status sent = serving->http->Start();
  HttpClient client;
  Request first;
  if (sent.ok()) sent = client.Connect(serving->http->port());
  if (sent.ok()) sent = SendRequest(&client, first_query, &first, log, 0);
  times->seconds = MillisSince(start) / 1e3;
  HttpRanking wire;
  if (!sent.ok() || first.http_status != 200 ||
      !ParseSearchBody(first.body, &wire) || wire.status != "OK" ||
      wire.degraded || wire.entries.empty()) {
    std::fprintf(stderr, "perfbench: set-up request failed: %s\n",
                 sent.ToString().c_str());
    return false;
  }
  std::error_code ec;
  times->index_mb = static_cast<double>(std::filesystem::file_size(image, ec)) /
                    (1024.0 * 1024.0);
  return true;
}

}  // namespace

RunResult RunLubmHttp(const RunOptions& options) {
  RunResult result;
  grasp::net::IgnoreSigpipe();
  const std::string image = options.work_dir + "/lubm.img";

  // The cold build the wire results are compared against; it also yields
  // the pool (keywords must match its elements).
  std::unique_ptr<Dataset> cold_data = MakeLubm();
  cold_data->store.Finalize();
  const core::KeywordSearchEngine cold(cold_data->store,
                                       cold_data->dictionary);
  const std::vector<KeywordQuery> pool = LubmPool(cold, *cold_data);

  // Set-up: half of the timed set-ups before the phases (the last one
  // serves them), half after, so a slow stretch at either end moves the
  // median less. The traced run attaches a metrics registry to read the
  // engine's own search-duration histogram.
  grasp::metrics::Registry registry;
  grasp::metrics::Registry* engine_registry =
      options.trace ? &registry : nullptr;
  SpanLog log(options.trace, 0);
  Serving serving;
  std::vector<double> setup_s, save_ms, open_ms;
  double index_mb = 0.0;
  for (int rep = 0; rep < kSetUps / 2; ++rep) {
    SetUpTimes t;
    if (!SetUpServing(image, pool[0], engine_registry, &log, &serving, &t)) {
      result.correct = false;
      return result;
    }
    setup_s.push_back(t.seconds);
    save_ms.push_back(t.save_ms);
    open_ms.push_back(t.open_ms);
    index_mb = t.index_mb;
  }

  std::mt19937_64 rng(options.seed);
  const double open_seconds = options.seconds * kOpenShare;
  const double closed_seconds = options.seconds - open_seconds;
  std::vector<std::size_t> open_stream = ZipfMultiset(
      pool.size(), kZipfSkew,
      static_cast<std::size_t>(std::llround(kOpenLoopRate * open_seconds)));
  SeededShuffle(&open_stream, &rng);
  const std::vector<std::size_t> closed_round =
      ZipfMultiset(pool.size(), kZipfSkew, kClosedRound);

  const std::uint16_t port = serving.http->port();
  const auto cache_before = serving.engine->augmentation_cache_stats();
  grasp::metrics::Histogram* search_histogram = registry.GetHistogram(
      "grasp_engine_search_duration_seconds", "", {}, 1e-6);
  const auto searches_before = search_histogram->TakeSnapshot();
  std::vector<SpanLog> logs;
  for (std::size_t c = 0; c < kOpenConnections; ++c) {
    logs.emplace_back(options.trace, (c + 1) << 48);
  }

  // Phase 1: open loop. Request j is due at start + j / rate and goes out
  // on connection j % 4; its latency runs from the due time.
  std::vector<Request> open(open_stream.size());
  {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kOpenConnections; ++c) {
      threads.emplace_back([&, c] {
        HttpClient client;
        const Status connected = client.Connect(port);
        for (std::size_t j = c; j < open.size(); j += kOpenConnections) {
          Request& r = open[j];
          r.query = open_stream[j];
          r.scheduled = start + std::chrono::nanoseconds(static_cast<long>(
                                    1e9 * static_cast<double>(j) /
                                    kOpenLoopRate));
          std::this_thread::sleep_until(r.scheduled);
          if (!connected.ok()) {
            r.sent = r.done = Clock::now();
            r.error = connected.ToString();
            continue;
          }
          SendRequest(&client, pool[r.query], &r, &logs[c], j + 1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Phase 2: closed loop on three connections, each sending its next request
  // as soon as the last one answered, in whole seeded rounds: once the time
  // is up, the round in progress is finished and no new one is started.
  std::vector<std::vector<Request>> closed(kClosedConnections);
  double closed_ms = 0.0, closed_cpu_ms = 0.0;
  {
    std::mutex mutex;
    std::vector<std::size_t> sequence;  // grows one seeded round at a time
    std::size_t next = 0;
    const double cpu_start = ProcessCpuMillis();
    const Clock::time_point start = Clock::now();
    // The next request's pool index, or npos once the phase is over.
    auto take = [&]() -> std::size_t {
      std::lock_guard<std::mutex> lock(mutex);
      if (next == sequence.size()) {
        if (MillisSince(start) >= closed_seconds * 1e3) return std::string::npos;
        std::vector<std::size_t> round = closed_round;
        SeededShuffle(&round, &rng);
        sequence.insert(sequence.end(), round.begin(), round.end());
      }
      return sequence[next++];
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClosedConnections; ++c) {
      threads.emplace_back([&, c] {
        HttpClient client;
        const Status connected = client.Connect(port);
        for (std::size_t q = take(); q != std::string::npos; q = take()) {
          Request r;
          r.query = q;
          if (connected.ok()) {
            SendRequest(&client, pool[q], &r, &logs[c],
                        (std::uint64_t{1} << 32) + closed[c].size());
          } else {
            r.error = connected.ToString();
          }
          closed[c].push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    closed_ms = MillisSince(start);
    closed_cpu_ms = ProcessCpuMillis() - cpu_start;
  }
  const double peak_rss = PeakRssMiB();
  const auto cache_after = serving.engine->augmentation_cache_stats();
  const auto searches_after = search_histogram->TakeSnapshot();

  for (int rep = kSetUps / 2; rep < kSetUps; ++rep) {
    Serving extra;
    SetUpTimes t;
    if (!SetUpServing(image, pool[0], nullptr, &log, &extra, &t)) {
      result.correct = false;
      return result;
    }
    setup_s.push_back(t.seconds);
    save_ms.push_back(t.save_ms);
    open_ms.push_back(t.open_ms);
  }
  std::error_code ec;
  std::filesystem::remove(image, ec);

  // Checks: every response against the ranking contract and against the
  // cold build's ranking for the same keywords; then each distinct keyword
  // set's replayed exploration against ReferenceExplorer.
  std::vector<const Request*> all;
  for (const Request& r : open) all.push_back(&r);
  for (const auto& per_connection : closed) {
    for (const Request& r : per_connection) all.push_back(&r);
  }
  std::vector<std::size_t> weight(pool.size(), 0);
  for (const Request* r : all) ++weight[r->query];
  std::vector<std::vector<RankedEntry>> expected(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (weight[i] == 0) continue;
    const auto found = cold.Search(pool[i].keywords, kTopK);
    expected[i] = EntriesOf(found);
  }
  std::vector<OpRecord> ops;
  std::vector<HttpRanking> wire(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Request& r = *all[i];
    OpRecord op;
    op.query = r.query;
    std::string why = r.error;
    if (why.empty() && r.http_status != 200) {
      why = "HTTP " + std::to_string(r.http_status);
    }
    if (why.empty() && !ParseSearchBody(r.body, &wire[i])) {
      why = "unparsable body";
    }
    if (why.empty()) {
      why = CheckRanking(wire[i].status == "OK"
                             ? Status::Ok()
                             : Status::Internal(wire[i].status),
                         wire[i].degraded, wire[i].entries, kTopK);
    }
    if (why.empty()) why = CompareWireRanking(wire[i], expected[r.query]);
    if (!why.empty()) {
      result.Fail(pool[r.query].Key() + ": " + why);
      op.failed = true;
    }
    ops.push_back(op);
  }
  MarkReferenceFailures(
      CheckAllAgainstReference(*serving.engine, pool, kTopK), &ops, &result);
  result.attempted += ops.size();

  std::vector<double> latency, lateness;
  for (const Request& r : open) {
    latency.push_back(MillisBetween(r.scheduled, r.done));
    lateness.push_back(LatenessMillis(r.scheduled, r.sent));
  }
  const double tail_p = TailPercentileFor(open.size());
  std::size_t closed_count = 0;
  for (const auto& per_connection : closed) {
    closed_count += per_connection.size();
  }
  EndToEnd e;
  e.latency_p50_ms = Percentile(latency, 50.0);
  e.latency_tail_ms = Percentile(latency, tail_p);
  e.queries_per_s = static_cast<double>(closed_count) / (closed_ms / 1e3);
  e.cpu_ms_per_query = closed_cpu_ms / static_cast<double>(closed_count);
  e.peak_rss_mb = peak_rss;
  e.setup_s = Median(setup_s);
  e.index_mb = index_mb;
  std::fprintf(stderr,
               "perfbench: lubm-http open loop %zu requests, tail p%g, "
               "generator lateness p%g %.3f ms\n",
               open.size(), tail_p, tail_p, Percentile(lateness, tail_p));

  if (options.trace) {
    LayerFigures f;
    TimeSetupBuilders(cold, cold_data->store, cold_data->dictionary, 3, &log,
                      &f);
    f.save_ms = Median(save_ms);
    f.open_ms = Median(open_ms);
    ReplayStages(*serving.engine, pool, weight, kTopK, 3, &log, &f);
    f.cache_hit_ratio = CacheHitRatio(cache_before, cache_after);
    const double searches =
        static_cast<double>(searches_after.count - searches_before.count);
    f.search_ms = searches > 0.0
                      ? static_cast<double>(searches_after.sum -
                                            searches_before.sum) /
                            1e3 / searches
                      : 0.0;
    double queue = 0.0, service = 0.0, overhead = 0.0, bytes = 0.0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      queue += wire[i].queue_ms;
      service += wire[i].total_ms - wire[i].queue_ms;
      overhead += MillisBetween(open[i].sent, open[i].done) - wire[i].total_ms;
      bytes += static_cast<double>(open[i].body.size());
    }
    const double n = static_cast<double>(open.size());
    f.queue_ms = queue / n;
    f.service_ms = service / n;
    f.net_overhead_ms = overhead / n;
    f.response_bytes = bytes / n;
    f.late_ms = Percentile(lateness, tail_p);
    result.metrics = LayerMetrics(f);
    result.end_to_end_when_traced = EndToEndMetrics(e);
    result.spans = log.spans();
    for (const SpanLog& l : logs) {
      result.spans.insert(result.spans.end(), l.spans().begin(),
                          l.spans().end());
    }
  } else {
    result.metrics = EndToEndMetrics(e);
  }
  return result;
}

}  // namespace perfbench
