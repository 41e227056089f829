// Self-check of the benchmark's own machinery: the output checks must reject
// broken outputs, and the percentile, lateness and self-time arithmetic is
// pinned on small hand-computed inputs.
#include <cstdio>
#include <string>
#include <utility>

#include "common.h"
#include "datagen/lubm_gen.h"
#include "rdf/data_graph.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectNear(double got, double want, const std::string& what) {
  const double diff = got > want ? got - want : want - got;
  Expect(diff < 1e-9, what + " = " + std::to_string(got) + " (want " +
                          std::to_string(want) + ")");
}

void CheckArithmetic() {
  ExpectNear(Percentile({5, 1, 4, 2, 3}, 50), 3, "p50 of {5,1,4,2,3}");
  ExpectNear(Percentile({4, 1, 3, 2}, 50), 2, "p50 of {4,1,3,2} (nearest rank)");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 99), 99, "p99 of 1..100");
  ExpectNear(Percentile(hundred, 99.9), 100, "p99.9 of 1..100");
  ExpectNear(Percentile({}, 50), 0, "percentile of nothing");
  Expect(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Expect(SamplesBeyond(100, 90) == 10, "10 samples beyond p90 of 100");
  ExpectNear(TailPercentileFor(1000), 99, "tail percentile for 1000 samples");
  ExpectNear(TailPercentileFor(999), 90, "tail percentile for 999 samples");
  ExpectNear(TailPercentileFor(10000), 99.9,
             "tail percentile for 10000 samples");
  ExpectNear(TailPercentileFor(100), 90, "tail percentile for 100 samples");
  ExpectNear(TailPercentileFor(99), 50, "tail percentile for 99 samples");
  ExpectNear(Median({3, 1, 2, 10}), 2.5, "median of {3,1,2,10}");

  const Clock::time_point t0 = Clock::now();
  ExpectNear(LatenessMillis(t0, t0 + std::chrono::microseconds(3000)), 3.0,
             "lateness of a send 3 ms after its due time");
  ExpectNear(LatenessMillis(t0, t0 - std::chrono::microseconds(1000)), 0.0,
             "lateness of an early send");

  auto span = [](std::uint64_t id, std::uint64_t parent, const char* name,
                 std::int64_t start_ms, std::int64_t end_ms) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start_ms * 1000000;
    s.end_ns = end_ms * 1000000;
    return s;
  };
  // Parent [0, 10] ms; children [1, 3], [2, 5] overlap into [1, 5]; [7, 8];
  // [9, 12] is clipped to [9, 10]. Covered: 4 + 1 + 1 = 6, self = 4.
  const Span parent = span(1, 0, "op", 0, 10);
  const std::vector<Span> children = {
      span(2, 1, "a", 1, 3), span(3, 1, "a", 2, 5), span(4, 1, "b", 7, 8),
      span(5, 1, "b", 9, 12)};
  ExpectNear(SelfMillis(parent, children), 4.0, "self time of a parent span");
  std::vector<Span> all = children;
  all.push_back(parent);
  all.push_back(span(6, 2, "leaf", 1, 2));  // child of the first "a"
  const auto totals = ReduceSpans(all);
  ExpectNear(totals.at("op").self_ms, 4.0, "reduced self time of op");
  ExpectNear(totals.at("a").total_ms, 5.0, "reduced total of a");
  ExpectNear(totals.at("a").self_ms, 4.0, "reduced self time of a");
  Expect(totals.at("b").count == 2, "two spans named b");
}

void CheckWireParsing() {
  const std::string body =
      "{\"status\":\"OK\",\"degraded\":false,\"queue_ms\":0.125,"
      "\"total_ms\":4.500,\"results\":[{\"rank\":1,\"cost\":1.250000,"
      "\"query\":\"type(?0, \\\"a\\\")\"},{\"rank\":2,\"cost\":2.000000,"
      "\"query\":\"q2\"}]}\n";
  HttpRanking wire;
  Expect(ParseSearchBody(body, &wire), "parse a /search body");
  Expect(wire.entries.size() == 2 && wire.entries[0].canonical ==
                                         "type(?0, \"a\")",
         "parsed queries, escapes decoded");
  ExpectNear(wire.total_ms - wire.queue_ms, 4.375, "service time from body");
  const std::vector<RankedEntry> same = {{1.25, "type(?0, \"a\")"},
                                         {2.0, "q2"}};
  Expect(CompareWireRanking(wire, same).empty(), "wire equals its ranking");
  const std::vector<RankedEntry> swapped = {same[1], same[0]};
  Expect(!CompareWireRanking(wire, swapped).empty(),
         "wire differs from a swapped ranking");
  const std::vector<RankedEntry> off = {{1.2500004, "type(?0, \"a\")"},
                                        {2.0, "q2"}};
  Expect(CompareWireRanking(wire, off).empty(),
         "cost compared as printed (%.6f)");
  const std::vector<RankedEntry> moved = {{1.251, "type(?0, \"a\")"},
                                          {2.0, "q2"}};
  Expect(!CompareWireRanking(wire, moved).empty(),
         "a cost changed in the printed digits is caught");
}

void CheckOutputChecks() {
  // A small LUBM engine gives real rankings and answers to corrupt.
  Dataset data;
  grasp::datagen::LubmOptions lubm;
  lubm.num_universities = 1;
  grasp::datagen::GenerateLubm(lubm, &data.dictionary, &data.store);
  data.store.Finalize();
  const core::KeywordSearchEngine engine(data.store, data.dictionary);
  const auto found = engine.Search({"professor", "databases"}, 10);
  std::vector<RankedEntry> entries = EntriesOf(found);
  Expect(CheckRanking(found.status, found.degraded, entries, 10).empty(),
         "a real ranking passes");
  Expect(entries.size() >= 2 && entries.front().cost < entries.back().cost,
         "the real ranking has two distinct costs");
  if (entries.size() >= 2) {
    std::vector<RankedEntry> swapped = entries;
    std::swap(swapped.front(), swapped.back());
    Expect(!CheckRanking(found.status, found.degraded, swapped, 10).empty(),
           "a ranking with two entries swapped is rejected");
    std::vector<RankedEntry> duplicated = entries;
    duplicated[1].canonical = duplicated[0].canonical;
    duplicated[1].cost = duplicated[0].cost;
    Expect(!CheckRanking(found.status, found.degraded, duplicated, 10).empty(),
           "a ranking with a repeated query is rejected");
  }
  Expect(!CheckRanking(found.status, true, entries, 10).empty(),
         "a degraded ranking is rejected");
  Expect(!CheckRanking(found.status, false, {}, 10).empty(),
         "an empty ranking is rejected");
  Expect(!CheckRanking(found.status, false, entries, entries.size() - 1)
              .empty(),
         "a ranking longer than k is rejected");

  // Answers: the first ranked query with rows; alter one binding of the
  // subject variable of its first atom to a literal, which no triple has
  // as subject.
  bool tested = false;
  rdf::TermId literal = rdf::kInvalidTermId;
  for (rdf::TermId t = 0; t < data.dictionary.size(); ++t) {
    if (data.dictionary.kind(t) == rdf::TermKind::kLiteral) {
      literal = t;
      break;
    }
  }
  for (const auto& ranked : found.queries) {
    auto answers = engine.Answers(ranked.query, 10);
    if (!answers.ok() || answers.value().rows.empty()) continue;
    const query::ConjunctiveQuery& q = ranked.query;
    query::EvalResult result = answers.value();
    Expect(CheckAnswerRows(q, result, data.store, data.dictionary).empty(),
           "real answer rows pass");
    std::size_t column = result.variables.size();
    for (const query::Atom& atom : q.atoms()) {
      if (!atom.subject.is_variable) continue;
      for (std::size_t c = 0; c < result.variables.size(); ++c) {
        if (result.variables[c] == atom.subject.var) column = c;
      }
      break;
    }
    if (column == result.variables.size()) continue;
    result.rows[0][column] = literal;
    Expect(!CheckAnswerRows(q, result, data.store, data.dictionary).empty(),
           "an answer row with one altered binding is rejected");
    tested = true;
    break;
  }
  Expect(tested, "found an answer row to alter");

  // Scope: a ranking that uses a non-type predicate fails an empty scope.
  bool uses_predicate = false;
  for (const auto& ranked : found.queries) {
    for (const query::Atom& atom : ranked.query.atoms()) {
      if (atom.predicate != engine.data_graph().type_term() &&
          atom.predicate != engine.data_graph().subclass_term()) {
        uses_predicate = true;
      }
    }
  }
  if (uses_predicate) {
    Expect(!CheckScope(found, {}, engine.data_graph().type_term(),
                       engine.data_graph().subclass_term())
                .empty(),
           "out-of-scope predicates are rejected");
  }

  // The replay reproduces the engine's ranking, and the flat explorer
  // agrees with ReferenceExplorer on it.
  const text::Thesaurus thesaurus = text::Thesaurus::BuiltIn();
  SpanLog off(false, 0);
  const Replay replay = ReplayQuery(
      engine, thesaurus, KeywordQuery{{"professor", "databases"}, {}}, 10,
      &off, 0);
  bool same = replay.ranking.size() == entries.size();
  for (std::size_t i = 0; same && i < entries.size(); ++i) {
    same = replay.ranking[i].cost == entries[i].cost &&
           replay.ranking[i].canonical == entries[i].canonical;
  }
  Expect(same, "the stage replay reproduces the engine's ranking");
  Expect(CheckAgainstReference(replay).empty(),
         "the flat explorer agrees with ReferenceExplorer");
}

}  // namespace

int SelfCheck() {
  CheckArithmetic();
  CheckWireParsing();
  CheckOutputChecks();
  std::printf("self-check: %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
