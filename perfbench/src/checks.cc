// Output checks: properties every ranking and answer must have, and
// comparisons against results computed apart from the serving path.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>

#include "common/filter_op.h"
#include "harness.h"
#include "rdf/data_graph.h"
#include "rdf/term.h"

namespace perfbench {

std::vector<RankedEntry> EntriesOf(
    const core::KeywordSearchEngine::SearchResult& result) {
  std::vector<RankedEntry> entries;
  entries.reserve(result.queries.size());
  for (const auto& q : result.queries) {
    entries.push_back(RankedEntry{q.cost, q.canonical});
  }
  return entries;
}

std::string CheckRanking(const Status& status, bool degraded,
                         const std::vector<RankedEntry>& entries,
                         std::size_t k) {
  if (!status.ok()) return "status " + status.ToString();
  if (degraded) return "degraded ranking";
  if (entries.empty()) return "empty ranking";
  if (entries.size() > k) {
    return "ranking has " + std::to_string(entries.size()) + " > k entries";
  }
  std::set<std::string> seen;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].cost < entries[i - 1].cost) {
      return "cost decreases at rank " + std::to_string(i + 1);
    }
    if (!seen.insert(entries[i].canonical).second) {
      return "duplicate canonical form at rank " + std::to_string(i + 1);
    }
  }
  return "";
}

std::string CheckAnswerRows(const query::ConjunctiveQuery& query,
                            const query::EvalResult& result,
                            const rdf::TripleStore& store,
                            const rdf::Dictionary& dictionary) {
  std::unordered_map<query::VarId, std::size_t> column;
  for (std::size_t i = 0; i < result.variables.size(); ++i) {
    column[result.variables[i]] = i;
  }
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const std::vector<rdf::TermId>& row = result.rows[r];
    if (row.size() != result.variables.size()) return "row width mismatch";
    auto bind = [&](const query::QueryTerm& t, rdf::TermId* out) {
      if (!t.is_variable) {
        *out = t.term;
        return true;
      }
      auto it = column.find(t.var);
      if (it == column.end()) return false;
      *out = row[it->second];
      return true;
    };
    for (const query::Atom& atom : query.atoms()) {
      rdf::TermId s = rdf::kInvalidTermId, o = rdf::kInvalidTermId;
      if (!bind(atom.subject, &s) || !bind(atom.object, &o)) {
        return "row " + std::to_string(r) + " leaves a variable unbound";
      }
      if (!store.Contains(rdf::Triple{s, atom.predicate, o})) {
        return "row " + std::to_string(r) + " violates an atom";
      }
    }
    for (const query::FilterCondition& f : query.filters()) {
      auto it = column.find(f.var);
      if (it == column.end()) return "filter on an unbound variable";
      const std::string text(dictionary.text(row[it->second]));
      char* end = nullptr;
      const double value = std::strtod(text.c_str(), &end);
      if (end == text.c_str() ||
          !grasp::EvalFilterOp(f.op, value, f.value)) {
        return "row " + std::to_string(r) + " violates a filter";
      }
    }
  }
  return "";
}

std::vector<rdf::TermId> ResolveScope(const rdf::Dictionary& dictionary,
                                      const std::vector<std::string>& scope) {
  std::vector<rdf::TermId> terms;
  std::set<std::string_view> unresolved;
  for (const std::string& s : scope) {
    const rdf::TermId exact = dictionary.Find(rdf::TermKind::kIri, s);
    if (exact != rdf::kInvalidTermId) {
      terms.push_back(exact);
    } else {
      unresolved.insert(s);
    }
  }
  if (!unresolved.empty()) {
    for (rdf::TermId t = 0; t < dictionary.size(); ++t) {
      if (dictionary.kind(t) == rdf::TermKind::kIri &&
          unresolved.count(rdf::IriLocalName(dictionary.text(t))) > 0) {
        terms.push_back(t);
      }
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

std::string CheckScope(const core::KeywordSearchEngine::SearchResult& result,
                       const std::vector<rdf::TermId>& scope_terms,
                       rdf::TermId type_term, rdf::TermId subclass_term) {
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    for (const query::Atom& atom : result.queries[i].query.atoms()) {
      const rdf::TermId p = atom.predicate;
      if (p == type_term || p == subclass_term) continue;
      if (!std::binary_search(scope_terms.begin(), scope_terms.end(), p)) {
        return "rank " + std::to_string(i + 1) +
               " uses an out-of-scope predicate";
      }
    }
  }
  return "";
}

namespace {

/// Reads a JSON string starting at the opening quote; handles the escapes
/// the server emits.
bool ReadJsonString(const std::string& s, std::size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  out->clear();
  for (std::size_t i = *pos + 1; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        out->push_back(static_cast<char>(
            std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16)));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

/// Position just past `"key":` at or after `from`, or npos.
std::size_t AfterKey(const std::string& s, const char* key, std::size_t from) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = s.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

std::string NumberText(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end < s.size() && (std::isdigit(static_cast<unsigned char>(s[end])) ||
                            s[end] == '.' || s[end] == '-' || s[end] == 'e' ||
                            s[end] == '+')) {
    ++end;
  }
  return s.substr(pos, end - pos);
}

}  // namespace

bool ParseSearchBody(const std::string& body, HttpRanking* out) {
  std::size_t pos = AfterKey(body, "status", 0);
  if (pos == std::string::npos || !ReadJsonString(body, &pos, &out->status)) {
    return false;
  }
  pos = AfterKey(body, "degraded", pos);
  if (pos == std::string::npos) return false;
  out->degraded = body.compare(pos, 4, "true") == 0;
  pos = AfterKey(body, "queue_ms", pos);
  if (pos == std::string::npos) return false;
  out->queue_ms = std::atof(NumberText(body, pos).c_str());
  pos = AfterKey(body, "total_ms", pos);
  if (pos == std::string::npos) return false;
  out->total_ms = std::atof(NumberText(body, pos).c_str());
  pos = AfterKey(body, "results", pos);
  if (pos == std::string::npos) return false;
  for (;;) {
    const std::size_t cost_at = AfterKey(body, "cost", pos);
    if (cost_at == std::string::npos) break;
    RankedEntry entry;
    const std::string cost_text = NumberText(body, cost_at);
    entry.cost = std::atof(cost_text.c_str());
    std::size_t query_at = AfterKey(body, "query", cost_at);
    if (query_at == std::string::npos ||
        !ReadJsonString(body, &query_at, &entry.canonical)) {
      return false;
    }
    out->cost_text.push_back(cost_text);
    out->entries.push_back(std::move(entry));
    pos = query_at;
  }
  return true;
}

std::string CompareWireRanking(const HttpRanking& wire,
                               const std::vector<RankedEntry>& expected) {
  if (wire.entries.size() != expected.size()) {
    return "wire ranking has " + std::to_string(wire.entries.size()) +
           " entries, cold build has " + std::to_string(expected.size());
  }
  char buf[64];
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6f", expected[i].cost);
    if (wire.cost_text[i] != buf) {
      return "cost differs from the cold build at rank " +
             std::to_string(i + 1);
    }
    if (wire.entries[i].canonical != expected[i].canonical) {
      return "query differs from the cold build at rank " +
             std::to_string(i + 1);
    }
  }
  return "";
}

}  // namespace perfbench
