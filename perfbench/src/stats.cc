// Statistics, resource readings and span bookkeeping.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <utility>

#include "harness.h"

namespace perfbench {

double ProcessCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double TailPercentileFor(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 50.0;
}

double LatenessMillis(Clock::time_point scheduled, Clock::time_point sent) {
  return std::max(0.0, MillisBetween(scheduled, sent));
}

std::uint64_t SpanLog::Begin(const char* name, std::uint64_t op,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.id = ++next_id_;
  span.parent = parent;
  span.op = op;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  open_.emplace(span.id, spans_.size());
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(std::uint64_t id) {
  if (!enabled_) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  open_.erase(it);
}

double SelfMillis(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t covered_ns = 0;
  std::int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered_ns += run_hi - run_lo;
  return static_cast<double>(span.end_ns - span.start_ns - covered_ns) / 1e6;
}

std::map<std::string, SpanTotals> ReduceSpans(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    auto it = children.find(s.id);
    t.self_ms += SelfMillis(s, it == children.end() ? kNone : it->second);
  }
  return totals;
}

}  // namespace perfbench
