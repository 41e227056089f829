// grasp_perfbench: runs one workload of the keyword-search benchmark and
// prints its result as one JSON line on stdout (logs go to stderr).
//
//   grasp_perfbench --workload dblp-fig5 --seed 1 --seconds 10 --trace 0
//       --work-dir DIR
//   grasp_perfbench --self-check
//
// With --trace 1 the run also writes DIR/trace/<workload>-seed<n>.spans.jsonl
// (every span) and DIR/trace/<workload>-seed<n>.layers.tsv (per span name:
// count, total and self time; then the per-layer and end-to-end figures).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"

namespace perfbench {

int SelfCheck();

namespace {

void PrintJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteTrace(const RunResult& result, const std::string& work_dir,
                const std::string& workload, std::uint64_t seed) {
  const std::string dir = work_dir + "/trace";
  std::filesystem::create_directories(dir);
  const std::string stem =
      dir + "/" + workload + "-seed" + std::to_string(seed);
  std::ofstream spans(stem + ".spans.jsonl");
  for (const Span& s : result.spans) {
    spans << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
  }
  std::ofstream table(stem + ".layers.tsv");
  table << "span\tcount\ttotal_ms\tself_ms\n";
  for (const auto& [name, t] : ReduceSpans(result.spans)) {
    table << name << "\t" << t.count << "\t" << t.total_ms << "\t"
          << t.self_ms << "\n";
  }
  table << "\nmetric\tvalue\tunit\n";
  for (const Metric& m : result.metrics) {
    table << m.name << "\t" << m.value << "\t" << m.unit << "\n";
  }
  table << "\nend_to_end_traced\tvalue\tunit\n";
  for (const Metric& m : result.end_to_end_when_traced) {
    table << m.name << "\t" << m.value << "\t" << m.unit << "\n";
  }
  std::fprintf(stderr, "perfbench: trace written to %s.{spans.jsonl,layers.tsv}\n",
               stem.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: grasp_perfbench --workload dblp-fig5|tap-explore|"
               "lubm-http --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       grasp_perfbench --self-check\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string work_dir = ".";
  bool self_check = false;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-check") {
      self_check = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--work-dir") {
      work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  std::filesystem::create_directories(work_dir);
  options.work_dir = work_dir;
  if (self_check) return SelfCheck();
  if (options.seconds <= 0.0) return Usage();

  RunResult result;
  if (workload == "dblp-fig5") {
    result = RunDblpFig5(options);
  } else if (workload == "tap-explore") {
    result = RunTapExplore(options);
  } else if (workload == "lubm-http") {
    result = RunLubmHttp(options);
  } else {
    return Usage();
  }
  if (options.trace) WriteTrace(result, work_dir, workload, options.seed);
  PrintJson(result);
  return result.correct ? 0 : 1;
}
