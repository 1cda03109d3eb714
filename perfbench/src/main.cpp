// perfbench — the repository benchmark. Normally started through run.py,
// which builds this binary first:
//
//   python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 20 --trace 0
//
// Flags:
//   --workload cold_corpus|serve_grind
//   --seed N           seeds the run's sequences (default 1)
//   --seconds S        minimum wall time of the run (default 10)
//   --trace 0|1        0: end-to-end metrics; 1: per-layer metrics
//   --expected PATH    committed answers (default perfbench/data/expected.tsv)
//   --out-dir DIR      socket, journal and span files (must exist)
//   --git-sha SHA      recorded in the host block
//   --generate-expected PATH   solve every candidate and write the answers
#include <cstdio>
#include <cstdlib>
#include <string>

#include "expected.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string expected_path = "perfbench/data/expected.tsv";
  std::string generate_path;
  std::string workload = "cold_corpus";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") end = argv[i];
    } else if (flag == "--expected") {
      expected_path = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--generate-expected") {
      generate_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return 2;
    }
  }
  if (!generate_path.empty()) return generate_expected(generate_path);

  if (!parse_workload(workload, &options.workload)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (options.out_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --out-dir and --seconds > 0 required\n");
    return 2;
  }
  std::vector<ExpectedRow> rows;
  std::string error;
  if (!read_expected(expected_path, &rows, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return run_workload(options, rows);
}
