// nodbbench: the repository benchmark's program.
//
//   nodbbench prepare --workload W --seed N --dir D
//       writes W's seeded inputs into D and the oracle's answers to
//       D/oracle.txt (load-first engine, outside any measurement);
//   nodbbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                 [--trace-out FILE]
//       runs the timed workload against those inputs and prints, as its
//       last line, {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics with --trace 0, the per-layer ones with 1.
//
// run.py builds this program and chains the two steps; each runs in its
// own process so the oracle's memory never shows in peak_rss_mib.
// Exit status: 0 on success, 1 on wrong answers or any error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "inputs.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "nodbbench: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nodbbench;
  if (argc < 2) return Fail("usage: nodbbench prepare|run --workload W ...");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Fail("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  Workload workload;
  if (!ParseWorkload(args["workload"], &workload)) {
    return Fail("unknown workload '" + args["workload"] + "'");
  }
  if (args["dir"].empty() || args["seed"].empty()) {
    return Fail("--dir and --seed are required");
  }
  const Plan plan = MakePlan(workload, std::strtoull(args["seed"].c_str(),
                                                     nullptr, 10));
  const std::string& dir = args["dir"];
  const std::string oracle_path = dir + "/oracle.txt";

  if (mode == "prepare") {
    const int64_t start = NowNs();
    nodb::Status status = WriteInputs(plan, dir);
    if (!status.ok()) return Fail(status.ToString());
    const int64_t written = NowNs();
    std::vector<Answer> answers;
    status = ComputeOracle(plan, dir, &answers);
    if (status.ok()) status = WriteOracle(answers, oracle_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("prepared %s: inputs %.2f s, oracle %.2f s (%zu queries)\n",
                WorkloadName(workload), (written - start) / 1e9,
                (NowNs() - written) / 1e9, answers.size());
    return 0;
  }
  if (mode != "run") return Fail("unknown mode '" + mode + "'");

  RunOptions options;
  options.dir = dir;
  options.seconds = args["seconds"].empty()
                        ? 10
                        : std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  options.trace_out = args["trace-out"];
  if (options.seconds <= 0) return Fail("--seconds must be positive");
  std::vector<Answer> oracle;
  nodb::Status status = ReadOracle(oracle_path, plan.queries.size(), &oracle);
  if (!status.ok()) return Fail(status.ToString());
  RunReport report;
  status = RunWorkload(plan, oracle, options, &report);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("%s\n", ReportJson(report).c_str());
  return report.correct ? 0 : 1;
}
