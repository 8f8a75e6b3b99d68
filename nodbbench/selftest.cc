// Self-tests of the benchmark's own arithmetic and determinism:
//   - the percentile rule (p95 only with >= 10 samples beyond it);
//   - self-time subtraction, and that a query's span tree sums to its
//     wall time;
//   - REJECTED, errors and mismatches all count toward failed_frac;
//   - the same seed yields byte-identical inputs and query lists, and
//     another seed does not.
// Run: nodbbench_test [work-dir]   (exit 0 = all passed)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace nodbbench;

void TestPercentiles() {
  EXPECT(Median({}) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.50) == 50);
  EXPECT(Percentile(hundred, 0.95) == 95);
  EXPECT(Percentile(hundred, 1.0) == 100);
  EXPECT(Percentile({7}, 0.95) == 7);
  // p95 of n samples leaves n - ceil(0.95 n) beyond it.
  EXPECT(SamplesBeyond(100, 0.95) == 5);
  EXPECT(SamplesBeyond(200, 0.95) == 10);
  EXPECT(SamplesBeyond(199, 0.95) == 9);
  EXPECT(!SupportsPercentile(199, 0.95));
  EXPECT(SupportsPercentile(200, 0.95));
  EXPECT(SupportsPercentile(20, 0.50));
  EXPECT(!SupportsPercentile(19, 0.50));
  EXPECT(!SupportsPercentile(0, 0.50));
}

void TestSelfTime() {
  SpanRecorder rec;
  const uint64_t trace = rec.NewTrace();
  const uint64_t root = rec.Record(trace, 0, "engines", "root", 0, 100, true);
  // Overlapping children [10,40) and [30,60) cover 50; one child pokes
  // out of the parent and is clipped to [90,100).
  const uint64_t a = rec.Record(trace, root, "sql", "a", 10, 40);
  rec.Record(trace, root, "exec", "b", 30, 60);
  rec.Record(trace, root, "io", "c", 90, 120);
  rec.Record(trace, a, "csv", "grandchild", 15, 25);
  const std::vector<int64_t> self = SelfTimes(rec.spans());
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);  // its own self time is not clipped
  EXPECT(self[4] == 10);

  // A query broken down from its metrics sums exactly to its wall time,
  // even when the reported phases overrun the measured call.
  SpanRecorder query;
  nodb::QueryMetrics m;
  m.total_ns = 900;
  m.parse_ns = 100;
  m.plan_ns = 50;
  m.drain_ns = 700;
  m.scan.io_ns = 200;
  m.scan.tokenize_ns = 300;
  m.scan.convert_ns = 400;  // overruns drain: clipped
  query.RecordLocalQuery(1000, 2000, m);
  query.RecordRemoteQuery(5000, 6500, m);
  const LayerTimes layers = SummarizeLayers(query.spans());
  EXPECT(layers.queries == 2);
  EXPECT(layers.unbalanced == 0);
  EXPECT(layers.query_wall_ns == 1000 + 1500);
  EXPECT(layers.query_ns.at("sql") == 2 * 150);
  EXPECT(layers.query_ns.at("io") == 2 * 200);
  EXPECT(layers.query_ns.at("csv") == 2 * 500);  // 300 + clipped 200
  EXPECT(layers.query_ns.at("server") == 1500 - 900);
  EXPECT(layers.query_ns.at("engines") == (1000 - 850) + (900 - 850));
  EXPECT(layers.query_ns.at("exec") == 0);

  SpanRecorder setup;
  setup.Record(setup.NewTrace(), 0, "store", "wait", 0, 40);
  const LayerTimes other = SummarizeLayers(setup.spans());
  EXPECT(other.queries == 0);
  EXPECT(other.other_ns.at("store") == 40);
}

void TestFailureTally() {
  Tally tally;
  tally.Record(Classify(nodb::Status::OK(), true));
  tally.Record(Classify(nodb::Status::OK(), false));
  tally.Record(Classify(nodb::Status::Unavailable("REJECTED"), false));
  tally.Record(Classify(nodb::Status::IOError("boom"), false));
  EXPECT(tally.attempted == 4);
  EXPECT(tally.mismatches == 1);
  EXPECT(tally.rejected == 1);
  EXPECT(tally.errors == 1);
  EXPECT(tally.failed() == 3);
  EXPECT(tally.failed_frac() == 0.75);
  Tally empty;
  EXPECT(empty.failed_frac() == 0);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void TestSeedDeterminism(const std::string& work_dir) {
  namespace fs = std::filesystem;
  for (Workload w : {Workload::kColdExplore, Workload::kWarmTpch,
                     Workload::kServedMix}) {
    std::string manifests[3];
    const uint64_t seeds[3] = {7, 7, 8};
    for (int i = 0; i < 3; ++i) {
      const std::string dir =
          work_dir + "/" + WorkloadName(w) + "." + std::to_string(i);
      fs::remove_all(dir);
      fs::create_directories(dir);
      const Plan plan = MakePlan(w, seeds[i], 0.02);
      EXPECT(WriteInputs(plan, dir).ok());
      manifests[i] = Slurp(dir + "/manifest.txt");
      if (i == 0 && w == Workload::kWarmTpch) {
        // The base file and the append chunks split the generated
        // lineitem file at order boundaries, with nothing lost.
        const std::vector<std::string>& parts =
            plan.states.back().at("lineitem");
        std::string joined;
        for (const std::string& part : parts) {
          const std::string bytes = Slurp(dir + "/" + part);
          EXPECT(!bytes.empty() && bytes.back() == '\n');
          joined += bytes;
        }
        EXPECT(parts.size() > 1);
        EXPECT(joined == Slurp(dir + "/lineitem.all.tbl"));
      }
      if (i == 1) {
        // Byte-identical files, not just equal hashes.
        for (const Part& part : plan.parts) {
          EXPECT(Slurp(dir + "/" + part.file) ==
                 Slurp(work_dir + "/" + WorkloadName(w) + ".0/" + part.file));
        }
      }
    }
    EXPECT(!manifests[0].empty());
    EXPECT(manifests[0] == manifests[1]);
    EXPECT(manifests[0].substr(manifests[0].find("file")) !=
           manifests[2].substr(manifests[2].find("file")));
    for (int i = 0; i < 3; ++i) {
      fs::remove_all(work_dir + "/" + WorkloadName(w) + "." +
                     std::to_string(i));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "nodbbench_test")
                     .string();
  std::filesystem::create_directories(work_dir);
  TestPercentiles();
  TestSelfTime();
  TestFailureTally();
  TestSeedDeterminism(work_dir);
  std::filesystem::remove_all(work_dir);
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("nodbbench self-tests passed\n");
  return 0;
}
