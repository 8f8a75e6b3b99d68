// The three workloads and the report they produce.
#ifndef NODBBENCH_WORKLOADS_H_
#define NODBBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "util/status.h"

namespace nodbbench {

struct RunOptions {
  std::string dir;        ///< holds the plan's generated inputs
  double seconds = 10;    ///< length of the timed phase
  bool trace = false;     ///< per-layer pass instead of end-to-end
  std::string trace_out;  ///< Chrome trace written here (trace mode)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics without trace, per-layer metrics with it.
  std::vector<Metric> metrics;
};

/// Runs `plan`'s workload against a NoDbEngine (through a loopback
/// Server for served_mix), checking every answer against `oracle`.
/// Prints a human-readable account as it goes.
nodb::Status RunWorkload(const Plan& plan, const std::vector<Answer>& oracle,
                         const RunOptions& options, RunReport* report);

/// The report's last line: {"correct", "attempted", "failed", "metrics"}.
std::string ReportJson(const RunReport& report);

}  // namespace nodbbench

#endif  // NODBBENCH_WORKLOADS_H_
