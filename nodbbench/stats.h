// Sample arithmetic of the benchmark: medians, the nearest-rank
// percentile and the rule that decides whether a sample supports it,
// and the failure tally behind `failed_frac`.
#ifndef NODBBENCH_STATS_H_
#define NODBBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace nodbbench {

/// Median of `samples` (mean of the middle two for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least p·n
/// samples at or below it. `p` is in (0, 1]; empty samples give 0.
double Percentile(std::vector<double> samples, double p);

/// Samples that lie strictly beyond the nearest-rank `p` percentile of
/// `n` samples: n − ceil(p·n).
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond it (for p95 that means n ≥ 200).
bool SupportsPercentile(size_t n, double p, size_t min_beyond = 10);

/// How one attempted query ended.
enum class Outcome {
  kOk,        ///< answered with the oracle's rows
  kError,     ///< the call returned an error status
  kRejected,  ///< the server answered REJECTED (admission timeout)
  kMismatch,  ///< answered, but with rows other than the oracle's
};

/// Maps a finished call to its outcome. The server's REJECTED frame
/// surfaces client-side as Status::Unavailable.
Outcome Classify(const nodb::Status& status, bool rows_match);

/// Counts attempts by outcome. Every outcome but kOk is a failure.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;
  uint64_t mismatches = 0;

  void Record(Outcome outcome);
  void Add(const Tally& other);
  uint64_t failed() const { return errors + rejected + mismatches; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const;
};

}  // namespace nodbbench

#endif  // NODBBENCH_STATS_H_
