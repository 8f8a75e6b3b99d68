#include "stats.h"

#include <algorithm>
#include <cmath>

namespace nodbbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {

/// 1-based nearest rank of the p percentile among n samples.
size_t NearestRank(size_t n, double p) {
  // The epsilon keeps p·n that is integral in exact arithmetic (0.95 ·
  // 200 = 190) from rounding up through floating-point error.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

bool SupportsPercentile(size_t n, double p, size_t min_beyond) {
  return SamplesBeyond(n, p) >= min_beyond;
}

Outcome Classify(const nodb::Status& status, bool rows_match) {
  if (status.IsUnavailable()) return Outcome::kRejected;
  if (!status.ok()) return Outcome::kError;
  return rows_match ? Outcome::kOk : Outcome::kMismatch;
}

void Tally::Record(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
    case Outcome::kMismatch:
      ++mismatches;
      break;
  }
}

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  errors += other.errors;
  rejected += other.rejected;
  mismatches += other.mismatches;
}

double Tally::failed_frac() const {
  if (attempted == 0) return 0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

}  // namespace nodbbench
