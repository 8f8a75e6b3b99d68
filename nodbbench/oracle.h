// The correctness oracle: canonical answers from the load-first engine
// for every (table generation, query) pair of a plan, computed before
// the timed phase and compared against every answer the run gets.
#ifndef NODBBENCH_ORACLE_H_
#define NODBBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/query_result.h"
#include "inputs.h"
#include "util/status.h"

namespace nodbbench {

/// Row count and FNV-1a hash of a result's CanonicalRows().
struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& other) const {
    return rows == other.rows && hash == other.hash;
  }
};

Answer Fingerprint(const nodb::QueryResult& result);

/// Loads each state's tables (assembled from their parts in `dir`) into
/// a LoadFirstEngine and answers that state's queries. Index-aligned
/// with plan.queries.
nodb::Status ComputeOracle(const Plan& plan, const std::string& dir,
                           std::vector<Answer>* answers);

nodb::Status WriteOracle(const std::vector<Answer>& answers,
                         const std::string& path);
nodb::Status ReadOracle(const std::string& path, size_t expected,
                        std::vector<Answer>* answers);

}  // namespace nodbbench

#endif  // NODBBENCH_ORACLE_H_
