// Seeded workload inputs. MakePlan derives everything a run needs from
// (workload, seed, scale): table schemas, the bytes of every data file,
// the SQL of every query with the table generation it runs against,
// and the order in which clients send them. The engine only ever sees
// the files WriteInputs produces and the SQL strings.
#ifndef NODBBENCH_INPUTS_H_
#define NODBBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "csv/dialect.h"
#include "raw/nodb_config.h"
#include "types/schema.h"
#include "util/status.h"

namespace nodbbench {

enum class Workload { kColdExplore, kWarmTpch, kServedMix };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// Buffered file writer.
class TextOut {
 public:
  explicit TextOut(std::FILE* file) : file_(file) {}
  void Put(const char* data, size_t size);
  void Put(const std::string& text) { Put(text.data(), text.size()); }
  void PutChar(char c) { Put(&c, 1); }
  void PutInt(uint64_t value);
  nodb::Status Finish();

 private:
  std::FILE* file_;
  std::string buffer_;
  bool failed_ = false;
};

/// One generated file: a table's initial content, an append chunk or
/// the replacement content of an in-place rewrite. `write` creates it
/// at the path it is given; it may read parts listed before it.
struct Part {
  std::string file;
  std::function<nodb::Status(const std::string& path)> write;
};

struct Table {
  std::string name;
  std::string file;  ///< the live file the engine reads
  std::string base_part;
  nodb::CsvDialect dialect;
  std::shared_ptr<nodb::Schema> schema;
};

/// What each table's file holds at one point of the workload: the
/// concatenation of the listed parts.
using State = std::map<std::string, std::vector<std::string>>;

struct Query {
  uint32_t state = 0;
  std::string klass;
  std::string sql;
};

struct Step {
  enum class Kind { kQuery, kAppend, kRewrite };
  Kind kind = Kind::kQuery;
  uint32_t query = 0;  ///< kQuery: index into Plan::queries
  std::string table;   ///< kAppend / kRewrite
  std::string part;    ///< the rows to append, or the new content
};

struct Plan {
  Workload workload = Workload::kColdExplore;
  uint64_t seed = 0;
  std::vector<Table> tables;
  std::vector<Part> parts;
  std::vector<State> states;
  std::vector<Query> queries;
  /// cold_explore: one exploration script (run on a fresh engine each
  /// time). Other workloads: the append-then-query steps after the
  /// timed phase.
  std::vector<Step> script;
  /// Every state-0 query once, in a fixed order (the warm-up pass).
  std::vector<uint32_t> warmup;
  /// Per closed-loop client, the queries it sends, cycled if exhausted.
  std::vector<std::vector<uint32_t>> clients;
  nodb::NoDbConfig config;
  /// warm_tpch and served_mix: set-up rounds, each a fresh engine that
  /// then runs 1/rounds of the timed phase; set-up metrics are medians
  /// over the rounds. (cold_explore sets up once per script.)
  uint32_t rounds = 1;
  /// Sizes and budgets, printed with every run.
  std::string description;
};

/// `scale` shrinks row counts (1 = the benchmark's sizes; the
/// self-tests use small scales).
Plan MakePlan(Workload workload, uint64_t seed, double scale = 1.0);

/// Writes every part of `plan` into `dir` plus `manifest.txt`, which
/// lists each file's size and FNV-1a hash and the hashes of the query
/// list and the client schedules. Same seed, same manifest.
nodb::Status WriteInputs(const Plan& plan, const std::string& dir);

/// Copies each table's base part to its live file in `dir`.
nodb::Status ResetTables(const Plan& plan, const std::string& dir);

/// Concatenates `parts` (files in `dir`) into `out_path`.
nodb::Status ConcatParts(const std::string& dir,
                         const std::vector<std::string>& parts,
                         const std::string& out_path);

/// Whether `sql` reads `table` (names it after FROM or JOIN).
bool Reads(const std::string& sql, const std::string& table);

/// FNV-1a over `text`, continuing from `hash`.
uint64_t Fnv1a(const std::string& text,
               uint64_t hash = 14695981039346656037ull);

/// The size and FNV-1a hash of the file at `path`.
nodb::Status HashFile(const std::string& path, uint64_t* bytes,
                      uint64_t* hash);

}  // namespace nodbbench

#endif  // NODBBENCH_INPUTS_H_
