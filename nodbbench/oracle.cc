#include "oracle.h"

#include <cstdio>

#include "catalog/catalog.h"
#include "engines/load_first_engine.h"
#include "io/file.h"

namespace nodbbench {

Answer Fingerprint(const nodb::QueryResult& result) {
  Answer answer;
  uint64_t hash = Fnv1a("");
  for (const std::string& row : result.CanonicalRows()) {
    hash = Fnv1a(row + "\n", hash);
    ++answer.rows;
  }
  answer.hash = hash;
  return answer;
}

namespace {

/// Whether any query of `state` reads `table` (only those tables are
/// loaded for that state).
bool Referenced(const Plan& plan, uint32_t state, const std::string& table) {
  for (const Query& q : plan.queries) {
    if (q.state == state && Reads(q.sql, table)) return true;
  }
  return false;
}

}  // namespace

nodb::Status ComputeOracle(const Plan& plan, const std::string& dir,
                           std::vector<Answer>* answers) {
  answers->assign(plan.queries.size(), Answer());
  for (uint32_t state = 0; state < plan.states.size(); ++state) {
    nodb::Catalog catalog;
    std::vector<std::string> assembled;
    for (const Table& table : plan.tables) {
      if (!Referenced(plan, state, table.name)) continue;
      const std::vector<std::string>& parts = plan.states[state].at(table.name);
      std::string path = dir + "/" + parts.front();
      if (parts.size() > 1) {
        path = dir + "/oracle." + std::to_string(state) + "." + table.file;
        NODB_RETURN_NOT_OK(ConcatParts(dir, parts, path));
        assembled.push_back(path);
      }
      NODB_RETURN_NOT_OK(catalog.RegisterTable(
          {table.name, path, table.schema, table.dialect}));
    }
    nodb::Status status = nodb::Status::OK();
    {
      nodb::LoadFirstEngine engine(catalog, nodb::LoadProfile::kPostgres,
                                   "oracle");
      auto loaded = engine.Initialize();
      if (!loaded.ok()) status = loaded.status();
      for (uint32_t i = 0; status.ok() && i < plan.queries.size(); ++i) {
        if (plan.queries[i].state != state) continue;
        auto outcome = engine.Execute(plan.queries[i].sql);
        if (!outcome.ok()) {
          status = nodb::Status::Internal("oracle failed on " +
                                          plan.queries[i].sql + ": " +
                                          outcome.status().ToString());
          break;
        }
        (*answers)[i] = Fingerprint(outcome->result);
      }
    }
    for (const std::string& path : assembled) {
      NODB_RETURN_NOT_OK(nodb::RemoveFileIfExists(path));
    }
    NODB_RETURN_NOT_OK(status);
  }
  return nodb::Status::OK();
}

nodb::Status WriteOracle(const std::vector<Answer>& answers,
                         const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return nodb::Status::IOError("cannot create " + path);
  for (const Answer& a : answers) {
    std::fprintf(out, "%llu %llu\n", static_cast<unsigned long long>(a.rows),
                 static_cast<unsigned long long>(a.hash));
  }
  if (std::fclose(out) != 0) return nodb::Status::IOError("write " + path);
  return nodb::Status::OK();
}

nodb::Status ReadOracle(const std::string& path, size_t expected,
                        std::vector<Answer>* answers) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return nodb::Status::IOError("cannot open " + path);
  answers->clear();
  unsigned long long rows = 0;
  unsigned long long hash = 0;
  while (std::fscanf(in, "%llu %llu", &rows, &hash) == 2) {
    answers->push_back({rows, hash});
  }
  std::fclose(in);
  if (answers->size() != expected) {
    return nodb::Status::Internal("oracle holds " +
                                  std::to_string(answers->size()) +
                                  " answers, plan has " +
                                  std::to_string(expected) + " queries");
  }
  return nodb::Status::OK();
}

}  // namespace nodbbench
