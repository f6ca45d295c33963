// Correctness of everything the benchmark measured: every request's
// answers are recorded per distinct (query, profile) pair, repeats must be
// bit-identical, traced replays must equal Execute, and each pair's
// answers must equal the plan-free oracle (plan::ReferenceEvaluate).
#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine.h"
#include "servebench/workloads.h"

namespace servebench {

enum Source : uint8_t { kFromExecute = 1, kFromReplay = 2 };

/// One client thread's record of the answers it saw, per distinct pair.
/// The first result of a pair is kept whole; later ones by hash.
struct CheckReport;
class ClientBook;

/// Checks the books after the run (untimed). Uses `threads` threads for
/// the oracle.
CheckReport VerifyAnswers(const std::vector<ClientBook>& books,
                          const Workload& workload,
                          const pimento::core::SearchEngine& engine,
                          int threads);

class ClientBook {
 public:
  void Record(uint64_t pair, uint64_t seq, Source source,
              const std::vector<pimento::core::RankedAnswer>& answers);

 private:
  friend CheckReport VerifyAnswers(const std::vector<ClientBook>& books,
                                   const Workload& workload,
                                   const pimento::core::SearchEngine& engine,
                                   int threads);
  struct Entry {
    uint64_t seq = 0;  ///< a request of the stream that sent this pair
    uint64_t hash = 0;
    uint8_t sources = 0;
    int64_t mismatches = 0;
    std::vector<pimento::core::RankedAnswer> answers;
  };
  std::unordered_map<uint64_t, Entry> entries_;
};

struct CheckReport {
  int64_t pairs = 0;           ///< distinct pairs, each checked vs the oracle
  int64_t replay_checked = 0;  ///< pairs whose replay was compared
  std::vector<std::string> errors;
};

/// The paper's Fig. 7 shape as exact counts: the Fig. 5 query under the
/// weighted pi1..pi#KORs profile, planned with Push and with Naive.
struct Fig7Counts {
  bool measured = false;
  int64_t push_kor_consumed[4] = {};
  int64_t naive_kor_consumed[4] = {};
  int64_t push_pruned[4] = {};
  int64_t naive_pruned[4] = {};
};

/// Measures the counts on `collection`; appends to `errors` when a plan
/// fails or Push consumes more KOR tuples than Naive.
Fig7Counts MeasureFig7(const pimento::index::Collection& collection,
                       const pimento::score::Scorer& scorer,
                       std::vector<std::string>* errors);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
