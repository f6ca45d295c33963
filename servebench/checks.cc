#include "servebench/checks.h"

#include <cmath>
#include <map>
#include <thread>

#include "bench/xmark_workload.h"
#include "src/plan/planner.h"
#include "src/plan/reference_eval.h"
#include "src/profile/flock.h"
#include "src/profile/rule_parser.h"
#include "src/tpq/tpq_parser.h"

namespace servebench {

namespace core = pimento::core;
using pimento::Status;
using pimento::StatusOr;

namespace {

/// FNV-1a over node ids and the exact bits of S and K.
uint64_t AnswersHash(const std::vector<core::RankedAnswer>& answers) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const core::RankedAnswer& a : answers) {
    mix(&a.node, sizeof(a.node));
    mix(&a.s, sizeof(a.s));
    mix(&a.k, sizeof(a.k));
  }
  const size_t n = answers.size();
  mix(&n, sizeof(n));
  return h;
}

std::string PairLabel(const core::SearchRequest& r) {
  std::string profile = r.profile_text.substr(0, r.profile_text.find('\n'));
  return "query '" + r.query_text + "' / " +
         (profile.empty() ? std::string("no profile") : profile);
}

/// Compares one pair's answers with ReferenceEvaluate on the
/// flock-encoded query: node ids exactly, S and K within 1e-9.
std::string OracleMismatch(const core::SearchEngine& engine,
                           const core::SearchRequest& request,
                           const std::vector<core::RankedAnswer>& actual) {
  StatusOr<pimento::tpq::Tpq> query =
      pimento::tpq::ParseTpq(request.query_text);
  if (!query.ok()) return "oracle parse: " + query.status().ToString();
  StatusOr<pimento::profile::UserProfile> profile =
      pimento::profile::ParseProfile(request.profile_text);
  if (!profile.ok()) return "oracle profile: " + profile.status().ToString();
  StatusOr<pimento::profile::QueryFlock> flock =
      pimento::profile::BuildFlock(*query, profile->scoping_rules);
  if (!flock.ok()) return "oracle flock: " + flock.status().ToString();
  std::vector<pimento::algebra::Answer> expected =
      pimento::plan::ReferenceEvaluate(engine.collection(), engine.scorer(),
                                       flock->encoded, *profile,
                                       request.options.k,
                                       request.options.optional_bonus);
  if (expected.size() != actual.size()) {
    return "answer count " + std::to_string(actual.size()) + " vs oracle " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].node != actual[i].node ||
        std::fabs(expected[i].s - actual[i].s) > 1e-9 ||
        std::fabs(expected[i].k - actual[i].k) > 1e-9) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: node %d S=%.12g K=%.12g vs oracle node %d "
                    "S=%.12g K=%.12g",
                    i + 1, actual[i].node, actual[i].s, actual[i].k,
                    expected[i].node, expected[i].s, expected[i].k);
      return buf;
    }
  }
  return "";
}

}  // namespace

void ClientBook::Record(uint64_t pair, uint64_t seq, Source source,
                        const std::vector<core::RankedAnswer>& answers) {
  const uint64_t hash = AnswersHash(answers);
  auto [it, inserted] = entries_.try_emplace(pair);
  Entry& e = it->second;
  if (inserted) {
    e.seq = seq;
    e.hash = hash;
    e.answers = answers;
  } else if (e.hash != hash) {
    ++e.mismatches;
  }
  e.sources |= source;
}

CheckReport VerifyAnswers(const std::vector<ClientBook>& books,
                          const Workload& workload,
                          const core::SearchEngine& engine, int threads) {
  CheckReport report;
  // Merge the clients' books: one representative per pair; any other
  // result for the pair must hash identically.
  std::map<uint64_t, const ClientBook::Entry*> pairs;
  std::map<uint64_t, uint8_t> sources;
  for (const ClientBook& book : books) {
    for (const auto& [pair, entry] : book.entries_) {
      auto [it, inserted] = pairs.emplace(pair, &entry);
      sources[pair] |= entry.sources;
      if (entry.mismatches > 0 ||
          (!inserted && it->second->hash != entry.hash)) {
        core::SearchRequest r;
        workload.Fill(entry.seq, 0, &r);
        report.errors.push_back("repeated requests disagree for " +
                                PairLabel(r));
      }
    }
  }
  report.pairs = static_cast<int64_t>(pairs.size());

  std::vector<std::pair<uint8_t, const ClientBook::Entry*>> todo;
  for (const auto& [pair, entry] : pairs) {
    todo.emplace_back(sources[pair], entry);
  }
  std::vector<std::vector<std::string>> errors(threads);
  std::vector<int64_t> replay_checked(threads, 0);
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      core::SearchRequest r;
      for (size_t i = w; i < todo.size(); i += threads) {
        const ClientBook::Entry& entry = *todo[i].second;
        workload.Fill(entry.seq, 0, &r);
        // A pair only the traced replay ran is re-run through Execute:
        // the layer-by-layer answers must equal the engine's own.
        if (todo[i].first == kFromReplay) {
          ++replay_checked[w];
          StatusOr<core::SearchResult> executed = engine.Execute(r);
          if (!executed.ok() ||
              AnswersHash(executed->answers) != entry.hash) {
            errors[w].push_back("traced replay differs from Execute for " +
                                PairLabel(r));
          }
        } else if (todo[i].first & kFromReplay) {
          ++replay_checked[w];
        }
        std::string why = OracleMismatch(engine, r, entry.answers);
        if (!why.empty()) {
          errors[w].push_back("oracle mismatch for " + PairLabel(r) +
                              ": " + why);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (int w = 0; w < threads; ++w) {
    report.replay_checked += replay_checked[w];
    report.errors.insert(report.errors.end(), errors[w].begin(),
                         errors[w].end());
  }
  return report;
}

Fig7Counts MeasureFig7(const pimento::index::Collection& collection,
                       const pimento::score::Scorer& scorer,
                       std::vector<std::string>* errors) {
  Fig7Counts counts;
  StatusOr<pimento::tpq::Tpq> query =
      pimento::tpq::ParseTpq(pimento::bench::kXmarkQuery);
  if (!query.ok()) {
    errors->push_back("Fig. 7 query: " + query.status().ToString());
    return counts;
  }
  for (int kors = 1; kors <= 4; ++kors) {
    StatusOr<pimento::profile::UserProfile> profile =
        pimento::profile::ParseProfile(pimento::bench::XmarkProfile(
            kors, /*with_vor=*/false, /*weighted=*/true));
    if (!profile.ok()) {
      errors->push_back("Fig. 7 profile: " + profile.status().ToString());
      return counts;
    }
    for (pimento::plan::Strategy strategy :
         {pimento::plan::Strategy::kPush, pimento::plan::Strategy::kNaive}) {
      pimento::plan::PlannerOptions options;
      options.strategy = strategy;
      options.rank_order = profile->rank_order;
      StatusOr<pimento::algebra::Plan> plan =
          pimento::plan::BuildPlan(collection, scorer, *query, profile->vors,
                                   profile->kors, options);
      if (!plan.ok()) {
        errors->push_back("Fig. 7 plan: " + plan.status().ToString());
        return counts;
      }
      plan->Execute(nullptr);
      const pimento::algebra::PlanStats stats = plan->CollectStats();
      const bool push = strategy == pimento::plan::Strategy::kPush;
      (push ? counts.push_kor_consumed : counts.naive_kor_consumed)[kors - 1] =
          stats.kor_consumed;
      (push ? counts.push_pruned : counts.naive_pruned)[kors - 1] =
          stats.pruned_by_topk;
    }
    if (counts.push_kor_consumed[kors - 1] >
        counts.naive_kor_consumed[kors - 1]) {
      errors->push_back(
          "Fig. 7 shape: Push consumed " +
          std::to_string(counts.push_kor_consumed[kors - 1]) +
          " KOR tuples > Naive " +
          std::to_string(counts.naive_kor_consumed[kors - 1]) +
          " at #KORs=" + std::to_string(kors));
    }
  }
  counts.measured = true;
  return counts;
}

}  // namespace servebench
