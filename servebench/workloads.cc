#include "servebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "bench/xmark_workload.h"
#include "src/exec/profile_cache.h"
#include "src/exec/profile_store.h"

namespace servebench {
namespace {

using pimento::Status;
using pimento::core::SearchRequest;

constexpr const char* kPlainS = "profile plain\nrank S\n";

/// A fixed mix of (query, profile) requests, sent in a seeded order that
/// keeps the mix's composition exact over every cycle: request `seq` is
/// entry order[(seq / n) % kShuffles][seq % n].
class MixWorkload : public Workload {
 public:
  struct Entry {
    std::string query;
    std::string profile;
  };

  MixWorkload(std::vector<Entry> mix, uint64_t seed,
              size_t doc_bytes, int clients, int setup_builds,
              std::string why)
      : mix_(std::move(mix)),
        doc_bytes_(doc_bytes),
        clients_(clients),
        setup_builds_(setup_builds),
        why_(std::move(why)) {
    std::map<std::pair<std::string, std::string>, uint64_t> pairs;
    for (const Entry& e : mix_) {
      pair_of_.push_back(
          pairs.emplace(std::make_pair(e.query, e.profile), pairs.size())
              .first->second);
    }
    std::mt19937_64 rng(seed);
    order_.resize(kShuffles);
    for (std::vector<uint32_t>& order : order_) {
      for (uint32_t i = 0; i < mix_.size(); ++i) order.push_back(i);
      std::shuffle(order.begin(), order.end(), rng);
    }
  }

  size_t doc_bytes() const override { return doc_bytes_; }
  int clients() const override { return clients_; }
  int setup_builds() const override { return setup_builds_; }

  uint64_t Fill(uint64_t seq, int client,
                SearchRequest* request) const override {
    (void)client;
    const uint32_t i =
        order_[(seq / mix_.size()) % kShuffles][seq % mix_.size()];
    request->query_text = mix_[i].query;
    request->profile_text = mix_[i].profile;
    return pair_of_[i];
  }

  std::string Sizing() const override {
    return std::to_string(mix_.size()) + "-request mix, " +
           std::to_string(clients_) + " closed-loop client(s); " + why_;
  }

 private:
  static constexpr size_t kShuffles = 16;

  std::vector<Entry> mix_;
  std::vector<uint64_t> pair_of_;
  std::vector<std::vector<uint32_t>> order_;
  size_t doc_bytes_;
  int clients_;
  int setup_builds_;
  std::string why_;
};

/// The 64-request Fig. 5 mix: the Fig. 5 query under the pi1..pi4 KOR
/// profiles (with and without the pi5 VOR and weights); every fourth
/// request is the selective Phoenix query, half of those under plain S.
std::vector<MixWorkload::Entry> Fig5Mix() {
  std::vector<std::string> profiles;
  for (int kors = 1; kors <= 4; ++kors) {
    profiles.push_back(pimento::bench::XmarkProfile(kors));
    profiles.push_back(pimento::bench::XmarkProfile(kors, /*with_vor=*/true,
                                                    /*weighted=*/true));
  }
  std::vector<MixWorkload::Entry> mix;
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 3) {
      mix.push_back({pimento::bench::kXmarkSelectiveQuery,
                     i % 8 == 3 ? kPlainS : profiles[i % profiles.size()]});
    } else {
      mix.push_back(
          {pimento::bench::kXmarkQuery, profiles[i % profiles.size()]});
    }
  }
  return mix;
}

/// Fig. 7's inputs: the Fig. 5 query under the weighted pi1..pi4 profiles
/// (default Push plan), plus plain-S requests whose live top-k floor wires
/// into the block-max scan. Four heavy to three light keeps the median
/// inside the heavy requests' mode rather than on the gap between modes.
std::vector<MixWorkload::Entry> Fig7Mix() {
  std::vector<MixWorkload::Entry> mix;
  for (int kors = 1; kors <= 4; ++kors) {
    mix.push_back({pimento::bench::kXmarkQuery,
                   pimento::bench::XmarkProfile(kors, /*with_vor=*/false,
                                                /*weighted=*/true)});
  }
  mix.push_back({pimento::bench::kXmarkQuery, kPlainS});
  mix.push_back({pimento::bench::kXmarkQuery, kPlainS});
  mix.push_back({pimento::bench::kXmarkSelectiveQuery, kPlainS});
  return mix;
}

/// A population of distinct rule-heavy users, Zipf-skewed, far larger
/// than the engine's profile cache. Reads of users evicted from the cache
/// load their compiled rules from the profile store; a small share of
/// requests are profile edits, which miss both and compile + append.
class UsersChurnWorkload : public Workload {
 public:
  struct Sizes {
    size_t doc_bytes;
    int users;
    int srs_per_user;
    int template_pool;
    double zipf_s;
    int edit_per_10k;  ///< share of requests that are profile edits
    int setup_builds;
  };

  UsersChurnWorkload(uint64_t seed, const Sizes& sizes)
      : seed_(seed), sizes_(sizes) {
    std::mt19937_64 rng(seed ^ 0x75736572ULL);
    // Template lines. Distinct global priorities make every user's SRs
    // distinctly prioritised; identical lines across users exercise the
    // store's rule-line dedup. One template in 16 is conditioned on a
    // city the workload's queries name, so some SRs apply per query.
    static const char* kCities[] = {"Phoenix", "Tucson", "Nairobi", "Osaka"};
    static const char* kBoosts[] = {"male", "College", "Yes", "Graduate"};
    for (int t = 0; t < sizes_.template_pool; ++t) {
      std::string cond =
          t % 16 == 0 ? kCities[(t / 16) % 4] : "w" + std::to_string(t);
      templates_.push_back("sr t" + std::to_string(t) + " priority " +
                           std::to_string(t + 1) +
                           ": if //person[ftcontains(., \"" + cond +
                           "\")] then add ftcontains(person, \"" +
                           kBoosts[t % 4] + "\")\n");
    }
    // Selective two-keyword queries (a city and a surname: a few dozen
    // persons each), plus the non-selective Fig. 5 query as the last entry.
    static const char* kSurnames[] = {"Tempesti", "Diaz", "Morita", "Dayal"};
    for (const char* city : kCities) {
      for (const char* surname : kSurnames) {
        queries_.push_back(std::string("//person[ftcontains(., \"") + city +
                           "\") and ftcontains(., \"" + surname + "\")]");
      }
    }
    queries_.push_back(pimento::bench::kXmarkQuery);

    // Each user's template subset (sorted, so the text is canonical).
    std::vector<uint16_t> pool(sizes_.template_pool);
    for (int t = 0; t < sizes_.template_pool; ++t) {
      pool[t] = static_cast<uint16_t>(t);
    }
    user_templates_.resize(static_cast<size_t>(sizes_.users) *
                           sizes_.srs_per_user);
    for (int u = 0; u < sizes_.users; ++u) {
      std::shuffle(pool.begin(), pool.end(), rng);
      std::sort(pool.begin(), pool.begin() + sizes_.srs_per_user);
      std::copy(pool.begin(), pool.begin() + sizes_.srs_per_user,
                user_templates_.begin() +
                    static_cast<ptrdiff_t>(u) * sizes_.srs_per_user);
    }

    // Zipf over users: user u is the (u+1)-th most popular. The seed picks
    // the template subsets and each request's user, not which profile
    // flavours are popular, so seeds differ little in cost.
    double total = 0.0;
    for (int r = 0; r < sizes_.users; ++r) {
      total += 1.0 / std::pow(r + 1.0, sizes_.zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    query_of_user_.resize(sizes_.users);
    const int fig5 = static_cast<int>(queries_.size()) - 1;
    for (int u = 0; u < sizes_.users; ++u) {
      // One user in 32 sends the non-selective Fig. 5 query.
      query_of_user_[u] = static_cast<uint8_t>(u % 32 == 21 ? fig5 : u % fig5);
    }
    for (int c = 0; c < kClients; ++c) {
      client_ids_.push_back("client" + std::to_string(c));
    }
  }

  size_t doc_bytes() const override { return sizes_.doc_bytes; }
  int clients() const override { return kClients; }
  int setup_builds() const override { return sizes_.setup_builds; }

  Status PrepareInputs(const std::string& dir) override {
    store_path_ = dir + "/profiles.store";
    std::remove(store_path_.c_str());
    auto store = pimento::exec::ProfileStore::Open(store_path_);
    if (!store.ok()) return store.status();
    // A one-entry cache: every base profile compiles once and is appended.
    pimento::exec::ProfileCache cache(1);
    cache.set_store(store->get());
    std::vector<std::thread> threads;
    std::vector<Status> failures(clients());
    std::vector<int64_t> text_bytes(clients(), 0);
    for (int w = 0; w < clients(); ++w) {
      threads.emplace_back([&, w] {
        std::string text;
        for (int u = w; u < sizes_.users; u += clients()) {
          ProfileText(u, 0, &text);
          text_bytes[w] += static_cast<int64_t>(text.size());
          auto got = cache.GetOrCompile(text);
          if (!got.ok()) failures[w] = got.status();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int w = 0; w < clients(); ++w) {
      if (!failures[w].ok()) return failures[w];
      stored_text_bytes_ += text_bytes[w];
    }
    const auto stats = (*store)->GetStats();
    if (stats.profiles != sizes_.users) {
      return Status::Internal("profile store holds " +
                              std::to_string(stats.profiles) + " of " +
                              std::to_string(sizes_.users) + " users");
    }
    return Status::OK();
  }

  Status Configure(pimento::core::SearchEngine* engine) override {
    PIMENTO_RETURN_IF_ERROR(engine->SetProfileStore(store_path_));
    // Bounds far above 3 closed-loop clients: admission is on the path
    // but never sheds or degrades.
    pimento::exec::AdmissionConfig config;
    config.max_queue_depth = 64;
    config.high_watermark = 48;
    config.low_watermark = 16;
    config.max_in_flight_per_client = 4;
    engine->EnableAdmissionControl(config);
    return Status::OK();
  }

  uint64_t Fill(uint64_t seq, int client,
                SearchRequest* request) const override {
    const uint64_t h = Mix64(seed_ ^ Mix64(seq));
    const double p = static_cast<double>(h >> 11) * 0x1.0p-53;
    const int user = static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, p) - cdf_.begin());
    const bool edit = Mix64(h) % 10000 < static_cast<uint64_t>(
                                             sizes_.edit_per_10k);
    request->query_text = queries_[query_of_user_[user]];
    ProfileText(user, edit ? seq + 1 : 0, &request->profile_text);
    request->client_id = client_ids_[client];
    return edit ? (kEditKeyBit | seq) : static_cast<uint64_t>(user);
  }

  bool IsWrite(uint64_t pair_key) const override {
    return (pair_key & kEditKeyBit) != 0;
  }
  std::string store_path() const override { return store_path_; }
  int64_t stored_text_bytes() const override { return stored_text_bytes_; }

  std::string Sizing() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "users=%d (%dx the %zu-entry profile cache), srs_per_user=%d "
        "from %d shared templates, zipf_s=%.2f, edits=%.1f%% of requests, "
        "3 closed-loop clients with client_id, admission on (queue 64), "
        "store flush policy: every append flushed to the OS, never fsynced",
        sizes_.users,
        sizes_.users /
            static_cast<int>(pimento::exec::ProfileCache::kDefaultCapacity),
        pimento::exec::ProfileCache::kDefaultCapacity, sizes_.srs_per_user,
        sizes_.template_pool, sizes_.zipf_s, sizes_.edit_per_10k / 100.0);
    return buf;
  }

 private:
  static constexpr int kClients = 3;
  static constexpr uint64_t kEditKeyBit = 1ULL << 62;

  /// User `user`'s profile text; `edit` != 0 is a distinct edited
  /// version (one extra SR, a new name line).
  void ProfileText(int user, uint64_t edit, std::string* out) const {
    out->assign("profile u");
    out->append(std::to_string(user));
    if (edit != 0) {
      out->append("e");
      out->append(std::to_string(edit));
    }
    out->append(user % 4 == 3 ? "\nrank S\n" : "\nrank K,V,S\n");
    const uint16_t* t =
        &user_templates_[static_cast<size_t>(user) * sizes_.srs_per_user];
    for (int i = 0; i < sizes_.srs_per_user; ++i) out->append(templates_[t[i]]);
    if (edit != 0) {
      out->append("sr e" + std::to_string(edit) + " priority " +
                  std::to_string(sizes_.template_pool + 1) +
                  ": if //person[ftcontains(., \"e" + std::to_string(edit) +
                  "\")] then add ftcontains(person, \"Other\")\n");
    }
    out->append(user % 2 == 0
                    ? "kor pi1: tag=person prefer ftcontains(\"male\")\n"
                    : "kor pi3: tag=person prefer ftcontains(\"College\")\n");
    if (user % 3 == 0) out->append("vor pi5: tag=person prefer age = \"33\"\n");
  }

  uint64_t seed_;
  Sizes sizes_;
  std::vector<std::string> templates_;
  std::vector<std::string> queries_;
  std::vector<uint16_t> user_templates_;
  std::vector<double> cdf_;
  std::vector<uint8_t> query_of_user_;
  std::vector<std::string> client_ids_;
  std::string store_path_;
  int64_t stored_text_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "fig5_hot") {
    return std::make_unique<MixWorkload>(
        Fig5Mix(), seed, smoke ? 64u << 10 : 1u << 20,
        /*clients=*/3, /*setup_builds=*/smoke ? 2 : 9,
        "every cache fits; time goes to algebra/index and contention");
  }
  if (name == "fig7_large") {
    return std::make_unique<MixWorkload>(
        Fig7Mix(), seed, smoke ? 128u << 10 : 8u << 20,
        /*clients=*/1, /*setup_builds=*/smoke ? 2 : 5,
        "8x fig5_hot's document, uncontended latency past the CPU caches");
  }
  if (name == "users_churn") {
    UsersChurnWorkload::Sizes sizes;
    if (smoke) {
      sizes = {64u << 10, 320, 12, 48, 1.0, 200, 2};
    } else {
      sizes = {1u << 20, 16 * static_cast<int>(
                                   pimento::exec::ProfileCache::
                                       kDefaultCapacity),
               100, 256, 1.0, 200, 9};
    }
    return std::make_unique<UsersChurnWorkload>(seed, sizes);
  }
  return nullptr;
}

}  // namespace servebench
