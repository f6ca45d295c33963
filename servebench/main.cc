// servebench: the layered serving benchmark of the PIMENTO engine.
//
//   servebench --workload <fig5_hot|fig7_large|users_churn> --seed <n>
//              --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//              [--git-sha <sha>] [--source-digest <hex>]
//
// Generates the workload's XMark document and request stream from the
// seed, builds the engine (timed: setup_s), warms it, then drives the
// public SearchEngine::Execute from closed-loop client threads for
// --seconds. With --trace 1 the window alternates untraced Execute rounds
// (the tracing-overhead baseline and admission counters) with traced
// rounds that replay the stream layer by layer (layers.h); the spans are
// written as Chrome trace_event JSON. Afterwards every distinct (query,
// profile) pair is checked against the plan-free oracle, and the Fig. 7
// Push <= Naive shape is gated.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
// exit code is non-zero on any wrong answer or failed check.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "servebench/checks.h"
#include "servebench/layers.h"
#include "servebench/workloads.h"
#include "src/core/engine.h"
#include "src/data/xmark_gen.h"
#include "src/exec/admission_controller.h"
#include "src/exec/phrase_count_cache.h"
#include "src/exec/profile_cache.h"
#include "src/exec/profile_store.h"
#include "src/index/collection.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace {

namespace core = pimento::core;
namespace fs = std::filesystem;
using servebench::NowNs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/servebench/out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;  ///< completion time of each latency sample
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t write_text_bytes = 0;
  int max_tier = 0;
  std::string first_error;
};

/// Machine-wide CPU time from /proc/stat, in clock ticks: the time the
/// hypervisor ran something else on the virtual CPUs (steal),
/// and all time.
struct CpuSample {
  int64_t t_ns = 0;
  int64_t steal = 0;
  int64_t total = 0;
};

bool ReadCpuSample(CpuSample* sample) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  sample->t_ns = NowNs();
  sample->steal = static_cast<int64_t>(v[7]);
  sample->total = 0;
  for (unsigned long long x : v) sample->total += static_cast<int64_t>(x);
  return true;
}

struct Window {
  int64_t start_ns = 0;
  double seconds = 0.0;  ///< up to the last client's last completion
  std::vector<CpuSample> cpu;  ///< sampled every 50 ms while it ran
};

/// Runs one closed-loop thread per client for `seconds`: each calls
/// body(client, seq) back to back with the next stream number. The
/// calling thread samples /proc/stat meanwhile.
template <typename Body>
Window RunClosedLoop(int clients, double seconds,
                     std::atomic<uint64_t>* next_seq, Body body) {
  std::atomic<int> ready{0};
  std::atomic<int> done{0};
  std::atomic<int64_t> deadline_ns{0};
  std::vector<int64_t> end_ns(clients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      int64_t deadline = 0;
      while ((deadline = deadline_ns.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      while (NowNs() < deadline) body(c, next_seq->fetch_add(1));
      end_ns[c] = NowNs();
      done.fetch_add(1);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  Window window;
  window.start_ns = NowNs();
  deadline_ns.store(window.start_ns + static_cast<int64_t>(seconds * 1e9),
                    std::memory_order_release);
  CpuSample sample;
  while (done.load() < clients) {
    if (ReadCpuSample(&sample)) window.cpu.push_back(sample);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (ReadCpuSample(&sample)) window.cpu.push_back(sample);
  for (std::thread& t : threads) t.join();
  window.seconds =
      static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) -
                          window.start_ns) /
      1e9;
  return window;
}

/// Share of machine CPU time stolen by the hypervisor in [from, to), from
/// the samples bracketing the interval; 0 without samples.
double StealShare(const std::vector<CpuSample>& cpu, int64_t from, int64_t to) {
  const CpuSample* a = nullptr;
  const CpuSample* b = nullptr;
  for (const CpuSample& s : cpu) {
    if (s.t_ns <= from) a = &s;
    if (b == nullptr && s.t_ns >= to) b = &s;
  }
  if (a == nullptr && !cpu.empty()) a = &cpu.front();
  if (b == nullptr && !cpu.empty()) b = &cpu.back();
  if (a == nullptr || b == nullptr || b->total <= a->total) return 0.0;
  return static_cast<double>(b->steal - a->steal) /
         static_cast<double>(b->total - a->total);
}

/// The end-to-end figures of a window, as medians over equal-time slices.
/// Slices average twice kMinSliceSamples samples, so a slice's p99 keeps
/// about ten samples beyond it even when its throughput dips. Only the
/// slices whose steal share is at most the median slice's count: on a
/// shared machine, a period in which the hypervisor ran other tenants on
/// these CPUs stalls requests for whole scheduler ticks and would swamp
/// the tail. A window with fewer samples is one slice.
struct WindowFigures {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<double> slice_qps;
  std::vector<double> slice_p99_ms;
  std::vector<double> slice_steal;
  size_t used = 0;  ///< slices the figures come from
};

WindowFigures SliceFigures(const ClientStats& stats, const Window& window) {
  constexpr size_t kMinSliceSamples = 1000;
  constexpr size_t kMaxSlices = 30;
  const size_t slices = std::clamp<size_t>(
      stats.latency_ms.size() / (2 * kMinSliceSamples), 1, kMaxSlices);
  const double slice_ns = window.seconds * 1e9 / static_cast<double>(slices);
  std::vector<std::vector<double>> latency(slices);
  for (size_t i = 0; i < stats.latency_ms.size(); ++i) {
    const double offset =
        static_cast<double>(stats.done_ns[i] - window.start_ns);
    const size_t slice =
        std::min(slices - 1, static_cast<size_t>(std::max(0.0, offset) /
                                                 slice_ns));
    latency[slice].push_back(stats.latency_ms[i]);
  }
  WindowFigures fig;
  for (size_t i = 0; i < slices; ++i) {
    const int64_t from =
        window.start_ns +
        static_cast<int64_t>(slice_ns * static_cast<double>(i));
    fig.slice_qps.push_back(static_cast<double>(latency[i].size()) /
                            (slice_ns / 1e9));
    fig.slice_p99_ms.push_back(Percentile(latency[i], 0.99));
    fig.slice_steal.push_back(StealShare(
        window.cpu, from, from + static_cast<int64_t>(slice_ns)));
  }
  const double max_steal = Percentile(fig.slice_steal, 0.5);
  std::vector<double> qps, p50, p99;
  for (size_t i = 0; i < slices; ++i) {
    if (fig.slice_steal[i] > max_steal) continue;
    qps.push_back(fig.slice_qps[i]);
    p50.push_back(Percentile(latency[i], 0.50));
    p99.push_back(fig.slice_p99_ms[i]);
  }
  fig.used = qps.size();
  fig.qps = Percentile(qps, 0.5);
  fig.p50_ms = Percentile(p50, 0.5);
  fig.p99_ms = Percentile(p99, 0.5);
  return fig;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Whole-run counters of the engine's public stats getters.
struct EngineCounters {
  pimento::exec::ProfileCache::CacheStats profile;
  pimento::exec::PhraseCountCache::CacheStats phrase;
  pimento::exec::ProfileStore::Stats store;
  pimento::exec::AdmissionController::Stats admission;

  static EngineCounters Of(const core::SearchEngine& engine) {
    EngineCounters c;
    c.profile = engine.profile_cache().GetStats();
    c.phrase = engine.phrase_count_cache().GetStats();
    if (engine.profile_store() != nullptr) {
      c.store = engine.profile_store()->GetStats();
    }
    if (engine.admission_controller() != nullptr) {
      c.admission = engine.admission_controller()->GetStats();
    }
    return c;
  }

  /// Adds `after - before` of the counters the per-layer metrics use.
  void Add(const EngineCounters& after, const EngineCounters& before) {
    profile.hits += after.profile.hits - before.profile.hits;
    profile.misses += after.profile.misses - before.profile.misses;
    profile.evictions += after.profile.evictions - before.profile.evictions;
    phrase.hits += after.phrase.hits - before.phrase.hits;
    phrase.misses += after.phrase.misses - before.phrase.misses;
    phrase.evictions += after.phrase.evictions - before.phrase.evictions;
    store.lookups += after.store.lookups - before.store.lookups;
    store.hits += after.store.hits - before.store.hits;
    store.appends += after.store.appends - before.store.appends;
  }
};

bool ReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(SB_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--smoke] [--out-dir <dir>]\n");
    return 2;
  }
  if (!ReleaseBuild()) {
    std::fprintf(stderr,
                 "servebench: refusing to measure a non-Release build "
                 "(build type '%s')\n",
                 SB_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<servebench::Workload> workload =
      servebench::MakeWorkload(args.workload, args.seed, args.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int clients = workload->clients();

  // --- inputs (untimed) ---
  pimento::data::XmarkOptions gen;
  gen.target_bytes = workload->doc_bytes();
  gen.seed = static_cast<uint32_t>(servebench::Mix64(args.seed));
  const std::string xml_text =
      pimento::xml::SerializeXml(pimento::data::GenerateXmark(gen));
  const fs::path run_dir = fs::path(args.out_dir) /
                           ("run-" + args.workload + "-" +
                            std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n", run_dir.c_str());
    return 1;
  }
  struct RunDirCleanup {
    fs::path dir;
    ~RunDirCleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{run_dir};
  if (pimento::Status s = workload->PrepareInputs(run_dir.string()); !s.ok()) {
    std::fprintf(stderr, "servebench: preparing inputs: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  std::printf("servebench %s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " (smoke sizes)" : "");
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"seed\": %llu, \"doc_bytes\": %zu, \"clients\": %d, "
      "\"loop\": \"closed\"}\n",
      JsonEscape(args.git_sha).c_str(), JsonEscape(args.source_digest).c_str(),
      JsonEscape(SB_COMPILER).c_str(), JsonEscape(SB_CXX_FLAGS).c_str(),
      SB_BUILD_TYPE, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(args.seed), xml_text.size(), clients);
  std::printf("sizing: %s\n", workload->Sizing().c_str());

  // --- set-up (timed): FromXml + the workload's engine configuration ---
  std::optional<core::SearchEngine> engine;
  std::vector<double> setup_s, parse_ms, build_ms;
  for (int b = 0; b < workload->setup_builds(); ++b) {
    engine.reset();
    const int64_t t0 = NowNs();
    if (args.trace) {
      // The same two steps as FromXml, timed apart for xml/index.
      auto doc = pimento::xml::ParseXml(xml_text);
      const int64_t t1 = NowNs();
      if (!doc.ok()) {
        std::fprintf(stderr, "servebench: %s\n",
                     doc.status().ToString().c_str());
        return 1;
      }
      pimento::index::Collection collection =
          pimento::index::Collection::Build(std::move(doc).value());
      const int64_t t2 = NowNs();
      engine.emplace(std::move(collection));
      parse_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      build_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    } else {
      auto built = core::SearchEngine::FromXml(xml_text);
      if (!built.ok()) {
        std::fprintf(stderr, "servebench: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      engine.emplace(std::move(built).value());
    }
    if (pimento::Status s = workload->Configure(&*engine); !s.ok()) {
      std::fprintf(stderr, "servebench: configuring: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<std::string> errors;

  // --- Fig. 7 shape, as exact counts (untimed) ---
  servebench::Fig7Counts fig7 = servebench::MeasureFig7(
      engine->collection(), engine->scorer(), &errors);

  // --- the closed-loop runs ---
  std::vector<servebench::ClientBook> books(clients);
  std::vector<ClientStats> stats(clients);
  std::vector<core::SearchRequest> requests(clients);
  std::atomic<uint64_t> next_seq{0};
  int64_t write_text_bytes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Folds the clients' stats of the phase just run and resets them.
  auto drain = [&]() {
    ClientStats all;
    for (ClientStats& s : stats) {
      all.latency_ms.insert(all.latency_ms.end(), s.latency_ms.begin(),
                            s.latency_ms.end());
      all.done_ns.insert(all.done_ns.end(), s.done_ns.begin(),
                         s.done_ns.end());
      all.attempted += s.attempted;
      all.failed += s.failed;
      all.write_text_bytes += s.write_text_bytes;
      all.max_tier = std::max(all.max_tier, s.max_tier);
      if (all.first_error.empty()) all.first_error = s.first_error;
      s = ClientStats();
    }
    write_text_bytes += all.write_text_bytes;
    if (!all.first_error.empty()) {
      errors.push_back(std::to_string(all.failed) +
                       " requests failed, first: " + all.first_error);
    }
    return all;
  };
  auto execute_one = [&](int c, uint64_t seq) {
    core::SearchRequest& request = requests[c];
    const uint64_t pair = workload->Fill(seq, c, &request);
    const int64_t t0 = NowNs();
    pimento::StatusOr<core::SearchResult> result = engine->Execute(request);
    const int64_t t1 = NowNs();
    ClientStats& s = stats[c];
    ++s.attempted;
    if (workload->IsWrite(pair)) {
      s.write_text_bytes += static_cast<int64_t>(request.profile_text.size());
    }
    if (!result.ok()) {
      ++s.failed;
      if (s.first_error.empty()) s.first_error = result.status().ToString();
      return;
    }
    s.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    s.done_ns.push_back(t1);
    s.max_tier = std::max(s.max_tier, static_cast<int>(result->degrade_tier));
    books[c].Record(pair, seq, servebench::kFromExecute, result->answers);
  };

  // Untimed warm-up: caches fill and lazy set-up finishes first.
  RunClosedLoop(clients, /*seconds=*/2.0, &next_seq, execute_one);
  drain();

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Window window =
        RunClosedLoop(clients, args.seconds, &next_seq, execute_one);
    const ClientStats executed = drain();
    attempted += executed.attempted;
    failed += executed.failed;
    const double ok = static_cast<double>(executed.latency_ms.size());
    std::printf("window: %.3f s, %lld requests attempted, %lld failed\n",
                window.seconds, static_cast<long long>(executed.attempted),
                static_cast<long long>(executed.failed));
    const WindowFigures fig = SliceFigures(executed, window);
    std::printf("whole window: qps %.3f, p50 %.4f ms, p99 %.4f ms; "
                "reported: medians over the %zu least-stolen of %zu slices of "
                "%.2f s\n",
                ok / window.seconds, Percentile(executed.latency_ms, 0.50),
                Percentile(executed.latency_ms, 0.99), fig.used,
                fig.slice_qps.size(),
                window.seconds / static_cast<double>(fig.slice_qps.size()));
    std::printf("slices (qps, p99 ms, steal %%):");
    for (size_t i = 0; i < fig.slice_qps.size(); ++i) {
      std::printf(" %.0f/%.2f/%.1f", fig.slice_qps[i], fig.slice_p99_ms[i],
                  100.0 * fig.slice_steal[i]);
    }
    std::printf("\n");
    metrics.push_back({"qps", fig.qps, "1/s"});
    metrics.push_back({"p50_ms", fig.p50_ms, "ms"});
    metrics.push_back({"p99_ms", fig.p99_ms, "ms"});
    metrics.push_back({"setup_s", Percentile(setup_s, 0.50), "s"});
    std::printf("latency samples: %zu (p99 has %zu beyond it)\n",
                executed.latency_ms.size(), executed.latency_ms.size() / 100);
    std::printf("error_rate: %.6f ratio (non-OK incl. sheds / attempted)\n",
                Ratio(static_cast<double>(executed.failed),
                      static_cast<double>(executed.attempted)));
  } else {
    // --- traced run: rounds alternating untraced Execute (the baseline
    // for the tracing overhead, and the admission counters) with the
    // layer-by-layer replay of the continuing stream, so drift in the
    // machine's speed falls on both sides alike ---
    constexpr int kRounds = 4;
    const double round_s = args.seconds / kRounds;
    std::vector<servebench::SpanLog> logs(clients);
    std::vector<servebench::LayerCounters> counters(clients);
    std::vector<std::vector<core::RankedAnswer>> answers(clients);
    for (int c = 0; c < clients; ++c) logs[c].client = c;
    auto replay_one = [&](int c, uint64_t seq) {
      core::SearchRequest& request = requests[c];
      const uint64_t pair = workload->Fill(seq, c, &request);
      ClientStats& s = stats[c];
      ++s.attempted;
      if (workload->IsWrite(pair)) {
        s.write_text_bytes += static_cast<int64_t>(request.profile_text.size());
      }
      pimento::Status st = servebench::ReplayRequest(
          *engine, request, seq, &logs[c], &counters[c], &answers[c]);
      if (!st.ok()) {
        ++s.failed;
        if (s.first_error.empty()) s.first_error = st.ToString();
        return;
      }
      books[c].Record(pair, seq, servebench::kFromReplay, answers[c]);
    };
    std::vector<double> untraced_ms;
    int max_tier = 0;
    double traced_s = 0.0;
    EngineCounters replay_delta;
    const EngineCounters at_start = EngineCounters::Of(*engine);
    for (int round = 0; round < kRounds; ++round) {
      RunClosedLoop(clients, 0.4 * round_s, &next_seq, execute_one);
      const ClientStats executed = drain();
      attempted += executed.attempted;
      failed += executed.failed;
      max_tier = std::max(max_tier, executed.max_tier);
      untraced_ms.insert(untraced_ms.end(), executed.latency_ms.begin(),
                         executed.latency_ms.end());
      const EngineCounters before = EngineCounters::Of(*engine);
      traced_s +=
          RunClosedLoop(clients, 0.6 * round_s, &next_seq, replay_one).seconds;
      const ClientStats replayed = drain();
      attempted += replayed.attempted;
      failed += replayed.failed;
      replay_delta.Add(EngineCounters::Of(*engine), before);
    }
    const EngineCounters at_end = EngineCounters::Of(*engine);
    const double untraced_p50_ms = Percentile(untraced_ms, 0.50);

    servebench::LayerCounters sum;
    for (const servebench::LayerCounters& c : counters) sum.Add(c);
    const double n = static_cast<double>(sum.requests);
    const servebench::Breakdown bd = servebench::Summarize(logs);
    std::printf("traced window: %.3f s, %lld requests replayed\n", traced_s,
                static_cast<long long>(sum.requests));

    using servebench::Layer;
    auto add = [&](std::string name, double value, const char* unit) {
      metrics.push_back({std::move(name), value, unit});
    };
    auto us = [&](Layer l, double p) { return Percentile(bd.layer_us[l], p); };
    auto share = [&](Layer l) {
      double total = 0.0;
      for (double v : bd.layer_us[l]) total += v;
      return Ratio(total, bd.total_layer_us);
    };
    auto per_req = [&](double count) { return Ratio(count, n); };
    auto per_kreq = [&](double count) { return Ratio(1000.0 * count, n); };
    auto hit_ratio = [](double hits, double misses) {
      return Ratio(hits, hits + misses);
    };
    const pimento::algebra::PlanStats& p = sum.plan;
    const EngineCounters& d = replay_delta;

    add("algebra.execute_us_p50", us(servebench::kAlgebraExecute, 0.5), "us");
    add("algebra.execute_us_p99", us(servebench::kAlgebraExecute, 0.99), "us");
    add("algebra.scanned_per_req", per_req(p.scanned), "count/req");
    add("algebra.pruned_by_topk_per_req", per_req(p.pruned_by_topk),
        "count/req");
    add("algebra.kor_consumed_per_req", per_req(p.kor_consumed), "count/req");
    add("algebra.emitted_per_scanned", Ratio(p.emitted, p.scanned), "ratio");
    add("index.blocks_skipped_per_req",
        per_req(p.blocks_skipped + p.cursor_blocks_skipped), "count/req");
    add("index.block_skip_ratio", hit_ratio(p.blocks_skipped, p.blocks_visited),
        "ratio");
    add("index.cursor_block_skip_ratio",
        hit_ratio(p.cursor_blocks_skipped, p.cursor_blocks_visited), "ratio");
    add("exec.phrase_cache.hit_ratio",
        hit_ratio(d.phrase.hits, d.phrase.misses), "ratio");
    add("exec.phrase_cache.evictions_per_kreq", per_kreq(d.phrase.evictions),
        "count/kreq");
    add("plan.build_us_p50", us(servebench::kPlanBuild, 0.5), "us");
    add("plan.build_us_p99", us(servebench::kPlanBuild, 0.99), "us");
    add("plan.operators_per_req", per_req(sum.operators), "count/req");
    add("profile.flock_us_p50", us(servebench::kProfileFlock, 0.5), "us");
    add("profile.flock_us_p99", us(servebench::kProfileFlock, 0.99), "us");
    add("profile.flock_candidates_per_req", per_req(sum.flock.candidates),
        "count/req");
    add("profile.flock_hom_runs_per_req", per_req(sum.flock.hom_runs),
        "count/req");
    add("profile.order_memo_hit_ratio",
        hit_ratio(sum.flock.order_memo_hits, sum.flock.order_memo_misses),
        "ratio");
    add("exec.profile_cache.get_us_p50", us(servebench::kProfileCacheGet, 0.5),
        "us");
    add("exec.profile_cache.get_us_p99",
        us(servebench::kProfileCacheGet, 0.99), "us");
    add("exec.profile_cache.hit_ratio",
        hit_ratio(d.profile.hits, d.profile.misses), "ratio");
    add("exec.profile_cache.evictions_per_kreq", per_kreq(d.profile.evictions),
        "count/kreq");
    add("exec.profile_store.hit_ratio", Ratio(d.store.hits, d.store.lookups),
        "ratio");
    add("exec.profile_store.appends_per_kreq", per_kreq(d.store.appends),
        "count/kreq");
    double store_bytes = 0.0;
    if (!workload->store_path().empty()) {
      store_bytes =
          static_cast<double>(fs::file_size(workload->store_path(), ec));
      if (ec) store_bytes = 0.0;
    }
    add("exec.profile_store.bytes_per_profile_byte",
        Ratio(store_bytes, static_cast<double>(workload->stored_text_bytes() +
                                               write_text_bytes)),
        "ratio");
    add("exec.admission.shed_ratio",
        Ratio(at_end.admission.sheds() - at_start.admission.sheds(),
              at_end.admission.enqueued - at_start.admission.enqueued),
        "ratio");
    add("exec.admission.max_tier", max_tier, "tier");
    add("tpq.parse_us_p50", us(servebench::kTpqParse, 0.5), "us");
    add("core.rank_us_p50", us(servebench::kCoreRank, 0.5), "us");
    add("xml.parse_ms", Percentile(parse_ms, 0.5), "ms");
    add("index.build_ms", Percentile(build_ms, 0.5), "ms");
    add("trace.coverage", Ratio(bd.total_layer_us, bd.total_request_us),
        "ratio");
    add("trace.unattributed_share",
        1.0 - Ratio(Percentile(bd.layer_sum_us, 0.5), 1000.0 * untraced_p50_ms),
        "ratio");
    for (int l = servebench::kTpqParse; l < servebench::kNumLayers; ++l) {
      const Layer layer = static_cast<Layer>(l);
      add(std::string("trace.share.") + servebench::LayerName(layer),
          share(layer), "ratio");
    }

    if (args.workload != "fig7_large") {
      // The reported Fig. 7 counts always come from fig7_large's document
      // (same seed), built here after the measured phases.
      gen.target_bytes =
          servebench::MakeWorkload("fig7_large", args.seed, args.smoke)
              ->doc_bytes();
      const pimento::index::Collection large =
          pimento::index::Collection::Build(
              pimento::data::GenerateXmark(gen));
      const pimento::score::Scorer scorer(&large);
      fig7 = servebench::MeasureFig7(large, scorer, &errors);
    }
    double push = 0.0, naive = 0.0;
    for (int i = 0; i < 4; ++i) {
      push += static_cast<double>(fig7.push_kor_consumed[i]);
      naive += static_cast<double>(fig7.naive_kor_consumed[i]);
      const std::string k = "algebra.fig7_kors" + std::to_string(i + 1);
      add(k + "_push_kor_consumed", fig7.push_kor_consumed[i], "count");
      add(k + "_naive_kor_consumed", fig7.naive_kor_consumed[i], "count");
      add(k + "_push_pruned", fig7.push_pruned[i], "count");
      add(k + "_naive_pruned", fig7.naive_pruned[i], "count");
    }
    add("algebra.kor_consumed_push_over_naive", Ratio(push, naive), "ratio");

    const double algebra_share =
        share(servebench::kAlgebraExecute) + share(servebench::kPlanBuild);
    const double profile_share =
        share(servebench::kProfileFlock) + share(servebench::kProfileCacheGet);
    std::printf("layer time: algebra+plan %.1f%%, profile+cache/store %.1f%%, "
                "other %.1f%%\n",
                100.0 * algebra_share, 100.0 * profile_share,
                100.0 * (1.0 - algebra_share - profile_share));
    const fs::path trace_dir = fs::path(args.out_dir) / "traces";
    fs::create_directories(trace_dir, ec);
    const fs::path trace_path = trace_dir / (args.workload + ".trace.json");
    if (pimento::Status s =
            servebench::WriteChromeTrace(logs, trace_path.string(), 5000);
        !s.ok()) {
      errors.push_back(s.ToString());
    } else {
      std::printf("spans: %s\n", trace_path.c_str());
    }
  }

  // --- correctness (untimed) ---
  const servebench::CheckReport check =
      servebench::VerifyAnswers(books, *workload, *engine, 3);
  errors.insert(errors.end(), check.errors.begin(), check.errors.end());
  std::printf("checks: %lld distinct pairs vs oracle, %lld replayed pairs vs "
              "Execute, Fig. 7 Push <= Naive: %s\n",
              static_cast<long long>(check.pairs),
              static_cast<long long>(check.replay_checked),
              fig7.measured ? "checked" : "unavailable");

  if (!args.trace) metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const size_t shown = std::min<size_t>(errors.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    std::fprintf(stderr, "FAIL: %s\n", errors[i].c_str());
  }
  if (errors.size() > shown) {
    std::fprintf(stderr, "FAIL: ... %zu more\n", errors.size() - shown);
  }

  engine.reset();
  const bool correct = errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
