#include "servebench/layers.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "src/exec/phrase_count_cache.h"
#include "src/exec/profile_cache.h"
#include "src/plan/planner.h"
#include "src/profile/flock.h"
#include "src/tpq/tpq_parser.h"

namespace servebench {

namespace core = pimento::core;
using pimento::Status;
using pimento::StatusOr;

const char* LayerName(Layer layer) {
  switch (layer) {
    case kRequest:
      return "request";
    case kTpqParse:
      return "tpq.parse";
    case kProfileCacheGet:
      return "exec.profile_cache.get";
    case kProfileFlock:
      return "profile.flock";
    case kPlanBuild:
      return "plan.build";
    case kAlgebraExecute:
      return "algebra.execute";
    case kCoreRank:
      return "core.rank";
    case kNumLayers:
      break;
  }
  return "?";
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

/// Records one span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, uint64_t request, uint32_t parent)
      : log_(log), index_(static_cast<uint32_t>(log->spans.size())) {
    Span span;
    span.layer = layer;
    span.request = request;
    span.parent = parent;
    span.start_ns = NowNs();
    log_->spans.push_back(span);
  }
  ~ScopedSpan() { log_->spans[index_].end_ns = NowNs(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t index() const { return index_; }

 private:
  SpanLog* log_;
  uint32_t index_;
};

}  // namespace

Status ReplayRequest(const core::SearchEngine& engine,
                     const core::SearchRequest& request, uint64_t request_id,
                     SpanLog* log, LayerCounters* counters,
                     std::vector<core::RankedAnswer>* answers) {
  static const pimento::profile::UserProfile kEmptyProfile;
  ScopedSpan root(log, kRequest, request_id, UINT32_MAX);
  const uint32_t parent = root.index();

  StatusOr<pimento::tpq::Tpq> query = [&] {
    ScopedSpan span(log, kTpqParse, request_id, parent);
    return pimento::tpq::ParseTpq(request.query_text);
  }();
  if (!query.ok()) return query.status();

  std::shared_ptr<const pimento::exec::CompiledProfile> compiled;
  if (!request.profile_text.empty()) {
    ScopedSpan span(log, kProfileCacheGet, request_id, parent);
    auto got = engine.profile_cache().GetOrCompile(request.profile_text);
    if (!got.ok()) return got.status();
    compiled = *std::move(got);
  }
  const pimento::profile::UserProfile& profile =
      compiled != nullptr ? compiled->profile : kEmptyProfile;
  const core::SearchOptions& options = request.options;
  if (compiled != nullptr && options.check_ambiguity &&
      compiled->ambiguity.ambiguous &&
      !compiled->ambiguity.resolved_by_priorities) {
    return Status::Ambiguous(compiled->ambiguity.explanation);
  }

  pimento::profile::FlockBuildStats fstats;
  StatusOr<pimento::profile::QueryFlock> flock = [&] {
    ScopedSpan span(log, kProfileFlock, request_id, parent);
    return compiled != nullptr
               ? pimento::profile::BuildFlockCompiled(
                     *query, compiled->compiled_rules, nullptr, &fstats)
               : pimento::profile::BuildFlock(*query, {}, nullptr);
  }();
  if (!flock.ok()) return flock.status();

  pimento::plan::PlannerOptions popts;
  popts.k = options.k;
  popts.strategy = options.strategy;
  popts.rank_order = profile.rank_order;
  popts.vor_mode = options.vor_mode;
  popts.kor_order = options.kor_order;
  popts.optional_bonus = options.optional_bonus;
  popts.use_structural_prefilter = options.use_structural_prefilter;
  popts.scan_mode = options.scan_mode;
  popts.use_score_floor = options.use_score_floor;
  popts.count_cache = &engine.phrase_count_cache();
  StatusOr<pimento::algebra::Plan> plan = [&] {
    ScopedSpan span(log, kPlanBuild, request_id, parent);
    return pimento::plan::BuildPlan(engine.collection(), engine.scorer(),
                                    flock->encoded, profile.vors,
                                    profile.kors, popts);
  }();
  if (!plan.ok()) return plan.status();

  std::vector<pimento::algebra::Answer> raw;
  pimento::algebra::PlanStats stats;
  {
    ScopedSpan span(log, kAlgebraExecute, request_id, parent);
    raw = plan->Execute(nullptr);
    stats = plan->CollectStats();
  }

  {
    ScopedSpan span(log, kCoreRank, request_id, parent);
    pimento::algebra::RankContext rank(profile.vors, profile.rank_order);
    answers->clear();
    answers->reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      core::RankedAnswer ra;
      ra.rank = static_cast<int>(i) + 1;
      ra.node = raw[i].node;
      ra.s = raw[i].s;
      ra.k = raw[i].k;
      ra.vor_keys = rank.VorKeys(raw[i]);
      answers->push_back(std::move(ra));
    }
  }

  LayerCounters one;
  one.requests = 1;
  one.operators = static_cast<int64_t>(plan->size());
  one.plan = stats;
  one.flock = fstats;
  counters->Add(one);
  return Status::OK();
}

void LayerCounters::Add(const LayerCounters& other) {
  requests += other.requests;
  operators += other.operators;
  plan.scanned += other.plan.scanned;
  plan.pruned_by_topk += other.plan.pruned_by_topk;
  plan.kor_consumed += other.plan.kor_consumed;
  plan.emitted += other.plan.emitted;
  plan.blocks_skipped += other.plan.blocks_skipped;
  plan.blocks_visited += other.plan.blocks_visited;
  plan.cursor_blocks_skipped += other.plan.cursor_blocks_skipped;
  plan.cursor_blocks_visited += other.plan.cursor_blocks_visited;
  flock.candidates += other.flock.candidates;
  flock.hom_runs += other.flock.hom_runs;
  flock.order_memo_hits += other.flock.order_memo_hits;
  flock.order_memo_misses += other.flock.order_memo_misses;
}

Breakdown Summarize(const std::vector<SpanLog>& logs) {
  Breakdown out;
  for (const SpanLog& log : logs) {
    double request_sum = 0.0;
    bool open = false;
    for (const Span& span : log.spans) {
      const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      if (span.layer == kRequest) {
        if (open) out.layer_sum_us.push_back(request_sum);
        request_sum = 0.0;
        open = true;
        out.total_request_us += us;
        continue;
      }
      out.layer_us[span.layer].push_back(us);
      request_sum += us;
      out.total_layer_us += us;
    }
    if (open) out.layer_sum_us.push_back(request_sum);
  }
  return out;
}

Status WriteChromeTrace(const std::vector<SpanLog>& logs,
                        const std::string& path, size_t max_requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const SpanLog& log : logs) {
    size_t requests = 0;
    for (const Span& span : log.spans) {
      if (span.layer == kRequest && ++requests > max_requests) break;
      std::fprintf(
          f,
          "%s\n  {\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
          "\"args\": {\"request\": %llu, \"parent\": \"%s\"}}",
          first ? "" : ",", LayerName(span.layer),
          static_cast<double>(span.start_ns) / 1e3,
          static_cast<double>(span.end_ns - span.start_ns) / 1e3, log.client,
          static_cast<unsigned long long>(span.request),
          span.parent == UINT32_MAX
              ? ""
              : LayerName(log.spans[span.parent].layer));
      first = false;
    }
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("cannot finish " + path);
}

}  // namespace servebench
