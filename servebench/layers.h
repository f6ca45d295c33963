// The traced run: replays a request through the public function of every
// layer, in the order SearchEngine::ExecuteTopK calls them, timing each
// call from outside and recording one span per call in memory.
#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/profile/compiled_profile.h"

namespace servebench {

/// Span names, in call order; kRequest is every request's root span.
enum Layer : uint8_t {
  kRequest,
  kTpqParse,         ///< tpq::ParseTpq
  kProfileCacheGet,  ///< exec::ProfileCache::GetOrCompile (+ store)
  kProfileFlock,     ///< profile::BuildFlockCompiled
  kPlanBuild,        ///< plan::BuildPlan
  kAlgebraExecute,   ///< algebra::Plan::Execute + CollectStats
  kCoreRank,         ///< RankContext::VorKeys materialisation
  kNumLayers,
};

const char* LayerName(Layer layer);

/// Nanoseconds on the steady clock since the process's first call.
int64_t NowNs();

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = UINT32_MAX;  ///< index in the same SpanLog
  Layer layer = kRequest;
};

/// One client thread's spans, appended without locking.
struct SpanLog {
  int client = 0;
  std::vector<Span> spans;
};

/// Sums of the layers' own counters over replayed requests.
struct LayerCounters {
  int64_t requests = 0;
  int64_t operators = 0;
  pimento::algebra::PlanStats plan;
  pimento::profile::FlockBuildStats flock;

  /// Adds the counters the per-layer metrics read.
  void Add(const LayerCounters& other);
};

/// Replays `request` (top-k mode) layer by layer, as Execute would run it
/// with admission, tracing and verification off. Appends the request's
/// spans to `log` under id `request_id` and fills `answers` exactly as
/// SearchResult::answers.
pimento::Status ReplayRequest(
    const pimento::core::SearchEngine& engine,
    const pimento::core::SearchRequest& request, uint64_t request_id,
    SpanLog* log, LayerCounters* counters,
    std::vector<pimento::core::RankedAnswer>* answers);

/// Per-layer durations folded from the spans of a traced run.
struct Breakdown {
  /// Durations in microseconds, one entry per span, by layer.
  std::vector<double> layer_us[kNumLayers];
  /// Per request: the sum of its layer spans, in microseconds.
  std::vector<double> layer_sum_us;
  double total_layer_us = 0.0;    ///< over all requests
  double total_request_us = 0.0;  ///< root spans, over all requests
};

Breakdown Summarize(const std::vector<SpanLog>& logs);

/// Writes the spans as Chrome trace_event JSON (chrome://tracing): one
/// complete ("X") event per span, tid = client, args = request id and
/// parent span. At most `max_requests` requests per client are written.
pimento::Status WriteChromeTrace(const std::vector<SpanLog>& logs,
                                 const std::string& path,
                                 size_t max_requests);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
