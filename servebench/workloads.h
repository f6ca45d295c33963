// The benchmark's workloads: each one generates its XMark document and its
// request stream from the seed; the engine only ever sees the generated
// inputs.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/core/engine.h"

namespace servebench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Target size handed to the XMark generator.
  virtual size_t doc_bytes() const = 0;
  /// Closed-loop clients: each sends its next request only after the
  /// previous one returned.
  virtual int clients() const = 0;
  /// Builds timed for setup_s (their median is reported).
  virtual int setup_builds() const = 0;

  /// Inputs that live outside the engine but are not the engine's own
  /// set-up, such as the profile store a previous process left behind.
  /// Untimed. `dir` is a private scratch directory for this run.
  virtual pimento::Status PrepareInputs(const std::string& dir) {
    (void)dir;
    return pimento::Status::OK();
  }

  /// Per-workload engine configuration (store, admission control). Part
  /// of the timed set-up.
  virtual pimento::Status Configure(pimento::core::SearchEngine* engine) {
    (void)engine;
    return pimento::Status::OK();
  }

  /// Request number `seq` of the stream, as sent by `client`. The content
  /// depends only on (seed, seq), so any request can be rebuilt later for
  /// the oracle. Returns the key of its distinct (query, profile) pair.
  virtual uint64_t Fill(uint64_t seq, int client,
                        pimento::core::SearchRequest* request) const = 0;

  /// True when the pair is a profile write (an edit the store appends).
  virtual bool IsWrite(uint64_t pair_key) const {
    (void)pair_key;
    return false;
  }

  /// The profile store file PrepareInputs wrote ("" when none) and the
  /// profile-text bytes it holds.
  virtual std::string store_path() const { return ""; }
  virtual int64_t stored_text_bytes() const { return 0; }

  /// One line naming the sizes this workload was built with.
  virtual std::string Sizing() const = 0;
};

/// Returns nullptr for an unknown name. `smoke` shrinks every size so the
/// self-check runs in seconds.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke);

/// splitmix64: the stateless hash every stream decision is drawn from.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
