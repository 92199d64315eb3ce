#ifndef DQM_COMMON_FAILPOINT_H_
#define DQM_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"

/// Deterministic fault injection for the durability stack (and anything
/// else that wants scriptable failure edges).
///
/// Every interesting syscall edge evaluates a NAMED failpoint before doing
/// the real work. In production nothing is armed and the evaluation costs
/// exactly one relaxed atomic load of a process-global arm counter — no
/// map lookup, no per-point atomics, no static-init guard on the hot path.
/// Tests (and operators reproducing an incident) arm failpoints with a
/// small spec grammar:
///
///   specs  := spec (';' spec)*
///   spec   := name '=' [ 'count(' N '):' ] action [ '%' probability ]
///   action := 'error(' ERRNO ')'   inject errno (symbolic EIO/EINTR/... or
///                                  numeric) — the wrapper fails as if the
///                                  syscall returned -1 with that errno
///           | 'return'             skip the syscall, report success (lost
///                                  I/O: the op never reached the kernel)
///           | 'delay(' N 'ms)'     sleep N milliseconds, then proceed
///           | 'crash'              _Exit(kCrashExitCode) at the edge — a
///                                  kill point for crash-recovery tests
///           | 'count(' N ')'       pure probe: count hits, inject nothing,
///                                  disarm after N evaluations
///
/// `count(N):` bounds an action to its first N triggers (the point stays
/// registered but inert afterwards — `count(2):error(EINTR)` is a transient
/// fault that heals, exactly what the retry layer is tested against).
/// `%p` (0 < p <= 1) makes the action fire probabilistically, driven by a
/// per-failpoint SplitMix64 stream seeded from SetSeed() + the point name,
/// so a (seed, spec) pair replays the same decision sequence every run.
///
/// Activation: programmatic (Configure / DisarmAll below), the
/// `--failpoints=` CLI flag, or the DQM_FAILPOINTS environment variable
/// (read once, the first time the registry is touched).
///
/// Hit counters accumulate per failpoint whenever the point is ARMED (armed
/// evaluations, whether or not the action fired); telemetry-linked layers
/// export them as dqm_failpoint_hits_total via
/// telemetry::SyncFailpointMetrics.
namespace dqm::failpoint {

/// Exit code used by the `crash` action, distinguishable from aborts and
/// sanitizer failures in death tests.
inline constexpr int kCrashExitCode = 77;

/// What an armed evaluation asks the instrumented site to do. `kNone`
/// covers disarmed points, misses of a `%p` roll, exhausted `count(N):`
/// budgets, and actions handled inside Eval itself (delay, crash, probe).
struct EvalResult {
  enum class Op : uint8_t {
    kNone = 0,
    kError,        // fail the op with `injected_errno`, syscall not issued
    kReturnEarly,  // report success, syscall not issued
  };
  Op op = Op::kNone;
  int injected_errno = 0;
};

namespace internal {
/// Process-global count of armed failpoints. The ONLY thing disabled-path
/// evaluation reads.
extern std::atomic<uint64_t> g_armed_count;
EvalResult EvalSlow(std::string_view name);
}  // namespace internal

/// True iff any failpoint anywhere is armed. One relaxed atomic load.
inline bool AnyArmed() {
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

/// Evaluates failpoint `name`. Free when nothing is armed; when armed, the
/// full lookup + action happens behind the branch. Sites pattern-match on
/// the result:
///
///   if (auto fp = failpoint::Eval("dqm.wal.write"); fp.op != Op::kNone) ...
inline EvalResult Eval(std::string_view name) {
  if (!AnyArmed()) return EvalResult{};
  return internal::EvalSlow(name);
}

/// One parsed `spec` (everything right of the '='), pre-validated so
/// arming is infallible once parsing succeeded.
struct Action {
  enum class Kind : uint8_t {
    kError,
    kReturn,
    kDelay,
    kCrash,
    kProbe,
    /// Runs `callback` at the edge, outside the registry lock (like delay).
    /// Code-only: the spec grammar has no spelling for it. Tests arm it to
    /// act at an exact point, e.g. copy a crash image of a directory.
    kCallback,
  };
  Kind kind = Kind::kProbe;
  int error_errno = 0;       // kError
  uint64_t delay_ms = 0;     // kDelay
  std::function<void()> callback;  // kCallback
  /// Remaining triggers before the point goes inert; UINT64_MAX = no limit.
  uint64_t budget = UINT64_MAX;
  /// Probability the action fires per evaluation, scaled to 2^64; armed
  /// evaluations that miss the roll count a hit but inject nothing.
  uint64_t fire_threshold = ~0ull;
};

/// Parses `action['%'prob]` (with optional `count(N):` prefix) — exposed
/// for spec validation in flag parsing and for tests.
Result<Action> ParseAction(std::string_view text);

/// Point-in-time view of one failpoint, for telemetry export and tests.
struct FailpointInfo {
  std::string name;
  bool armed = false;
  uint64_t hits = 0;       // armed evaluations, cumulative since birth
  uint64_t triggered = 0;  // evaluations where the action actually fired
};

class Registry {
 public:
  /// The process registry. First access reads DQM_FAILPOINTS (a malformed
  /// env spec is logged and ignored — booting wins over injecting).
  static Registry& Global();

  /// Arms failpoints from a `spec(;spec)*` string. Rejects the whole
  /// string on any parse error without arming anything.
  Status Configure(std::string_view specs) DQM_EXCLUDES(mutex_);

  /// Arms a single point programmatically.
  void Arm(std::string_view name, const Action& action) DQM_EXCLUDES(mutex_);

  /// Disarms one point (hit counters survive). No-op if unknown.
  void Disarm(std::string_view name) DQM_EXCLUDES(mutex_);

  /// Disarms everything — test teardown.
  void DisarmAll() DQM_EXCLUDES(mutex_);

  /// Seeds the probabilistic (`%p`) decision streams. Each failpoint draws
  /// from SplitMix64(seed ^ hash(name)), so schedules replay exactly for a
  /// fixed (seed, spec) pair. Resets existing streams.
  void SetSeed(uint64_t seed) DQM_EXCLUDES(mutex_);

  /// Snapshot of every failpoint ever armed (sorted by name).
  std::vector<FailpointInfo> Collect() const DQM_EXCLUDES(mutex_);

  /// Cumulative armed evaluations of `name` (0 if never armed).
  uint64_t hits(std::string_view name) const DQM_EXCLUDES(mutex_);

 private:
  friend EvalResult internal::EvalSlow(std::string_view name);
  struct Point;

  Registry() = default;
  EvalResult EvalPoint(std::string_view name) DQM_EXCLUDES(mutex_);

  mutable Mutex mutex_{LockRank::kFailpoint, "failpoint-registry"};
  /// Node-based so Point addresses are stable across rehashes; hot counters
  /// inside Point are atomics so Eval never writes the map itself.
  std::map<std::string, std::unique_ptr<Point>, std::less<>> points_
      DQM_GUARDED_BY(mutex_);
  uint64_t seed_ DQM_GUARDED_BY(mutex_) = 0;
};

/// Convenience forwarders for the common verbs.
inline Status Configure(std::string_view specs) {
  return Registry::Global().Configure(specs);
}
inline void DisarmAll() { Registry::Global().DisarmAll(); }
inline void SetSeed(uint64_t seed) { Registry::Global().SetSeed(seed); }

}  // namespace dqm::failpoint

#endif  // DQM_COMMON_FAILPOINT_H_
