#ifndef DQM_TESTS_CONFORMANCE_SESSION_PARITY_H_
#define DQM_TESTS_CONFORMANCE_SESSION_PARITY_H_

// The session-parity harness. Every path state takes into a session must
// serve what an in-memory, single-producer reference session serves when
// fed exactly the batches that path acknowledged: the paper's estimators
// read only the tallies and the positive-vote fingerprint. A case feeds one
// seeded stream (a workload family's batches plus one batch AddVotes must
// reject) to one subject: k-producer striped ingest, recovery of a durable
// directory, mid-stream migration, or promotion of a shipped standby.
//
// Equal means equal num_votes, num_items, NOMINAL and VOTING, and every
// field of every estimator row. Rows are compared by spec through the
// conformance traits. A declared estimate tolerance (EM-VOTING) applies to
// every row that declares one when k >= 2 producers reorder the commits,
// and to a warm-started row when the path refitted it on another publish
// history than the reference's (migration, promotion). A recovered session
// fits once, as the reference then does, so recovery is exact in every row.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "crowd/vote.h"
#include "engine/session.h"

namespace dqm::conformance {

/// A fresh, empty directory under the test tmpdir, keyed by the running
/// test's full name and `tag` (a death-test child re-derives the same one).
std::string ScratchDir(const std::string& tag);

/// Every checkpointable estimator. EM-VOTING reads the pair matrix, so
/// checkpoints are the kPairs variant. It runs cold (warm=0), whose fit
/// reads only the log, and warm-started (the default), whose fit also
/// continues from the previous publish's, a history that recovery,
/// migration and promotion restart.
const std::vector<std::string>& PairsPanel();

/// The tally and fingerprint estimators: kTallies checkpoints.
const std::vector<std::string>& TalliesPanel();

/// An order-sensitive panel (SWITCH, and a warm-started EM-VOTING):
/// serialized commits, WAL-only durability, and no migration by compacted
/// state.
const std::vector<std::string>& SwitchPanel();

/// One seeded vote stream, in the batches it is ingested in.
struct ParityStream {
  size_t num_items = 0;
  std::vector<std::vector<crowd::VoteEvent>> batches;
  /// The batch AddVotes must reject: a copy of the batch before it with one
  /// vote byte of 2 (even seeds) or one worker above crowd::kMaxWorkerId.
  size_t rejected = 0;
};

/// The workload family's own batches of its run for `seed`, with the
/// rejected batch inserted at a seeded position.
ParityStream MakeParityStream(const std::string& workload_spec,
                              uint64_t seed);

/// What a subject served, and on which batches.
struct ParityRun {
  engine::Snapshot served;
  /// Per stream batch: AddVotes acknowledged it.
  std::vector<bool> acked;
  /// The acknowledged votes `served` holds: all of them, or the durable
  /// prefix a crash image or a promoted standby kept.
  uint64_t votes = 0;
  /// `served` is a recovered session's, which fitted its estimators once,
  /// when it was rebuilt.
  bool fitted_once = false;
};

struct ParityCase;

/// A subject feeds `stream` down one path and fills `run`.
using ParitySubject = void (*)(const ParityCase& c,
                               const ParityStream& stream, ParityRun* run);

struct ParityCase {
  /// Unique and gtest-safe; keys the case's scratch directories.
  std::string name;
  ParitySubject subject = nullptr;
  std::string workload;
  uint64_t seed = 0;
  std::vector<std::string> panel;
  /// The subject's serving options (the subject sets durability_dir). The
  /// reference drops durability and, for k >= 2 producers, the stripes.
  engine::SessionOptions options;
  /// RunStriped: producer threads.
  size_t producers = 1;
  /// RunRecovery: the phase failpoint whose `kill_firing`-th firing cuts the
  /// directory image recovery reads. Empty: recover the directory the live
  /// engine left at shutdown, which must hold every acknowledged vote.
  std::string kill_point;
  int kill_firing = 2;
  /// Failpoints (Configure grammar) armed once `fault_after` batches are
  /// in; 0 arms them before the session opens.
  std::string faults;
  size_t fault_after = 0;
  /// RunMigration / RunPromotion: the batch the session moves at.
  size_t cut = 0;
};

/// The four subjects.
void RunStriped(const ParityCase& c, const ParityStream& stream,
                ParityRun* run);
void RunRecovery(const ParityCase& c, const ParityStream& stream,
                 ParityRun* run);
void RunMigration(const ParityCase& c, const ParityStream& stream,
                  ParityRun* run);
void RunPromotion(const ParityCase& c, const ParityStream& stream,
                  ParityRun* run);

/// Recovers the one session ("s") under durability root `dir` into a fresh
/// engine: nothing torn, nothing degraded, and with `complete` every
/// acknowledged vote restored. Sets run->votes, run->served and
/// run->fitted_once from run->acked. Any directory image can be fed here,
/// whether a kill point or a real process death cut it.
void RecoverDirectory(const std::string& dir, const ParityStream& stream,
                      bool complete, ParityRun* run);

/// The acknowledged votes of `run`.
uint64_t AckedVotes(const ParityStream& stream, const ParityRun& run);

/// Which rows ExpectSameServedState holds to their declared estimate
/// tolerance instead of bit-exact.
enum class Tolerance {
  kNone,
  /// Warm-started rows (EM-VOTING without warm=0): the two sessions fitted
  /// on different publish histories. A cold fit reads only the log.
  kWarmStarted,
  /// Every row that declares one: k >= 2 producers reorder the commits a
  /// fit's float sums run in.
  kDeclared,
};

/// The comparison rule for two snapshots of sessions over `panel`.
void ExpectSameServedState(const std::vector<std::string>& panel,
                           const engine::Snapshot& expected,
                           const engine::Snapshot& actual,
                           const std::string& context,
                           Tolerance tolerance = Tolerance::kNone);

/// The rejected batch was rejected, and `run.served` equals the reference
/// fed the acknowledged batches up to `run.votes` votes, which must end on
/// a batch boundary.
void ExpectServesReference(const ParityCase& c, const ParityStream& stream,
                           const ParityRun& run);

/// Builds `c`'s stream, runs its subject, and expects parity.
void ExpectCaseParity(const ParityCase& c);

}  // namespace dqm::conformance

#endif  // DQM_TESTS_CONFORMANCE_SESSION_PARITY_H_
