// Deterministic chaos harness for the durability stack. Each schedule is
// derived from a seed: a mix of transient-error / delay failpoint specs
// armed across the WAL, checkpoint, and manifest syscall edges, optionally
// combined with a point-in-time crash image cut by a callback armed on a
// commit-protocol phase failpoint. Every schedule runs as a recovery case
// of the session-parity harness (conformance/session_parity.h), on the
// tallies panel and two stripes. The invariants, per schedule:
//
//  - every ingested batch but the one AddVotes must reject is acknowledged
//    (the retry layer must absorb the injected transient faults);
//  - recovery from the crash image (or the final on-disk state) succeeds
//    with zero torn records, and the rebuilt session serves what a
//    reference fed exactly the durable prefix serves;
//  - the same seed regenerates the same schedule, byte for byte.
//
// Real kill points — the process dies mid-syscall via the `crash` action —
// run as death tests against the fsync, checkpoint-rename, and
// dirent-sync edges, and graceful degradation (`degrade_to_volatile`) gets
// an end-to-end accounting test: a permanently failing WAL must not stop
// commits, must report exactly what it dropped, and must re-arm at the
// next successful checkpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "conformance/conformance_utils.h"
#include "conformance/session_parity.h"
#include "crowd/io.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::Vote;
using crowd::VoteEvent;

using conformance::ParityCase;
using conformance::ParityRun;
using conformance::ParityStream;
using conformance::ScratchDir;

// ---------------------------------------------------------------------------
// Schedule generation.
// ---------------------------------------------------------------------------

/// One seeded chaos schedule: which failpoints to arm (spec string in the
/// Configure grammar), the per-registry decision seed, and an optional
/// crash image cut at the Nth firing of a commit-protocol phase.
struct ChaosSchedule {
  std::string failpoints;
  uint64_t failpoint_seed = 0;
  bool crash_image = false;
  const char* kill_point = fpn::kAfterAppend;
  int kill_firing = 1;
  const char* kill_name = "none";
};

/// Every schedule draws from this pool. All error actions are transient
/// errnos with a small trigger budget: the retry layer (default budget 8
/// attempts) must absorb any burst a schedule can produce, so every ingest
/// is acknowledged and the no-lost-ack invariant is checkable. Hard
/// unretryable faults get their own deterministic tests below — in a
/// randomized schedule they would make "what must survive" unpredictable.
const char* const kFaultPoints[] = {
    "dqm.wal.write",        "dqm.wal.fsync",      "dqm.wal.truncate",
    "dqm.checkpoint.write", "dqm.checkpoint.fsync",
    "dqm.checkpoint.rename", "dqm.checkpoint.dirsync",
    "dqm.manifest.write",   "dqm.manifest.fsync", "dqm.manifest.rename",
    "dqm.durability.dirsync",
};

ChaosSchedule MakeSchedule(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  ChaosSchedule schedule;
  schedule.failpoint_seed = rng();

  const size_t num_points = 1 + rng() % 3;
  std::vector<std::string> specs;
  std::vector<size_t> used;
  for (size_t i = 0; i < num_points; ++i) {
    size_t point = rng() % (sizeof(kFaultPoints) / sizeof(kFaultPoints[0]));
    if (std::find(used.begin(), used.end(), point) != used.end()) continue;
    used.push_back(point);
    std::string action;
    switch (rng() % 4) {
      case 0:
        action = StrFormat("count(%d):error(EINTR)",
                           static_cast<int>(1 + rng() % 5));
        break;
      case 1:
        action = StrFormat("count(%d):error(EAGAIN)",
                           static_cast<int>(1 + rng() % 5));
        break;
      case 2:
        // Probabilistic transient error: the count budget still caps total
        // triggers, so a burst can never exhaust the retry budget.
        action = StrFormat("count(%d):error(EINTR)%%0.%d",
                           static_cast<int>(1 + rng() % 5),
                           static_cast<int>(25 + rng() % 50));
        break;
      default:
        action = StrFormat("count(%d):delay(1ms)",
                           static_cast<int>(1 + rng() % 3));
        break;
    }
    specs.push_back(std::string(kFaultPoints[point]) + "=" + action);
  }
  schedule.failpoints = Join(specs, ";");

  // Half the schedules also cut a crash image at a commit-protocol phase.
  struct KillPoint {
    const char* failpoint;
    const char* name;
  };
  static constexpr KillPoint kKillPoints[] = {
      {fpn::kAfterAppend, "append"},
      {fpn::kAfterFsync, "fsync"},
      {fpn::kAfterCheckpointWrite, "checkpoint_write"},
      {fpn::kAfterWalReset, "wal_reset"},
  };
  if (rng() % 2 == 0) {
    const KillPoint& kill = kKillPoints[rng() % 4];
    schedule.crash_image = true;
    schedule.kill_point = kill.failpoint;
    schedule.kill_name = kill.name;
    // Checkpoint-protocol phases only fire at every checkpoint boundary
    // (twice per ~400-vote run); append/fsync fire constantly.
    const bool rare = kill.failpoint == fpn::kAfterCheckpointWrite ||
                      kill.failpoint == fpn::kAfterWalReset;
    schedule.kill_firing = static_cast<int>(1 + rng() % (rare ? 2 : 3));
  }
  return schedule;
}

std::string ScheduleString(const ChaosSchedule& s) {
  return StrFormat("fp=[%s] seed=%llu kill=%s@%d", s.failpoints.c_str(),
                   static_cast<unsigned long long>(s.failpoint_seed),
                   s.kill_name, s.kill_firing);
}

TEST(ChaosScheduleTest, SameSeedSameSchedule) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_EQ(ScheduleString(MakeSchedule(seed)),
              ScheduleString(MakeSchedule(seed)))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The harness: 40 seeds x every workload family = 200+ schedules.
// ---------------------------------------------------------------------------

class ChaosHarnessTest : public testing::TestWithParam<int> {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_P(ChaosHarnessTest, AcksSurviveAndRecoveryMatchesDurablePrefix) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const ChaosSchedule schedule = MakeSchedule(seed);

  int family = 0;
  for (const std::string& spec : conformance::ConformanceWorkloadSpecs()) {
    SCOPED_TRACE(StrFormat("seed %llu, %s, %s",
                           static_cast<unsigned long long>(seed),
                           spec.c_str(), ScheduleString(schedule).c_str()));
    ParityCase c;
    c.name = StrFormat("s%llu_f%d", static_cast<unsigned long long>(seed),
                       family++);
    c.workload = spec;
    c.seed = 0xC0FFEE + seed;
    c.panel = conformance::TalliesPanel();
    c.options.cadence = PublishCadence::kEveryNVotes;
    c.options.publish_every_votes = 128;
    c.options.ingest_stripes = 2;
    c.options.wal_group_commit_votes = 64;
    c.options.checkpoint_every_votes = 150;
    // Armed before OpenSession, so the manifest / WAL-creation edges are in
    // play too; the retry layer has to carry the session all the way up.
    c.faults = schedule.failpoints;
    if (schedule.crash_image) {
      c.kill_point = schedule.kill_point;
      c.kill_firing = schedule.kill_firing;
    }
    const ParityStream stream = conformance::MakeParityStream(spec, c.seed);
    failpoint::SetSeed(schedule.failpoint_seed);
    ParityRun run;
    conformance::RunRecovery(c, stream, &run);
    if (HasFatalFailure()) return;
    // Invariant 1: every batch but the rejected one is acknowledged despite
    // the faults.
    for (size_t i = 0; i < stream.batches.size(); ++i) {
      EXPECT_EQ(run.acked[i], i != stream.rejected)
          << "acknowledgement lost at batch " << i;
    }
    // Invariant 2: recovery succeeds, nothing is torn, and the rebuilt
    // session serves the reference fed exactly the durable prefix.
    conformance::ExpectServesReference(c, stream, run);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosHarnessTest, testing::Range(0, 40));

// CI's randomized leg: one extra schedule whose seed comes from the
// environment (and gets logged by the job), so every run explores a fresh
// point in schedule space on top of the fixed 0..39 matrix. Defaults to a
// seed outside the fixed range when the variable is unset.
int ExtraSeedFromEnv() {
  const char* raw = std::getenv("DQM_CHAOS_EXTRA_SEED");
  if (raw == nullptr || *raw == '\0') return 1000;
  return static_cast<int>(std::strtol(raw, nullptr, 10));
}

INSTANTIATE_TEST_SUITE_P(ExtraSeed, ChaosHarnessTest,
                         testing::Values(ExtraSeedFromEnv()));

// ---------------------------------------------------------------------------
// Real kill points: the process dies mid-syscall (failpoint `crash`
// action, _Exit(77)), the parent recovers what hit the disk.
// ---------------------------------------------------------------------------

class ChaosCrashDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Runs a durable session in a death-test child, arming `crash_spec` once
/// 185 votes are in (past the first checkpoint boundary at 150), so real
/// traffic precedes the kill. The parent then recovers what hit the disk.
/// The scratch directory is keyed by the test, so the child, which
/// re-executes the test, derives the same one.
void CrashAtFailpointAndRecover(const std::string& crash_spec) {
  ParityCase c;
  c.name = "kill";
  c.workload = conformance::ConformanceWorkloadSpecs().front();
  c.seed = 20260807;
  c.panel = conformance::TalliesPanel();
  c.options.cadence = PublishCadence::kEveryNVotes;
  c.options.publish_every_votes = 128;
  c.options.wal_group_commit_votes = 64;
  c.options.checkpoint_every_votes = 150;
  const ParityStream stream =
      conformance::MakeParityStream(c.workload, c.seed);
  SessionOptions options = c.options;
  options.durability_dir = ScratchDir("kill");

  EXPECT_EXIT(
      {
        DqmEngine engine;
        auto session = engine.OpenSession(
            "s", stream.num_items, std::span<const std::string>(c.panel),
            options);
        if (!session.ok()) std::_Exit(3);
        size_t ingested = 0;
        for (size_t i = 0; i < stream.batches.size(); ++i) {
          if (ingested >= 185 && !failpoint::AnyArmed()) {
            if (!failpoint::Configure(crash_spec).ok()) std::_Exit(4);
          }
          if ((*session)->AddVotes(stream.batches[i]).ok() !=
              (i != stream.rejected)) {
            std::_Exit(5);
          }
          if (i != stream.rejected) ingested += stream.batches[i].size();
        }
        // The kill point never fired — fail with a distinct code.
        std::_Exit(6);
      },
      testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Parent: the child acknowledged every batch it reached but the rejected
  // one; the recovered prefix says how far it reached.
  ParityRun run;
  run.acked.assign(stream.batches.size(), true);
  run.acked[stream.rejected] = false;
  conformance::RecoverDirectory(options.durability_dir, stream,
                                /*complete=*/false, &run);
  if (testing::Test::HasFatalFailure()) return;
  EXPECT_GT(run.votes, 0u);  // real traffic preceded the kill
  conformance::ExpectServesReference(c, stream, run);
}

TEST_F(ChaosCrashDeathTest, CrashInsideWalFsync) {
  CrashAtFailpointAndRecover("dqm.wal.fsync=crash");
}

TEST_F(ChaosCrashDeathTest, CrashInsideCheckpointRename) {
  CrashAtFailpointAndRecover("dqm.checkpoint.rename=crash");
}

TEST_F(ChaosCrashDeathTest, CrashInsideCheckpointDirsync) {
  CrashAtFailpointAndRecover("dqm.checkpoint.dirsync=crash");
}

// ---------------------------------------------------------------------------
// Graceful degradation end to end.
// ---------------------------------------------------------------------------

std::vector<VoteEvent> SimpleVotes(size_t count, size_t num_items) {
  std::vector<VoteEvent> votes;
  for (size_t i = 0; i < count; ++i) {
    votes.push_back(VoteEvent{static_cast<uint32_t>(i % 7),
                              static_cast<uint32_t>(i % 5),
                              static_cast<uint32_t>(i % num_items),
                              (i % 3 == 0) ? Vote::kDirty : Vote::kClean});
  }
  return votes;
}

class DegradationTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(DegradationTest, SessionSurvivesPermanentWalFailureAndRearms) {
  const size_t kNumItems = 16;
  std::string root = ScratchDir("degrade");
  std::vector<VoteEvent> votes = SimpleVotes(80, kNumItems);

  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 8;
  options.checkpoint_every_votes = 64;
  options.durability_failure_policy =
      DurabilityFailurePolicy::kDegradeToVolatile;

  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  telemetry::Gauge* degraded_gauge =
      registry.GetGauge(telemetry::metric_names::kSessionsDegraded);
  telemetry::Counter* degraded_votes =
      registry.GetCounter(telemetry::metric_names::kDegradedVotesTotal);
  telemetry::Counter* rearms =
      registry.GetCounter(telemetry::metric_names::kDegradedRearmsTotal);
  const double gauge_base = degraded_gauge->Value();
  const double votes_base = degraded_votes->Value();
  const double rearms_base = rearms->Value();

  auto ingest = [&](DqmEngine& engine, size_t begin, size_t end) {
    for (size_t i = begin; i < end; i += 8) {
      ASSERT_TRUE(engine
                      .Ingest("s", std::span<const VoteEvent>(&votes[i], 8))
                      .ok())
          << "commit rejected at vote " << i;
    }
  };

  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", kNumItems,
        std::span<const std::string>(conformance::TalliesPanel()), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // 16 clean votes, fully group-committed (multiples of 8).
    ingest(engine, 0, 16);
    (*session)->Publish();
    EXPECT_FALSE((*session)->snapshot().durability_degraded);

    // The WAL device "dies": every fsync fails hard. Commits must keep
    // being acknowledged, and the session must account exactly the votes
    // it accepted without a durable record.
    ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=error(EIO)").ok());
    ingest(engine, 16, 32);
    (*session)->Publish();
    Snapshot degraded = (*session)->snapshot();
    EXPECT_TRUE(degraded.durability_degraded);
    EXPECT_EQ(degraded.dropped_durability_votes, 16u);
    EXPECT_EQ(degraded.num_votes, 32u);  // nothing lost in memory
    EXPECT_DOUBLE_EQ(degraded_gauge->Value(), gauge_base + 1.0);
    EXPECT_DOUBLE_EQ(degraded_votes->Value(), votes_base + 16.0);

    // Device heals, but the WAL stays sealed — and every vote accepted
    // before the next checkpoint still lacks a durable record.
    failpoint::DisarmAll();
    // Votes 33..64: still degraded; the append crossing 64 triggers the
    // checkpoint, which snapshots ALL in-memory state (including every
    // degraded vote) and re-arms the WAL.
    ingest(engine, 32, 64);
    (*session)->Publish();
    Snapshot rearmed = (*session)->snapshot();
    EXPECT_FALSE(rearmed.durability_degraded);
    // The audit trail of acked-without-durability votes survives re-arm.
    EXPECT_EQ(rearmed.dropped_durability_votes, 48u);
    EXPECT_DOUBLE_EQ(degraded_gauge->Value(), gauge_base);
    EXPECT_DOUBLE_EQ(rearms->Value(), rearms_base + 1.0);

    // Fully durable again: these 16 land in the fresh WAL.
    ingest(engine, 64, 80);
  }

  // Nothing was lost end to end: the checkpoint carried the degraded
  // votes, the reset WAL carried the rest.
  DqmEngine recovered_engine;
  auto reports = recovered_engine.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].votes_restored, 80u);
  EXPECT_TRUE((*reports)[0].had_checkpoint);
  auto snapshot = recovered_engine.Query("s");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_votes, 80u);
  EXPECT_FALSE(snapshot->durability_degraded);
}

TEST_F(DegradationTest, FailStopKeepsRejectingUntilCheckpointReset) {
  const size_t kNumItems = 16;
  std::string root = ScratchDir("failstop");
  std::vector<VoteEvent> votes = SimpleVotes(32, kNumItems);

  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 8;
  options.durability_failure_policy = DurabilityFailurePolicy::kFailStop;

  DqmEngine engine;
  auto session = engine.OpenSession(
      "s", kNumItems,
      std::span<const std::string>(conformance::TalliesPanel()), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(
      engine.Ingest("s", std::span<const VoteEvent>(&votes[0], 8)).ok());

  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=error(EIO)").ok());
  Status rejected =
      engine.Ingest("s", std::span<const VoteEvent>(&votes[8], 8));
  EXPECT_FALSE(rejected.ok());
  failpoint::DisarmAll();

  // Still sealed: fail-stop sessions refuse ingest until a checkpoint
  // resets the WAL, and they never report degraded (they dropped nothing).
  EXPECT_FALSE(
      engine.Ingest("s", std::span<const VoteEvent>(&votes[16], 8)).ok());
  (*session)->Publish();
  EXPECT_FALSE((*session)->snapshot().durability_degraded);
  EXPECT_EQ((*session)->snapshot().dropped_durability_votes, 0u);
}

// ---------------------------------------------------------------------------
// Keep-going recovery.
// ---------------------------------------------------------------------------

TEST(KeepGoingRecoveryTest, BrokenSessionDoesNotAbortTheScan) {
  const size_t kNumItems = 16;
  std::string root = ScratchDir("keepgoing");
  std::vector<VoteEvent> votes = SimpleVotes(64, kNumItems);

  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 8;

  {
    DqmEngine engine;
    for (const char* name : {"alpha", "bravo"}) {
      auto session = engine.OpenSession(
          name, kNumItems,
          std::span<const std::string>(conformance::TalliesPanel()), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      ASSERT_TRUE(
          engine.Ingest(name, std::span<const VoteEvent>(votes.data(), 64))
              .ok());
    }
  }

  // Corrupt bravo's WAL header (foreign magic), drop a half-created
  // directory next to them (a crash inside OpenSession leaves at most an
  // unpublished MANIFEST.tmp), and one whose committed manifest is garbage.
  {
    std::fstream wal(root + "/bravo/wal.log",
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(wal.is_open());
    wal.write("XXXX", 4);
  }
  fs::create_directories(root + "/halfopen");
  std::ofstream(root + "/halfopen/MANIFEST.tmp") << "garbage\n";
  fs::create_directories(root + "/zgarbled");
  std::ofstream(root + "/zgarbled/MANIFEST") << "garbage\n";

  // Strict recovery refuses the root: silent partial recovery is not OK
  // by default.
  {
    DqmEngine engine;
    EXPECT_FALSE(engine.RecoverSessions(root).ok());
  }

  // Keep-going recovery triages: alpha up, bravo failed with a reason,
  // halfopen skipped as the benign crashed-OpenSession case, zgarbled
  // failed (a manifest that exists but does not parse is not benign).
  DqmEngine engine;
  auto outcomes = engine.RecoverSessionsKeepGoing(root);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 4u);
  using Outcome = DqmEngine::SessionRecoveryOutcome;

  EXPECT_EQ((*outcomes)[0].name, "alpha");
  EXPECT_EQ((*outcomes)[0].state, Outcome::State::kRecovered);
  EXPECT_EQ((*outcomes)[0].report.votes_restored, 64u);

  EXPECT_EQ((*outcomes)[1].name, "bravo");
  EXPECT_EQ((*outcomes)[1].state, Outcome::State::kFailed);
  EXPECT_FALSE((*outcomes)[1].detail.empty());

  EXPECT_EQ((*outcomes)[2].state, Outcome::State::kSkipped);
  EXPECT_FALSE((*outcomes)[2].detail.empty());

  EXPECT_EQ((*outcomes)[3].state, Outcome::State::kFailed);
  EXPECT_NE((*outcomes)[3].detail.find("malformed manifest line"),
            std::string::npos)
      << (*outcomes)[3].detail;

  // The healthy session is genuinely serving.
  auto snapshot = engine.Query("alpha");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_votes, 64u);
  EXPECT_FALSE(engine.Query("bravo").ok());
}

}  // namespace
}  // namespace dqm::engine
