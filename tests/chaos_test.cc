// Deterministic chaos harness for the durability stack. Each schedule is
// derived from a seed: a mix of transient-error / delay failpoint specs
// armed across the WAL, checkpoint, and manifest syscall edges, optionally
// combined with a point-in-time crash image cut by a callback armed on a
// commit-protocol phase failpoint. The invariants, per schedule:
//
//  - every ingested batch is acknowledged (the retry layer must absorb the
//    injected transient faults);
//  - recovery from the crash image (or the final on-disk state) succeeds
//    with zero torn records, and the rebuilt session is bit-identical (in
//    every count-derived estimate) to an uninterrupted session fed exactly
//    the durable prefix;
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
#include "crowd/io.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::Vote;
using crowd::VoteEvent;

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::path(testing::TempDir()) / ("dqm_chaos_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Count-derived estimator panel (checkpointable: no SWITCH).
const std::vector<std::string>& Panel() {
  static const std::vector<std::string> panel = {
      "chao92", "good-turing", "vchao92?shift=2", "chao1", "voting",
      "nominal"};
  return panel;
}

std::vector<std::string> FamilySpecs() {
  std::vector<std::string> specs;
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    specs.push_back(name + "?n=80&dirty=12&tasks=50&ipt=8&batch=37");
  }
  return specs;
}

std::vector<VoteEvent> GenerateVotes(const std::string& spec, uint64_t seed,
                                     size_t* num_items) {
  auto generator = workload::WorkloadRegistry::Global().Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  workload::GeneratedWorkload run = (*generator)->Generate(seed);
  *num_items = run.log.num_items();
  return std::vector<VoteEvent>(run.log.events().begin(),
                                run.log.events().end());
}

void IngestBatches(DqmEngine& engine, const std::string& name,
                   const std::vector<VoteEvent>& votes, size_t batch) {
  for (size_t begin = 0; begin < votes.size(); begin += batch) {
    size_t size = std::min(batch, votes.size() - begin);
    ASSERT_TRUE(
        engine.Ingest(name, std::span<const VoteEvent>(&votes[begin], size))
            .ok())
        << "acknowledgement lost at vote " << begin;
  }
}

void ExpectWithinEmTolerance(double a, double b, const std::string& context) {
  double tolerance = std::max(2.0, 0.02 * std::abs(b));
  EXPECT_LE(std::abs(a - b), tolerance) << context << ": " << a << " vs " << b;
}

void ExpectSnapshotParity(const Snapshot& recovered, const Snapshot& reference,
                          const std::string& context) {
  EXPECT_EQ(recovered.num_votes, reference.num_votes) << context;
  EXPECT_EQ(recovered.majority_count, reference.majority_count) << context;
  EXPECT_EQ(recovered.nominal_count, reference.nominal_count) << context;
  ASSERT_EQ(recovered.estimates.size(), reference.estimates.size()) << context;
  for (size_t i = 0; i < recovered.estimates.size(); ++i) {
    const std::string row = context + ", " + reference.estimates[i].name;
    if (reference.estimates[i].name == "em-voting") {
      ExpectWithinEmTolerance(recovered.estimates[i].total_errors,
                              reference.estimates[i].total_errors, row);
    } else {
      EXPECT_EQ(recovered.estimates[i].total_errors,
                reference.estimates[i].total_errors)
          << row;
      EXPECT_EQ(recovered.estimates[i].quality_score,
                reference.estimates[i].quality_score)
          << row;
    }
  }
}

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
  const std::vector<std::string>& panel = Panel();

  int family = 0;
  for (const std::string& spec : FamilySpecs()) {
    SCOPED_TRACE(StrFormat("seed %llu, %s, %s",
                           static_cast<unsigned long long>(seed),
                           spec.c_str(), ScheduleString(schedule).c_str()));
    size_t num_items = 0;
    std::vector<VoteEvent> votes =
        GenerateVotes(spec, 0xC0FFEE + seed, &num_items);
    ASSERT_GE(votes.size(), 300u);

    const std::string tag =
        StrFormat("s%llu_f%d", static_cast<unsigned long long>(seed),
                  family++);
    std::string root = ScratchDir(tag + "_live");
    std::string crash_root = ScratchDir(tag + "_image");

    SessionOptions options;
    options.cadence = PublishCadence::kEveryNVotes;
    options.publish_every_votes = 128;
    options.ingest_stripes = 2;
    options.durability_dir = root;
    options.wal_group_commit_votes = 64;
    options.checkpoint_every_votes = 150;

    // Arm before OpenSession so the manifest / WAL-creation edges are in
    // play too; the retry layer has to carry the session all the way up.
    failpoint::SetSeed(schedule.failpoint_seed);
    ASSERT_TRUE(failpoint::Configure(schedule.failpoints).ok())
        << schedule.failpoints;

    uint64_t durable_prefix = 0;
    {
      DqmEngine live;
      auto session = live.OpenSession(
          "s", num_items, std::span<const std::string>(panel), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      ASSERT_TRUE((*session)->durable());

      int fired = 0;
      bool copied = false;
      if (schedule.crash_image) {
        failpoint::Action copy_image;
        copy_image.kind = failpoint::Action::Kind::kCallback;
        copy_image.callback = [&] {
          if (copied) return;
          if (++fired < schedule.kill_firing) return;
          fs::copy(root, crash_root,
                   fs::copy_options::recursive |
                       fs::copy_options::overwrite_existing);
          copied = true;
        };
        failpoint::Registry::Global().Arm(schedule.kill_point, copy_image);
      }

      // Invariant 1: every batch is acknowledged despite the faults.
      IngestBatches(live, "s", votes, 37);
      if (schedule.crash_image) {
        failpoint::Registry::Global().Disarm(schedule.kill_point);
        ASSERT_TRUE(copied) << "kill point never fired";
      }
      // The live engine's destructor flushes — after it, `root` holds the
      // complete durable state for the no-crash schedules.
    }
    failpoint::DisarmAll();

    // Invariant 2: recovery succeeds, nothing is torn, and the rebuilt
    // session matches a reference fed exactly the durable prefix.
    const std::string& recover_from =
        schedule.crash_image ? crash_root : root;
    DqmEngine recovered_engine;
    auto reports = recovered_engine.RecoverSessions(recover_from);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports->size(), 1u);
    const DqmEngine::RecoveredSession& report = (*reports)[0];
    EXPECT_EQ(report.torn_records, 0u);
    ASSERT_LE(report.votes_restored, votes.size());
    if (!schedule.crash_image) {
      // Nothing crashed: every acknowledged vote must have survived.
      EXPECT_EQ(report.votes_restored, votes.size());
    }
    durable_prefix = report.votes_restored;

    SessionOptions reference_options = options;
    reference_options.durability_dir.clear();
    reference_options.checkpoint_every_votes = 0;
    DqmEngine reference_engine;
    auto reference = reference_engine.OpenSession(
        "ref", num_items, std::span<const std::string>(panel),
        reference_options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<VoteEvent> prefix(
        votes.begin(), votes.begin() + static_cast<ptrdiff_t>(durable_prefix));
    IngestBatches(reference_engine, "ref", prefix, 37);
    (*reference)->Publish();

    auto recovered_snapshot = recovered_engine.Query("s");
    ASSERT_TRUE(recovered_snapshot.ok());
    ExpectSnapshotParity(*recovered_snapshot, (*reference)->snapshot(), spec);
    // A cleanly recovered session never reports itself degraded.
    EXPECT_FALSE(recovered_snapshot->durability_degraded);
    EXPECT_EQ(recovered_snapshot->dropped_durability_votes, 0u);
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

/// Runs a durable session in a death-test child, arming `crash_spec` after
/// `arm_after` votes so real traffic precedes the kill, then recovers in
/// the parent and checks prefix parity. `tag` keys the scratch directory
/// (recomputed identically in the child, which re-executes the test).
void CrashAtFailpointAndRecover(const std::string& tag,
                                const std::string& crash_spec) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 20260807, &num_items);
  ASSERT_GE(votes.size(), 300u);
  const size_t arm_after = 185;  // past the first checkpoint boundary (150)

  std::string root = ScratchDir("kill_" + tag);
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 128;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  options.checkpoint_every_votes = 150;

  EXPECT_EXIT(
      {
        DqmEngine engine;
        auto session = engine.OpenSession(
            "s", num_items, std::span<const std::string>(Panel()), options);
        if (!session.ok()) std::_Exit(3);
        for (size_t begin = 0; begin < votes.size(); begin += 37) {
          if (begin >= arm_after && !failpoint::AnyArmed()) {
            if (!failpoint::Configure(crash_spec).ok()) std::_Exit(4);
          }
          size_t size = std::min<size_t>(37, votes.size() - begin);
          if (!engine
                   .Ingest("s", std::span<const VoteEvent>(&votes[begin],
                                                           size))
                   .ok()) {
            std::_Exit(5);
          }
        }
        // The kill point never fired — fail with a distinct code.
        std::_Exit(6);
      },
      testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Parent: the directory holds whatever the dead process left behind.
  DqmEngine recovered_engine;
  auto reports = recovered_engine.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  const DqmEngine::RecoveredSession& report = (*reports)[0];
  EXPECT_EQ(report.name, "s");
  EXPECT_EQ(report.torn_records, 0u);
  // Real traffic preceded the kill: something durable must exist, and the
  // durable prefix can never exceed what was ingested.
  EXPECT_GT(report.votes_restored, 0u);
  ASSERT_LE(report.votes_restored, votes.size());

  SessionOptions reference_options = options;
  reference_options.durability_dir.clear();
  reference_options.checkpoint_every_votes = 0;
  DqmEngine reference_engine;
  auto reference = reference_engine.OpenSession(
      "ref", num_items, std::span<const std::string>(Panel()),
      reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<VoteEvent> prefix(
      votes.begin(),
      votes.begin() + static_cast<ptrdiff_t>(report.votes_restored));
  IngestBatches(reference_engine, "ref", prefix, 37);
  (*reference)->Publish();
  auto snapshot = recovered_engine.Query("s");
  ASSERT_TRUE(snapshot.ok());
  ExpectSnapshotParity(*snapshot, (*reference)->snapshot(), tag);
}

TEST_F(ChaosCrashDeathTest, CrashInsideWalFsync) {
  CrashAtFailpointAndRecover("wal_fsync", "dqm.wal.fsync=crash");
}

TEST_F(ChaosCrashDeathTest, CrashInsideCheckpointRename) {
  CrashAtFailpointAndRecover("cp_rename", "dqm.checkpoint.rename=crash");
}

TEST_F(ChaosCrashDeathTest, CrashInsideCheckpointDirsync) {
  CrashAtFailpointAndRecover("cp_dirsync", "dqm.checkpoint.dirsync=crash");
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
        "s", kNumItems, std::span<const std::string>(Panel()), options);
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
      "s", kNumItems, std::span<const std::string>(Panel()), options);
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
          name, kNumItems, std::span<const std::string>(Panel()), options);
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
