#include "conformance/session_parity.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "conformance/conformance_utils.h"
#include "core/dqm.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "estimators/registry.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm::conformance {
namespace {

namespace fs = std::filesystem;

/// Arms c.faults once `batches` batches are in (0: before the session
/// opens).
void ArmFaultsAt(const ParityCase& c, size_t batches) {
  if (c.faults.empty() || batches != c.fault_after) return;
  ASSERT_TRUE(failpoint::Configure(c.faults).ok()) << c.faults;
}

/// Feeds batches [begin, end) to `session` in stream order and records which
/// were acknowledged; `after_batch` runs after each.
void Ingest(const ParityCase& c, const ParityStream& stream,
            engine::EstimationSession& session, size_t begin, size_t end,
            ParityRun* run, const std::function<void()>& after_batch = {}) {
  for (size_t i = begin; i < end; ++i) {
    if (i > 0) ArmFaultsAt(c, i);
    run->acked[i] = session.AddVotes(stream.batches[i]).ok();
    ASSERT_FALSE(i == stream.rejected && run->acked[i])
        << "AddVotes acknowledged a batch the WAL cannot hold";
    if (after_batch) after_batch();
  }
}

/// Opens the case's session "s" on `engine` (durable under `dir` unless it
/// is empty), arming the faults that act before it opens.
Result<std::shared_ptr<engine::EstimationSession>> Open(
    engine::DqmEngine& engine, const ParityCase& c, const ParityStream& stream,
    const std::string& dir, ParityRun* run) {
  engine::SessionOptions options = c.options;
  options.durability_dir = dir;
  run->acked.assign(stream.batches.size(), false);
  ArmFaultsAt(c, 0);
  return engine.OpenSession("s", stream.num_items,
                            std::span<const std::string>(c.panel), options);
}

/// SWITCH-like panels commit serialized, get WAL-only durability, and
/// refuse migration by compacted state.
bool OrderSensitive(const ParityCase& c, const ParityStream& stream) {
  auto metric = core::DataQualityMetric::Create(stream.num_items, c.panel);
  return metric.ok() && !metric->SupportsConcurrentIngest();
}

/// EM-VOTING continues each fit from the previous publish's unless its spec
/// sets warm=0.
bool WarmStarted(const std::string& spec) {
  Result<estimators::EstimatorSpec> parsed =
      estimators::ParseEstimatorSpec(spec);
  DQM_CHECK(parsed.ok()) << parsed.status().ToString();
  if (parsed->name != "em-voting") return false;
  estimators::SpecParamReader params(*parsed);
  Result<bool> warm = params.GetBool("warm", true);
  return !warm.ok() || *warm;
}

void Finish(const engine::EstimationSession& session,
            const ParityStream& stream, ParityRun* run) {
  run->served = session.snapshot();
  run->votes = AckedVotes(stream, *run);
}

}  // namespace

std::string ScratchDir(const std::string& tag) {
  const testing::TestInfo* test =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("dqm_") + test->test_suite_name() + "." +
                     test->name() + "." + tag;
  std::replace(name.begin(), name.end(), '/', '_');
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

const std::vector<std::string>& PairsPanel() {
  static const std::vector<std::string> panel = {
      "chao92",     "good-turing", "vchao92?shift=2", "chao1",
      "jackknife1", "voting",      "nominal",         "em-voting",
      "em-voting?warm=0"};
  return panel;
}

const std::vector<std::string>& TalliesPanel() {
  static const std::vector<std::string> panel = {
      "chao92", "good-turing", "vchao92?shift=2", "chao1", "voting",
      "nominal"};
  return panel;
}

const std::vector<std::string>& SwitchPanel() {
  static const std::vector<std::string> panel = {"switch", "chao92",
                                                 "voting", "em-voting"};
  return panel;
}

ParityStream MakeParityStream(const std::string& workload_spec,
                              uint64_t seed) {
  workload::GeneratedWorkload run = MustGenerate(workload_spec, seed);
  ParityStream stream;
  stream.num_items = run.log.num_items();
  const std::vector<crowd::VoteEvent>& events = run.log.events();
  size_t begin = 0;
  for (size_t size : run.batch_sizes) {
    stream.batches.emplace_back(events.begin() + begin,
                                events.begin() + begin + size);
    begin += size;
  }
  DQM_CHECK(begin == events.size() && stream.batches.size() >= 2);
  Rng rng(seed ^ 0xBADBA7C4ull);
  stream.rejected = 1 + rng.UniformIndex(stream.batches.size() - 1);
  std::vector<crowd::VoteEvent> bad = stream.batches[stream.rejected - 1];
  crowd::VoteEvent& vote = bad[rng.UniformIndex(bad.size())];
  if (seed % 2 == 0) {
    vote.vote = static_cast<crowd::Vote>(2);
  } else {
    vote.worker = crowd::kMaxWorkerId + 1;
  }
  stream.batches.insert(
      stream.batches.begin() + static_cast<ptrdiff_t>(stream.rejected),
      std::move(bad));
  return stream;
}

uint64_t AckedVotes(const ParityStream& stream, const ParityRun& run) {
  uint64_t votes = 0;
  for (size_t i = 0; i < run.acked.size(); ++i) {
    if (run.acked[i]) votes += stream.batches[i].size();
  }
  return votes;
}

void RunStriped(const ParityCase& c, const ParityStream& stream,
                ParityRun* run) {
  engine::DqmEngine engine;
  auto session = Open(engine, c, stream, "", run);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->concurrent_ingest())
      << "the panel fell back to the serialized path";
  // Producers pull batches off a shared cursor; each writes only its own
  // batches' statuses.
  std::vector<Status> statuses(stream.batches.size());
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < c.producers; ++p) {
    producers.emplace_back([&] {
      for (size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) <
                     stream.batches.size();) {
        statuses[i] = (*session)->AddVotes(stream.batches[i]);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  (*session)->Publish();
  for (size_t i = 0; i < statuses.size(); ++i) {
    run->acked[i] = statuses[i].ok();
  }
  Finish(**session, stream, run);
}

void RunRecovery(const ParityCase& c, const ParityStream& stream,
                 ParityRun* run) {
  const bool crashed = !c.kill_point.empty();
  const std::string live_root = ScratchDir(c.name + "_live");
  const std::string image_root =
      crashed ? ScratchDir(c.name + "_image") : "";
  {
    engine::DqmEngine live;
    auto session = Open(live, c, stream, live_root, run);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->durable());
    // The "kill": on the kill_firing-th firing of the phase, copy the whole
    // durability directory. The phase point runs with the WAL mutex held,
    // so no write races the copy, and the copy holds exactly what a process
    // killed at that instant leaves on disk.
    int fired = 0;
    bool copied = false;
    if (crashed) {
      failpoint::Action copy_image;
      copy_image.kind = failpoint::Action::Kind::kCallback;
      copy_image.callback = [&] {
        if (copied || ++fired < c.kill_firing) return;
        fs::copy(live_root, image_root,
                 fs::copy_options::recursive |
                     fs::copy_options::overwrite_existing);
        copied = true;
      };
      failpoint::Registry::Global().Arm(c.kill_point, copy_image);
    }
    Ingest(c, stream, **session, 0, stream.batches.size(), run);
    if (crashed) {
      failpoint::Registry::Global().Disarm(c.kill_point);
      ASSERT_TRUE(copied) << "kill point never fired";
    }
    // The live engine's destructor flushes: after it, `live_root` holds
    // every acknowledged vote.
  }
  failpoint::DisarmAll();
  if (OrderSensitive(c, stream)) {
    EXPECT_FALSE(fs::exists(live_root + "/s/checkpoint.bin"));
  }
  RecoverDirectory(crashed ? image_root : live_root, stream, !crashed, run);
  if (crashed && c.kill_point != engine::fpn::kAfterAppend) {
    EXPECT_GT(run->votes, 0u) << "a group commit preceded the kill";
  }
}

void RunMigration(const ParityCase& c, const ParityStream& stream,
                  ParityRun* run) {
  engine::DqmEngine source;
  engine::DqmEngine target;
  auto session =
      Open(source, c, stream, ScratchDir(c.name + "_source"), run);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Ingest(c, stream, **session, 0, c.cut, run);
  const Status moved =
      source.MigrateSession("s", target, ScratchDir(c.name + "_target"));
  engine::DqmEngine* serving = &target;
  if (!moved.ok()) {
    // Only an order-sensitive panel may refuse, and the source serves on.
    EXPECT_TRUE(OrderSensitive(c, stream)) << moved.ToString();
    EXPECT_EQ(moved.code(), StatusCode::kFailedPrecondition)
        << moved.ToString();
    EXPECT_EQ(target.num_sessions(), 0u);
    serving = &source;
  }
  auto moved_session = serving->GetSession("s");
  ASSERT_TRUE(moved_session.ok()) << moved_session.status().ToString();
  Ingest(c, stream, **moved_session, c.cut, stream.batches.size(), run);
  (*moved_session)->Publish();
  Finish(**moved_session, stream, run);
}

void RunPromotion(const ParityCase& c, const ParityStream& stream,
                  ParityRun* run) {
  engine::DqmEngine primary;
  auto session =
      Open(primary, c, stream, ScratchDir(c.name + "_primary"), run);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto transport =
      engine::LocalDirTransport::Open(ScratchDir(c.name + "_ship"));
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  std::shared_ptr<engine::ReplicationTransport> shared =
      std::move(*transport);
  auto replicator = engine::SessionReplicator::Start(*session, shared);
  ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();
  // An in-memory standby: the failover death tests promote durable ones.
  engine::DqmEngine standby;
  auto applier = engine::StandbyApplier::Open(standby, shared);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();

  // Polling after every batch makes the standby cross checkpoint rebases
  // and ranges re-shipped wider mid-stream.
  Ingest(c, stream, **session, 0, c.cut, run,
         [&] { EXPECT_TRUE((*applier)->Poll().ok()); });
  // The durability barrier: every acknowledged vote is fsynced and shipped.
  ASSERT_TRUE((*session)->FlushDurability().ok());
  failpoint::DisarmAll();
  ASSERT_TRUE((*applier)->Poll().ok());
  // An idle pair fully drains.
  const uint64_t acked = AckedVotes(stream, *run);
  EXPECT_EQ((*applier)->applied_votes(), acked);
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_EQ((*applier)->divergences(), 0u);
  EXPECT_DOUBLE_EQ(telemetry::MetricsRegistry::Global()
                       .GetGauge(telemetry::metric_names::kReplicaLagVotes,
                                 {{"session", "s"}})
                       ->Value(),
                   0.0);
  const engine::ReplicationStats stats = (*replicator)->stats();
  EXPECT_GT(stats.segments_shipped, 0u);
  if (OrderSensitive(c, stream)) {
    EXPECT_EQ(stats.checkpoints_shipped, 0u);  // WAL-only durability
  }
  if (c.faults.empty()) {
    EXPECT_EQ(stats.ship_errors, 0u);
    EXPECT_EQ(stats.shipped_votes, acked);
  }

  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_GE(promoted->fencing_token, 2u);
  EXPECT_EQ(promoted->applied_votes, acked)
      << "the promoted standby lost an acknowledged vote";
  (*replicator)->Stop();
  // The promoted session serves as a primary: the rest of the stream lands
  // on it.
  auto promoted_session = standby.GetSession("s");
  ASSERT_TRUE(promoted_session.ok()) << promoted_session.status().ToString();
  Ingest(c, stream, **promoted_session, c.cut, stream.batches.size(), run);
  (*promoted_session)->Publish();
  Finish(**promoted_session, stream, run);
}

void RecoverDirectory(const std::string& dir, const ParityStream& stream,
                      bool complete, ParityRun* run) {
  engine::DqmEngine engine;
  auto reports = engine.RecoverSessions(dir);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  const engine::DqmEngine::RecoveredSession& report = (*reports)[0];
  EXPECT_EQ(report.name, "s");
  EXPECT_EQ(report.num_items, stream.num_items);
  EXPECT_EQ(report.torn_records, 0u);  // fsynced prefixes are never torn
  EXPECT_FALSE(report.degraded);
  if (complete) {
    EXPECT_EQ(report.votes_restored, AckedVotes(stream, *run))
        << "an acknowledged vote did not survive a clean shutdown";
  }
  run->votes = report.votes_restored;
  run->fitted_once = true;
  auto served = engine.Query("s");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  run->served = std::move(served).value();
  EXPECT_FALSE(run->served.durability_degraded);
  EXPECT_EQ(run->served.dropped_durability_votes, 0u);
}

void ExpectSameServedState(const std::vector<std::string>& panel,
                           const engine::Snapshot& expected,
                           const engine::Snapshot& actual,
                           const std::string& context, Tolerance tolerance) {
  EXPECT_EQ(actual.num_votes, expected.num_votes) << context;
  EXPECT_EQ(actual.num_items, expected.num_items) << context;
  EXPECT_EQ(actual.nominal_count, expected.nominal_count) << context;
  EXPECT_EQ(actual.majority_count, expected.majority_count) << context;
  ASSERT_EQ(expected.estimates.size(), panel.size()) << context;
  ASSERT_EQ(actual.estimates.size(), panel.size()) << context;
  const double items =
      static_cast<double>(std::max<size_t>(expected.num_items, 1));
  for (size_t i = 0; i < panel.size(); ++i) {
    const std::string row = context + ", " + panel[i];
    const engine::EstimatorEstimate& want = expected.estimates[i];
    const engine::EstimatorEstimate& got = actual.estimates[i];
    const bool tolerant =
        tolerance == Tolerance::kDeclared ||
        (tolerance == Tolerance::kWarmStarted && WarmStarted(panel[i]));
    const estimators::ConformanceTraits traits =
        tolerant ? TraitsFor(panel[i]) : estimators::ConformanceTraits{};
    EXPECT_EQ(got.name, want.name) << row;
    ExpectEstimatesAgree(traits, want.total_errors, got.total_errors, row);
    ExpectEstimatesAgree(traits, want.undetected_errors,
                         got.undetected_errors, row);
    // Quality = 1 - undetected/N: its bound is the error-count bound over N.
    const double bound =
        AgreementBound(traits, want.undetected_errors, got.undetected_errors);
    if (bound == 0.0) {
      EXPECT_EQ(got.quality_score, want.quality_score) << row;
    } else {
      EXPECT_NEAR(got.quality_score, want.quality_score, bound / items)
          << row;
    }
  }
}

void ExpectServesReference(const ParityCase& c, const ParityStream& stream,
                           const ParityRun& run) {
  ASSERT_EQ(run.acked.size(), stream.batches.size());
  ASSERT_FALSE(run.acked[stream.rejected])
      << "AddVotes acknowledged a batch the WAL cannot hold";
  engine::SessionOptions options = c.options;
  options.durability_dir.clear();
  options.checkpoint_every_votes = 0;
  // k producers are checked against the serialized commit path.
  if (c.producers >= 2) options.ingest_stripes = 1;
  // A recovered session fitted once; the reference then fits once too, at
  // the end, and even a warm-started row must match it exactly.
  if (run.fitted_once) options.cadence = engine::PublishCadence::kManual;
  engine::DqmEngine engine;
  auto reference = engine.OpenSession(
      "reference", stream.num_items, std::span<const std::string>(c.panel),
      options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(c.producers >= 2 && (*reference)->concurrent_ingest());
  uint64_t fed = 0;
  for (size_t i = 0; i < stream.batches.size() && fed < run.votes; ++i) {
    if (!run.acked[i]) continue;
    const std::vector<crowd::VoteEvent>& batch = stream.batches[i];
    ASSERT_LE(fed + batch.size(), run.votes)
        << c.name << ": the served prefix ends inside batch " << i;
    ASSERT_TRUE((*reference)->AddVotes(batch).ok());
    fed += batch.size();
  }
  ASSERT_EQ(fed, run.votes)
      << c.name << ": the subject serves votes that were never acknowledged";
  (*reference)->Publish();
  const Tolerance tolerance = c.producers >= 2 ? Tolerance::kDeclared
                              : run.fitted_once ? Tolerance::kNone
                                                : Tolerance::kWarmStarted;
  ExpectSameServedState(c.panel, (*reference)->snapshot(), run.served, c.name,
                        tolerance);
}

void ExpectCaseParity(const ParityCase& c) {
  const ParityStream stream = MakeParityStream(c.workload, c.seed);
  ParityRun run;
  c.subject(c, stream, &run);
  if (testing::Test::HasFatalFailure()) return;
  ExpectServesReference(c, stream, run);
}

}  // namespace dqm::conformance
