// Fault-injection substrate tests: the failpoint spec grammar, arming /
// budget / probability / callback semantics, the telemetry export bridge,
// and the retrying I/O wrappers (crowd/io.h) the durability stack issues
// every syscall through — including whole-file publish and read on every
// edge set, and the VoteWal regression for transient EINTR/short-I/O
// faults riding through appends and replay unharmed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "crowd/io.h"
#include "crowd/wal.h"
#include "telemetry/failpoints.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm {
namespace {

namespace fs = std::filesystem;
namespace io = crowd::io;
namespace fpn = crowd::io::fpn;

using failpoint::Action;
using failpoint::EvalResult;
using failpoint::Registry;

/// Every test in this file arms global state; the fixture guarantees a
/// clean registry and default retry budget on both sides.
class FailpointTest : public testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    saved_retry_ = io::GetRetryOptions();
    // Keep injected-transient tests fast: no real sleeping between retries.
    io::RetryOptions fast = saved_retry_;
    fast.backoff_initial_us = 0;
    fast.backoff_max_us = 0;
    io::SetRetryOptions(fast);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    io::SetRetryOptions(saved_retry_);
  }

  std::string ScratchDir(const std::string& tag) {
    fs::path dir = fs::path(testing::TempDir()) / ("dqm_failpoint_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  static uint64_t CounterValue(const char* name) {
    return static_cast<uint64_t>(
        telemetry::MetricsRegistry::Global().GetCounter(name)->Value());
  }

  io::RetryOptions saved_retry_;
};

TEST_F(FailpointTest, ParseActionGrammar) {
  Result<Action> error = failpoint::ParseAction("error(EIO)");
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->kind, Action::Kind::kError);
  EXPECT_EQ(error->error_errno, EIO);
  EXPECT_EQ(error->budget, UINT64_MAX);

  Result<Action> numeric = failpoint::ParseAction("error(5)");
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  EXPECT_EQ(numeric->error_errno, 5);

  Result<Action> ret = failpoint::ParseAction("return");
  ASSERT_TRUE(ret.ok()) << ret.status().ToString();
  EXPECT_EQ(ret->kind, Action::Kind::kReturn);

  Result<Action> delay = failpoint::ParseAction("delay(5ms)");
  ASSERT_TRUE(delay.ok()) << delay.status().ToString();
  EXPECT_EQ(delay->kind, Action::Kind::kDelay);
  EXPECT_EQ(delay->delay_ms, 5u);

  Result<Action> crash = failpoint::ParseAction("crash");
  ASSERT_TRUE(crash.ok()) << crash.status().ToString();
  EXPECT_EQ(crash->kind, Action::Kind::kCrash);

  Result<Action> probe = failpoint::ParseAction("count(3)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->kind, Action::Kind::kProbe);
  EXPECT_EQ(probe->budget, 3u);

  Result<Action> bounded = failpoint::ParseAction("count(2):error(EINTR)");
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->kind, Action::Kind::kError);
  EXPECT_EQ(bounded->error_errno, EINTR);
  EXPECT_EQ(bounded->budget, 2u);

  Result<Action> prob = failpoint::ParseAction("error(EIO)%0.25");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  EXPECT_EQ(prob->kind, Action::Kind::kError);
  EXPECT_LT(prob->fire_threshold, ~0ull);

  // A certain probability is the same as no probability clause.
  Result<Action> certain = failpoint::ParseAction("return%1");
  ASSERT_TRUE(certain.ok()) << certain.status().ToString();
  EXPECT_EQ(certain->fire_threshold, ~0ull);
}

TEST_F(FailpointTest, ParseActionRejectsMalformedSpecs) {
  EXPECT_FALSE(failpoint::ParseAction("").ok());
  EXPECT_FALSE(failpoint::ParseAction("explode").ok());
  EXPECT_FALSE(failpoint::ParseAction("error()").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(EWHAT)").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(0)").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(-5)").ok());
  EXPECT_FALSE(failpoint::ParseAction("delay(5)").ok());    // missing ms
  EXPECT_FALSE(failpoint::ParseAction("delay(xms)").ok());
  EXPECT_FALSE(failpoint::ParseAction("count(0)").ok());    // inert
  EXPECT_FALSE(failpoint::ParseAction("count(x):crash").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(EIO)%0").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(EIO)%1.5").ok());
  EXPECT_FALSE(failpoint::ParseAction("error(EIO)%nope").ok());
}

TEST_F(FailpointTest, DisabledEvalIsNoneAndCountsNothing) {
  EXPECT_FALSE(failpoint::AnyArmed());
  EvalResult r = failpoint::Eval("dqm.test.unarmed");
  EXPECT_EQ(r.op, EvalResult::Op::kNone);
  EXPECT_EQ(Registry::Global().hits("dqm.test.unarmed"), 0u);
}

TEST_F(FailpointTest, ConfigureArmsAndRejectsAtomically) {
  // One bad spec poisons the whole string: nothing arms.
  Status bad = failpoint::Configure(
      "dqm.test.a=error(EIO);dqm.test.b=banana");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_EQ(failpoint::Eval("dqm.test.a").op, EvalResult::Op::kNone);

  ASSERT_TRUE(
      failpoint::Configure("dqm.test.a=error(EIO);dqm.test.b=return").ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  EvalResult a = failpoint::Eval("dqm.test.a");
  EXPECT_EQ(a.op, EvalResult::Op::kError);
  EXPECT_EQ(a.injected_errno, EIO);
  EXPECT_EQ(failpoint::Eval("dqm.test.b").op, EvalResult::Op::kReturnEarly);
  // An armed registry still answers kNone for names nobody armed.
  EXPECT_EQ(failpoint::Eval("dqm.test.other").op, EvalResult::Op::kNone);

  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_EQ(failpoint::Eval("dqm.test.a").op, EvalResult::Op::kNone);
}

TEST_F(FailpointTest, CountBudgetDisarmsAfterNTriggers) {
  ASSERT_TRUE(failpoint::Configure("dqm.test.budget=count(2):error(EINTR)").ok());
  EXPECT_EQ(failpoint::Eval("dqm.test.budget").op, EvalResult::Op::kError);
  EXPECT_EQ(failpoint::Eval("dqm.test.budget").op, EvalResult::Op::kError);
  // Budget exhausted — the point went inert (and, with nothing else armed,
  // the fast path short-circuits again).
  EXPECT_EQ(failpoint::Eval("dqm.test.budget").op, EvalResult::Op::kNone);
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_EQ(Registry::Global().hits("dqm.test.budget"), 2u);
}

TEST_F(FailpointTest, HitsCountArmedEvaluationsTriggeredCountsFires) {
  ASSERT_TRUE(failpoint::Configure("dqm.test.probe=count(5)").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(failpoint::Eval("dqm.test.probe").op, EvalResult::Op::kNone);
  }
  std::vector<failpoint::FailpointInfo> infos = Registry::Global().Collect();
  bool found = false;
  for (const failpoint::FailpointInfo& info : infos) {
    if (info.name != "dqm.test.probe") continue;
    found = true;
    EXPECT_EQ(info.hits, 5u);
    EXPECT_EQ(info.triggered, 5u);  // a probe "fires" by counting
    EXPECT_FALSE(info.armed);       // budget spent
  }
  EXPECT_TRUE(found);
}

TEST_F(FailpointTest, ProbabilityStreamsReplayUnderSameSeed) {
  auto run = [&](uint64_t seed) {
    failpoint::DisarmAll();
    failpoint::SetSeed(seed);
    EXPECT_TRUE(failpoint::Configure("dqm.test.prob=error(EIO)%0.5").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(failpoint::Eval("dqm.test.prob").op ==
                      EvalResult::Op::kError);
    }
    return fired;
  };
  std::vector<bool> first = run(1234);
  std::vector<bool> second = run(1234);
  std::vector<bool> other = run(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
  // p=0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointTest, SyncFailpointMetricsExportsHitDeltas) {
  ASSERT_TRUE(failpoint::Configure("dqm.test.export=count(3)").ok());
  failpoint::Eval("dqm.test.export");
  failpoint::Eval("dqm.test.export");

  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* exported = registry.GetCounter(
      telemetry::metric_names::kFailpointHitsTotal,
      {{"failpoint", "dqm.test.export"}});
  const double before = exported->Value();
  telemetry::SyncFailpointMetrics(registry);
  EXPECT_DOUBLE_EQ(exported->Value(), before + 2.0);
  // Re-syncing without new hits must not double-count.
  telemetry::SyncFailpointMetrics(registry);
  EXPECT_DOUBLE_EQ(exported->Value(), before + 2.0);
  failpoint::Eval("dqm.test.export");
  telemetry::SyncFailpointMetrics(registry);
  EXPECT_DOUBLE_EQ(exported->Value(), before + 3.0);
}

// ---------------------------------------------------------------------------
// Retrying I/O wrappers.
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, WriteAllRidesOutTransientErrnos) {
  std::string dir = ScratchDir("write_transient");
  std::string path = dir + "/file";
  Result<int> fd = io::Open(fpn::kWalOpen, path, O_RDWR | O_CREAT, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  const uint64_t retries_before = CounterValue(
      telemetry::metric_names::kWalRetriesTotal);
  ASSERT_TRUE(
      failpoint::Configure("dqm.wal.write=count(2):error(EINTR)").ok());
  const uint8_t payload[] = {1, 2, 3, 4, 5};
  Status written = io::WriteAll(fpn::kWalWrite, *fd, payload, sizeof(payload),
                                path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(CounterValue(telemetry::metric_names::kWalRetriesTotal),
            retries_before + 2);
  EXPECT_EQ(fs::file_size(path), sizeof(payload));

  // And the bytes are real: read them back through the read wrapper.
  uint8_t back[sizeof(payload)] = {};
  Status read = io::ReadExactAt(fpn::kWalRead, *fd, back, sizeof(back), 0,
                                path);
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(0, std::memcmp(back, payload, sizeof(payload)));
  ::close(*fd);
}

TEST_F(FailpointTest, PersistentTransientErrnoExhaustsBudget) {
  std::string dir = ScratchDir("write_exhausted");
  std::string path = dir + "/file";
  Result<int> fd = io::Open(fpn::kWalOpen, path, O_RDWR | O_CREAT, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  io::RetryOptions tight = io::GetRetryOptions();
  tight.max_attempts = 3;
  io::SetRetryOptions(tight);
  const uint64_t exhausted_before = CounterValue(
      telemetry::metric_names::kWalRetryExhaustedTotal);

  ASSERT_TRUE(failpoint::Configure("dqm.wal.write=error(EAGAIN)").ok());
  const uint8_t payload[] = {9, 9, 9};
  Status written = io::WriteAll(fpn::kWalWrite, *fd, payload, sizeof(payload),
                                path);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIOError);
  EXPECT_EQ(CounterValue(telemetry::metric_names::kWalRetryExhaustedTotal),
            exhausted_before + 1);
  ::close(*fd);
}

TEST_F(FailpointTest, NonTransientErrnoSurfacesWithoutRetry) {
  std::string dir = ScratchDir("write_enospc");
  std::string path = dir + "/file";
  Result<int> fd = io::Open(fpn::kWalOpen, path, O_RDWR | O_CREAT, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  const uint64_t retries_before = CounterValue(
      telemetry::metric_names::kWalRetriesTotal);
  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=error(EIO)").ok());
  Status synced = io::Fsync(fpn::kWalFsync, *fd, path);
  EXPECT_FALSE(synced.ok());
  EXPECT_EQ(synced.code(), StatusCode::kIOError);
  EXPECT_EQ(CounterValue(telemetry::metric_names::kWalRetriesTotal),
            retries_before);
  ::close(*fd);
}

TEST_F(FailpointTest, ReturnActionSkipsTheSyscallSilently) {
  std::string dir = ScratchDir("write_lost");
  std::string path = dir + "/file";
  Result<int> fd = io::Open(fpn::kWalOpen, path, O_RDWR | O_CREAT, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  ASSERT_TRUE(failpoint::Configure("dqm.wal.write=return").ok());
  const uint8_t payload[] = {1, 2, 3};
  Status written = io::WriteAll(fpn::kWalWrite, *fd, payload, sizeof(payload),
                                path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  // The op reported success but never reached the kernel — lost I/O.
  EXPECT_EQ(fs::file_size(path), 0u);
  ::close(*fd);
}

TEST_F(FailpointTest, CallbackActionRunsOutsideTheRegistryLock) {
  // Code-only: the spec grammar has no spelling for a callback.
  EXPECT_FALSE(failpoint::ParseAction("callback").ok());

  uint64_t hits_seen = 0;
  Action action;
  action.kind = Action::Kind::kCallback;
  action.budget = 2;
  // Registry::hits takes the registry lock, so this would self-deadlock if
  // the callback ran while Eval still held it.
  action.callback = [&] { hits_seen = Registry::Global().hits("t.cb"); };
  Registry::Global().Arm("t.cb", action);
  EXPECT_EQ(failpoint::Eval("t.cb").op, EvalResult::Op::kNone);
  EXPECT_EQ(hits_seen, 1u);
  EXPECT_EQ(failpoint::Eval("t.cb").op, EvalResult::Op::kNone);
  EXPECT_EQ(hits_seen, 2u);
  failpoint::Eval("t.cb");  // budget spent: inert, callback not run
  EXPECT_EQ(hits_seen, 2u);
}

// ---------------------------------------------------------------------------
// Whole-file publish and read (io::AtomicWriteFile / io::ReadFile), for
// every file-edge set the durability and replication layers use.
// ---------------------------------------------------------------------------

const io::FileEdges* const kEdgeSets[] = {&fpn::kManifest, &fpn::kCheckpoint,
                                          &fpn::kRepl};

TEST_F(FailpointTest, AtomicWriteFileFailureKeepsOldBytesAndNoTmp) {
  const std::vector<uint8_t> old_bytes = {1, 2, 3};
  const std::vector<uint8_t> new_bytes = {9, 8, 7, 6};
  for (const io::FileEdges* edges : kEdgeSets) {
    const std::string path = ScratchDir("atomic_write") + "/file.bin";
    ASSERT_TRUE(io::AtomicWriteFile(*edges, path, old_bytes).ok());
    for (const char* edge :
         {edges->open, edges->write, edges->fsync, edges->rename}) {
      SCOPED_TRACE(edge);
      ASSERT_TRUE(failpoint::Configure(std::string(edge) + "=error(EIO)").ok());
      Status status = io::AtomicWriteFile(*edges, path, new_bytes);
      failpoint::DisarmAll();
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
      Result<std::vector<uint8_t>> read = io::ReadFile(*edges, path);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_EQ(*read, old_bytes);
      EXPECT_FALSE(fs::exists(path + ".tmp"));
    }
    // The directory sync runs after the rename committed, so the new bytes
    // are already in place; the failure must still surface.
    SCOPED_TRACE(edges->dirsync);
    ASSERT_TRUE(
        failpoint::Configure(std::string(edges->dirsync) + "=error(EIO)")
            .ok());
    Status status = io::AtomicWriteFile(*edges, path, new_bytes);
    failpoint::DisarmAll();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
    Result<std::vector<uint8_t>> read = io::ReadFile(*edges, path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, new_bytes);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
}

TEST_F(FailpointTest, ReadFileClassifiesErrnos) {
  const std::string dir = ScratchDir("read_file");
  for (const io::FileEdges* edges : kEdgeSets) {
    SCOPED_TRACE(edges->open);
    // Missing: NotFound, keeping the strerror text.
    Result<std::vector<uint8_t>> missing =
        io::ReadFile(*edges, dir + "/missing");
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_NE(missing.status().message().find(std::strerror(ENOENT)),
              std::string::npos)
        << missing.status().ToString();

    // Empty: zero bytes, not an error.
    const std::string empty = dir + "/empty";
    ASSERT_TRUE(io::AtomicWriteFile(*edges, empty, {}).ok());
    Result<std::vector<uint8_t>> none = io::ReadFile(*edges, empty);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->empty());

    // Any other errno, real or injected, stays IOError.
    const std::string loop = dir + "/loop";
    fs::remove(loop);
    fs::create_symlink("loop", loop);  // ELOOP on open
    EXPECT_EQ(io::ReadFile(*edges, loop).status().code(),
              StatusCode::kIOError);
    const std::string full = dir + "/full";
    const std::vector<uint8_t> bytes = {4, 5};
    ASSERT_TRUE(io::AtomicWriteFile(*edges, full, bytes).ok());
    for (const char* edge : {edges->open, edges->read}) {
      ASSERT_TRUE(failpoint::Configure(std::string(edge) + "=error(EIO)").ok());
      Status status = io::ReadFile(*edges, full).status();
      failpoint::DisarmAll();
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
    }
    Result<std::vector<uint8_t>> back = io::ReadFile(*edges, full);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, bytes);
  }
}

// ---------------------------------------------------------------------------
// VoteWal regression: transient faults on the append / replay paths must
// ride through the retry layer without sealing the log or corrupting the
// stream.
// ---------------------------------------------------------------------------

std::vector<crowd::VoteEvent> SomeVotes(size_t count, size_t num_items) {
  std::vector<crowd::VoteEvent> votes;
  votes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    votes.push_back(crowd::VoteEvent{
        static_cast<uint32_t>(i % 7), static_cast<uint32_t>(i % 5),
        static_cast<uint32_t>(i % num_items),
        (i % 3 == 0) ? crowd::Vote::kDirty : crowd::Vote::kClean});
  }
  return votes;
}

TEST_F(FailpointTest, WalSurvivesTransientWriteAndFsyncFaults) {
  std::string dir = ScratchDir("wal_transient");
  std::string path = dir + "/wal.log";
  std::vector<crowd::VoteEvent> votes = SomeVotes(50, 16);

  Result<crowd::VoteWal> wal = crowd::VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  const uint64_t retries_before = CounterValue(
      telemetry::metric_names::kWalRetriesTotal);
  ASSERT_TRUE(failpoint::Configure("dqm.wal.write=count(2):error(EINTR);"
                                   "dqm.wal.fsync=count(1):error(EINTR)")
                  .ok());
  wal->Append(std::span<const crowd::VoteEvent>(votes));
  Status synced = wal->Sync();
  EXPECT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_FALSE(wal->sealed());
  EXPECT_GE(CounterValue(telemetry::metric_names::kWalRetriesTotal),
            retries_before + 3);
  failpoint::DisarmAll();

  // Replay with transient read faults injected: same stream comes back.
  ASSERT_TRUE(
      failpoint::Configure("dqm.wal.read=count(2):error(EINTR)").ok());
  Result<crowd::VoteWal> reopened = crowd::VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<crowd::VoteEvent> replayed;
  auto apply = [&](std::span<const crowd::VoteEvent> events) -> Status {
    replayed.insert(replayed.end(), events.begin(), events.end());
    return Status::OK();
  };
  Result<crowd::VoteWal::ReplayStats> stats =
      reopened->ReplayAndTruncate(16, apply);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->votes, votes.size());
  EXPECT_EQ(stats->torn_records, 0u);
  ASSERT_EQ(replayed.size(), votes.size());
  for (size_t i = 0; i < votes.size(); ++i) {
    EXPECT_EQ(replayed[i].item, votes[i].item);
    EXPECT_EQ(replayed[i].vote, votes[i].vote);
  }
}

TEST_F(FailpointTest, WalSealsOnPersistentFsyncFailure) {
  std::string dir = ScratchDir("wal_sealed");
  std::string path = dir + "/wal.log";
  std::vector<crowd::VoteEvent> votes = SomeVotes(20, 16);

  Result<crowd::VoteWal> wal = crowd::VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=error(EIO)").ok());
  wal->Append(std::span<const crowd::VoteEvent>(votes));
  Status synced = wal->Sync();
  EXPECT_FALSE(synced.ok());
  EXPECT_TRUE(wal->sealed());
  failpoint::DisarmAll();

  // A sealed log refuses further traffic until Reset.
  EXPECT_FALSE(wal->Sync().ok());
  ASSERT_TRUE(wal->Reset(wal->generation() + 1).ok());
  EXPECT_FALSE(wal->sealed());
  wal->Append(std::span<const crowd::VoteEvent>(votes));
  EXPECT_TRUE(wal->Sync().ok());
}

}  // namespace
}  // namespace dqm
