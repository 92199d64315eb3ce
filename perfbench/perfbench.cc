// dqm_perfbench — the repository benchmark. One process runs one workload
// from a seed and prints one JSON result line (see perfbench/run.py, which
// builds this binary and is the command to run):
//
//   dqm_perfbench --workload=<durable_ingest|hot_stream|estimate_serving>
//                 --seed=<n> --seconds=<s> --trace=<0|1> --work_dir=<dir>
//
// Every workload is a closed loop: each producer submits a batch through
// EstimationSession::AddVotes and waits for it to return before sending the
// next, as a crowd platform waits for its ack. Vote streams come from the
// src/workload families with hidden truth, are generated before timing
// starts, and are replayed once per round into fresh sessions, never
// cycled within one session. A run repeats rounds until --seconds are
// used, then reports medians over rounds (throughput, set-up, and commit
// latency percentiles taken per round) or percentiles over every reader
// block of the run (query latency).
//
// --trace=0 reports the end-to-end metrics with the benchmark's spans off.
// --trace=1 alternates traced and untraced rounds and reports per-layer
// metrics: span busy/self time, dqm_* counter and histogram deltas over
// the traced ingest windows, and public functions replayed on the
// workload's own data where a layer cannot be wrapped. Per-layer counts and
// times are per round (one full pass over the stream).

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/dqm.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "engine/session.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workload/workload.h"

namespace dqm::perfbench {
namespace {

namespace fs = std::filesystem;
namespace names = telemetry::metric_names;
using crowd::VoteEvent;

// --- Workload definitions --------------------------------------------------
// perfbench/workloads.json documents the same constants for readers of the
// results; perfbench/selfcheck.py checks the two agree.

constexpr char kDurableSpec[] =
    "benign?n=100000&dirty=10000&tasks=400000&ipt=10&tpw=50&batch=512";
constexpr char kHotSpec[] =
    "drift?n=1000000&dirty=50000&tasks=400000&ipt=10&tpw=50&batch=512"
    "&trend=0";
constexpr char kServingSpec[] =
    "burst?n=1000&dirty=100&tasks=500&ipt=10&tpw=20&fn=0.3";
const std::vector<std::string> kStripedPanel = {"vchao92", "chao92", "voting",
                                                "nominal"};
const std::vector<std::string> kServingPanel = {"switch", "vchao92", "chao92",
                                                "voting"};
constexpr char kStripedCadence[] = "every_n_votes:65536";
constexpr uint64_t kGroupCommitVotes = 4096;
constexpr uint64_t kCheckpointEveryVotes = 1 << 20;
constexpr size_t kHotProducers = 2;
constexpr size_t kServingSessions = 64;
constexpr size_t kServingClients = 2;
/// Reads per timed block: a single ~60 ns read is at clock resolution, so
/// readers time blocks and report block time / kReadBlock per read.
constexpr size_t kReadBlock = 1024;
/// Pause between a reader's block pairs: a polling monitor, not a spinning
/// core hog, so the reader does not take a CPU the producers need.
constexpr std::chrono::microseconds kReaderPause{200};

// --- Run context -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation accounting and output checks shared by every workload. A run
/// is correct only if every check held; every public call the benchmark
/// makes on the serving path counts as attempted, and as failed when it
/// returns an error.
class RunContext {
 public:
  explicit RunContext(Args args) : args_(std::move(args)) {}

  const Args& args() const { return args_; }
  SpanRecorder& spans() { return spans_; }

  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts one attempted call; a failure is counted and reported.
  bool Op(const Status& status, const char* what) {
    Attempt();
    if (status.ok()) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    Check(false, std::string(what) + ": " + status.ToString());
    return false;
  }
  void AddFailed(uint64_t n) { failed_.fetch_add(n, std::memory_order_relaxed); }

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mutex_);
    correct_ = false;
    if (problems_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  bool correct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return correct_;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  const Args args_;
  SpanRecorder spans_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  bool correct_ = true;
  uint64_t problems_ = 0;
};

// --- Small statistics helpers ---------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

// --- Telemetry deltas ------------------------------------------------------

/// The global registry's counters (summed over labels) and histograms
/// (buckets merged over labels) at one instant.
struct TelemetryReading {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, telemetry::HistogramSnapshot> histograms;

  static TelemetryReading Now() {
    TelemetryReading reading;
    telemetry::MetricsRegistry::Collection all =
        telemetry::MetricsRegistry::Global().Collect();
    for (const auto& c : all.counters) reading.counters[c.name] += c.value;
    for (const auto& h : all.histograms) {
      telemetry::HistogramSnapshot& merged = reading.histograms[h.name];
      merged.count += h.snapshot.count;
      for (size_t b = 0; b < 64; ++b) merged.buckets[b] += h.snapshot.buckets[b];
    }
    return reading;
  }

  /// this += after - before.
  void AddDelta(const TelemetryReading& before, const TelemetryReading& after) {
    for (const auto& [name, value] : after.counters) {
      auto it = before.counters.find(name);
      counters[name] += value - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto& [name, snap] : after.histograms) {
      auto it = before.histograms.find(name);
      telemetry::HistogramSnapshot& sum = histograms[name];
      sum.count += snap.count - (it == before.histograms.end() ? 0 : it->second.count);
      for (size_t b = 0; b < 64; ++b) {
        sum.buckets[b] +=
            snap.buckets[b] - (it == before.histograms.end() ? 0 : it->second.buckets[b]);
      }
    }
  }

  uint64_t Counter(const char* name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  telemetry::HistogramSnapshot Histogram(const char* name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? telemetry::HistogramSnapshot{} : it->second;
  }
  /// Sum of a latency histogram's samples, estimated from its power-of-two
  /// buckets at each bucket's geometric midpoint (the registry keeps no
  /// exact sum).
  double HistogramSum(const char* name) const {
    telemetry::HistogramSnapshot snap = Histogram(name);
    double sum = 0.0;
    for (size_t b = 1; b < 64; ++b) {
      sum += static_cast<double>(snap.buckets[b]) *
             std::ldexp(1.0, static_cast<int>(b) - 1) * 1.41421356237309515;
    }
    return sum;
  }
};

// --- Streams ---------------------------------------------------------------

/// One generated vote stream cut into its ingest batches.
struct Stream {
  workload::GeneratedWorkload generated;
  std::vector<size_t> offsets;  // start of each batch in votes()

  const std::vector<VoteEvent>& votes() const { return generated.log.events(); }
  size_t num_batches() const { return offsets.size(); }
  std::span<const VoteEvent> batch(size_t b) const {
    return {votes().data() + offsets[b], generated.batch_sizes[b]};
  }
  double true_dirty() const { return static_cast<double>(generated.NumDirty()); }
};

Stream MakeStream(const std::string& spec, uint64_t seed) {
  Result<std::unique_ptr<workload::Workload>> made =
      workload::WorkloadRegistry::Global().Create(spec);
  DQM_CHECK(made.ok()) << made.status().ToString();
  Stream stream{(*made)->Generate(seed), {}};
  size_t offset = 0;
  for (size_t size : stream.generated.batch_sizes) {
    stream.offsets.push_back(offset);
    offset += size;
  }
  DQM_CHECK_EQ(offset, stream.votes().size());
  return stream;
}

// --- Readers ---------------------------------------------------------------

/// A reader thread that times blocks of kReadBlock consecutive reads,
/// alternating a block of the workload's own read kind (`primary`, which
/// the end-to-end query metrics come from) with a block of the other kind
/// (`secondary`, for the per-layer split between registry lookup and
/// snapshot read).
class Reader {
 public:
  template <typename Primary, typename Secondary>
  Reader(RunContext& ctx, Primary primary, Secondary secondary) : ctx_(ctx) {
    thread_ = std::thread([this, primary, secondary]() mutable {
      uint64_t reads = 0;
      uint64_t failures = 0;
      size_t cursor = 0;
      auto block = [&](auto& read, std::vector<double>& out) {
        const uint64_t start = NowNs();
        for (size_t i = 0; i < kReadBlock; ++i) {
          if (!read(cursor++)) ++failures;
        }
        out.push_back(static_cast<double>(NowNs() - start) / kReadBlock);
        reads += kReadBlock;
      };
      while (!stop_.load(std::memory_order_relaxed)) {
        block(primary, primary_ns_);
        block(secondary, secondary_ns_);
        std::this_thread::sleep_for(kReaderPause);
      }
      ctx_.Attempt(reads);
      ctx_.AddFailed(failures);
      if (failures > 0) ctx_.Check(false, "reader: failed snapshot reads");
    });
  }
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Per-read ns of each timed block; valid after Stop().
  const std::vector<double>& primary_ns() const { return primary_ns_; }
  const std::vector<double>& secondary_ns() const { return secondary_ns_; }

 private:
  RunContext& ctx_;
  std::atomic<bool> stop_{false};
  std::vector<double> primary_ns_;
  std::vector<double> secondary_ns_;
  std::thread thread_;  // last: started after the members it uses
};

// --- Per-round bookkeeping -------------------------------------------------

/// What every workload's rounds accumulate. End-to-end figures pool all
/// rounds; per-layer figures pool only traced rounds.
struct Measurements {
  std::vector<double> setup_s;          // per round
  std::vector<double> votes_per_s;      // per round
  // Commit percentiles are taken per round and reported as the median over
  // rounds, so a slow phase of the machine in a few rounds does not set the
  // run's figure.
  std::vector<double> commit_p50_ns;    // per round
  std::vector<double> commit_p99_ns;    // per round
  size_t commit_samples = 0;
  // Reader blocks are pooled over the run (a short round holds fewer than
  // the 1000 blocks a p99 needs).
  std::vector<double> query_ns;         // per block, primary read kind
  std::vector<double> handle_read_ns;   // per block, held handle
  std::vector<double> by_name_read_ns;  // per block, by name
  std::vector<double> recover_s;        // per round (durable only)
  std::vector<double> failover_s;       // per round (durable only)
  std::vector<double> traced_votes_per_s;
  std::vector<double> untraced_votes_per_s;
  double retained_mib = 0.0;
  double estimate_rel_err = 0.0;
  double write_bytes_per_vote = 0.0;

  // Traced rounds only.
  int traced_rounds = 0;
  TelemetryReading layer;          // summed ingest-window deltas
  TimingTransport::Stats ship;     // summed over traced rounds
  TelemetryReading recovery;       // summed recovery-window deltas
  std::map<std::string, double> layer_sums;  // extra per-layer sums
};

/// Folds one round's per-batch commit latencies and its reader's timed
/// blocks into `m`. `by_name_primary` says which read kind the workload's
/// end-to-end query metrics come from.
void AddRoundSamples(Measurements& m, const std::vector<double>& commit_ns,
                     const Reader& reader, bool by_name_primary) {
  m.commit_p50_ns.push_back(Percentile(commit_ns, 0.50));
  m.commit_p99_ns.push_back(Percentile(commit_ns, 0.99));
  m.commit_samples += commit_ns.size();
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(m.query_ns, reader.primary_ns());
  append(by_name_primary ? m.by_name_read_ns : m.handle_read_ns,
         reader.primary_ns());
  append(by_name_primary ? m.handle_read_ns : m.by_name_read_ns,
         reader.secondary_ns());
}

/// Runs one untimed warm-up round (allocator, page cache and CPU caches
/// settle; its measurements are dropped, its checks still count), then
/// `round(index, traced)` until the time budget is used: a round starts only
/// if the previous round's duration still fits. At least one round runs, and
/// in a traced run at least one traced and one untraced.
template <typename Round>
void RunRounds(RunContext& ctx, Measurements& m, Round round) {
  round(-1, false);
  m = Measurements();
  const uint64_t budget_ns = static_cast<uint64_t>(ctx.args().seconds * 1e9);
  const uint64_t start = NowNs();
  uint64_t last = 0;
  for (int r = 0;; ++r) {
    const bool traced = ctx.args().trace && r % 2 == 0;
    ctx.spans().set_enabled(traced);
    const uint64_t round_start = NowNs();
    round(r, traced);
    ctx.spans().set_enabled(false);
    last = NowNs() - round_start;
    const bool need_more = ctx.args().trace && r < 1;
    if (!need_more && NowNs() - start + last > budget_ns) break;
  }
}

bool SameEstimates(const engine::Snapshot& a, const engine::Snapshot& b) {
  if (a.num_votes != b.num_votes || a.majority_count != b.majority_count ||
      a.nominal_count != b.nominal_count ||
      a.estimates.size() != b.estimates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    if (a.estimates[i].total_errors != b.estimates[i].total_errors ||
        a.estimates[i].undetected_errors != b.estimates[i].undetected_errors ||
        a.estimates[i].quality_score != b.estimates[i].quality_score) {
      return false;
    }
  }
  return true;
}

engine::SessionOptions StripedOptions() {
  Result<engine::SessionOptions> options =
      engine::ParsePublishCadenceSpec(kStripedCadence);
  DQM_CHECK(options.ok()) << options.status().ToString();
  return *options;
}

/// Commits one batch, timed at the producer, inside a session.add_votes span.
bool TimedAddVotes(RunContext& ctx, engine::EstimationSession& session,
                   std::span<const VoteEvent> batch, uint64_t batch_id,
                   std::vector<double>& commit_ns) {
  SpanRecorder::Scope scope(ctx.spans(), "session.add_votes", batch_id);
  const uint64_t start = NowNs();
  Status status = session.AddVotes(batch);
  commit_ns.push_back(static_cast<double>(NowNs() - start));
  return ctx.Op(status, "AddVotes");
}

// --- durable_ingest --------------------------------------------------------
// One producer, one durable session with WAL group commit by vote count,
// checkpoints, and a hot standby fed through LocalDirTransport. Each round
// also recovers the primary's directory and fails over to the standby.

std::vector<uint8_t> ReadWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void RunDurableIngest(RunContext& ctx, Measurements& m, const Stream& stream) {
  const std::string name = "ingest";
  const size_t num_items = stream.generated.log.num_items();
  const uint64_t total_votes = stream.votes().size();
  const fs::path root = fs::path(ctx.args().work_dir) / "durable_ingest";
  std::printf("durable root: %s (%s)\n", root.c_str(),
              FilesystemType(fs::path(ctx.args().work_dir)).c_str());
  engine::SessionOptions options = StripedOptions();
  options.wal_group_commit_votes = kGroupCommitVotes;
  options.wal_group_commit_ms = 0;
  options.checkpoint_every_votes = kCheckpointEveryVotes;

  RunRounds(ctx, m, [&](int round, bool traced) {
    const fs::path dir = root / ("r" + std::to_string(round + 1));
    fs::remove_all(dir);
    fs::create_directories(dir);
    options.durability_dir = (dir / "primary").string();

    // Set-up: engine, durable session, transport, replicator.
    uint64_t setup_start = NowNs();
    auto engine = std::make_unique<engine::DqmEngine>();
    Result<std::shared_ptr<engine::EstimationSession>> opened =
        engine->OpenSession(name, num_items, kStripedPanel, options);
    DQM_CHECK(opened.ok()) << opened.status().ToString();
    std::shared_ptr<engine::EstimationSession> session = std::move(*opened);
    Result<std::unique_ptr<engine::LocalDirTransport>> local =
        engine::LocalDirTransport::Open((dir / "ship").string());
    DQM_CHECK(local.ok()) << local.status().ToString();
    auto transport = std::make_shared<TimingTransport>(
        std::shared_ptr<engine::ReplicationTransport>(std::move(*local)),
        ctx.spans());
    Result<std::unique_ptr<engine::SessionReplicator>> started =
        engine::SessionReplicator::Start(session, transport);
    DQM_CHECK(started.ok()) << started.status().ToString();
    std::unique_ptr<engine::SessionReplicator> replicator = std::move(*started);
    uint64_t setup_ns = NowNs() - setup_start;
    DQM_CHECK(session->concurrent_ingest()) << "durable panel must stripe";

    // Ingest: one closed-loop producer; a reader polls the held handle.
    const TimingTransport::Stats ship_before = transport->stats();
    const TelemetryReading before = TelemetryReading::Now();
    engine::Snapshot handle_scratch;
    engine::Snapshot name_scratch;
    Reader reader(
        ctx,
        [&](size_t) { session->SnapshotInto(handle_scratch); return true; },
        [&](size_t) { return engine->QueryInto(name, name_scratch).ok(); });
    std::vector<double> commit_ns;
    commit_ns.reserve(stream.num_batches());
    const uint64_t ingest_start = NowNs();
    for (size_t b = 0; b < stream.num_batches(); ++b) {
      TimedAddVotes(ctx, *session, stream.batch(b), b, commit_ns);
    }
    const uint64_t ingest_ns = NowNs() - ingest_start;
    reader.Stop();
    const TelemetryReading after = TelemetryReading::Now();
    const TimingTransport::Stats ship = transport->stats() - ship_before;
    const double votes_per_s = total_votes / Seconds(ingest_ns);
    m.votes_per_s.push_back(votes_per_s);
    (traced ? m.traced_votes_per_s : m.untraced_votes_per_s).push_back(votes_per_s);
    AddRoundSamples(m, commit_ns, reader, /*by_name_primary=*/false);

    // Bytes written per committed vote: WAL records, the local checkpoint
    // files (shipped verbatim, so equal to the checkpoint artifact bytes),
    // and every shipped artifact.
    TelemetryReading window;
    window.AddDelta(before, after);
    m.write_bytes_per_vote =
        static_cast<double>(window.Counter(names::kWalBytesWrittenTotal) +
                            ship.checkpoint_bytes + ship.put_bytes) /
        static_cast<double>(total_votes);

    session->Publish();
    const engine::Snapshot live = session->snapshot();
    ctx.Check(live.num_votes == total_votes,
              "durable_ingest: final num_votes != votes committed");
    m.estimate_rel_err =
        std::abs(live.estimated_total_errors - stream.true_dirty()) /
        stream.true_dirty();
    m.retained_mib = static_cast<double>(session->RetainedBytes()) / (1 << 20);
    const engine::ReplicationStats shipped = replicator->stats();
    ctx.Check(shipped.ship_errors == 0 && ship.errors == 0,
              "durable_ingest: ship errors");
    ctx.Check(shipped.shipped_votes + kGroupCommitVotes > total_votes &&
                  shipped.shipped_votes <= total_votes,
              "durable_ingest: shipped prefix does not cover the acked votes");

    // The primary stops: no more shipping, then its engine closes (which
    // flushes the WAL tail locally).
    replicator->Stop();
    replicator.reset();
    session.reset();
    engine.reset();

    // Recovery of the closed primary directory.
    const TelemetryReading recovery_before = TelemetryReading::Now();
    uint64_t recover_ns = 0;
    {
      engine::DqmEngine recovered;
      SpanRecorder::Scope scope(ctx.spans(), "recovery");
      const uint64_t start = NowNs();
      Result<std::vector<engine::DqmEngine::RecoveredSession>> report =
          recovered.RecoverSessions(options.durability_dir);
      recover_ns = NowNs() - start;
      if (ctx.Op(report.status(), "RecoverSessions")) {
        ctx.Check(report->size() == 1 && (*report)[0].votes_restored == total_votes,
                  "durable_ingest: recovery restored the wrong vote count");
        Result<engine::Snapshot> snap = recovered.Query(name);
        ctx.Check(snap.ok() && SameEstimates(*snap, live),
                  "durable_ingest: recovered snapshot != live snapshot");
      }
    }
    const TelemetryReading recovery_after = TelemetryReading::Now();
    m.recover_s.push_back(Seconds(recover_ns));

    // Failover: standby Open, Poll to the shipped durable prefix, Promote.
    uint64_t open_ns = 0, poll_ns = 0, promote_ns = 0;
    uint64_t divergences = 0;
    const uint64_t applied_before =
        TelemetryReading::Now().Counter(names::kReplicaSegmentsAppliedTotal);
    {
      engine::DqmEngine standby_engine;
      uint64_t t = NowNs();
      std::unique_ptr<engine::StandbyApplier> standby;
      {
        SpanRecorder::Scope scope(ctx.spans(), "standby.open");
        Result<std::unique_ptr<engine::StandbyApplier>> opened_standby =
            engine::StandbyApplier::Open(standby_engine, transport);
        DQM_CHECK(opened_standby.ok()) << opened_standby.status().ToString();
        standby = std::move(*opened_standby);
      }
      open_ns = NowNs() - t;
      t = NowNs();
      {
        SpanRecorder::Scope scope(ctx.spans(), "standby.poll");
        ctx.Op(standby->Poll(), "StandbyApplier::Poll");
      }
      poll_ns = NowNs() - t;
      t = NowNs();
      Result<engine::StandbyApplier::PromotionReport> promoted = [&] {
        SpanRecorder::Scope scope(ctx.spans(), "standby.promote");
        return standby->Promote();
      }();
      promote_ns = NowNs() - t;
      if (ctx.Op(promoted.status(), "StandbyApplier::Promote")) {
        ctx.Check(promoted->applied_votes == shipped.shipped_votes,
                  "durable_ingest: promoted standby != acked durable prefix");
        ctx.Check(standby->session()->committed_votes() == shipped.shipped_votes,
                  "durable_ingest: promoted session vote count");
      }
      divergences = standby->divergences();
      ctx.Check(divergences == 0, "durable_ingest: standby divergences");
    }
    const uint64_t applied_segments =
        TelemetryReading::Now().Counter(names::kReplicaSegmentsAppliedTotal) -
        applied_before;
    m.failover_s.push_back(Seconds(open_ns + poll_ns + promote_ns));
    setup_ns += open_ns;
    m.setup_s.push_back(Seconds(setup_ns));

    if (traced) {
      ++m.traced_rounds;
      m.layer.AddDelta(before, after);
      m.recovery.AddDelta(recovery_before, recovery_after);
      m.ship += ship;
      auto& s = m.layer_sums;
      s["standby.segments_applied"] += applied_segments;
      s["standby.divergences"] += divergences;
      // Checkpoint read and WAL scan, replayed on copies of the closed
      // primary's files.
      const fs::path session_dir =
          fs::path(options.durability_dir) / engine::PercentEncode(name);
      const fs::path copies = dir / "copies";
      fs::create_directories(copies);
      fs::copy_file(session_dir / "checkpoint.bin", copies / "checkpoint.bin");
      fs::copy_file(session_dir / "wal.log", copies / "wal.log");
      uint64_t t = NowNs();
      Result<crowd::CheckpointData> checkpoint =
          crowd::ReadCheckpointFile((copies / "checkpoint.bin").string());
      s["recovery.checkpoint_read_ns"] += NowNs() - t;
      ctx.Check(checkpoint.ok(), "durable_ingest: checkpoint copy unreadable");
      const std::vector<uint8_t> wal = ReadWholeFile(copies / "wal.log");
      std::vector<VoteEvent> scratch;
      uint64_t scanned = 0;
      t = NowNs();
      Result<crowd::WalScanResult> scan = crowd::ScanWalRecords(
          std::span<const uint8_t>(wal).subspan(
              std::min(wal.size(), crowd::kWalHeaderBytes)),
          num_items,
          [&](std::span<const VoteEvent> votes) {
            scanned += votes.size();
            return Status::OK();
          },
          scratch);
      s["recovery.wal_scan_ns"] += NowNs() - t;
      ctx.Check(scan.ok() && !scan->torn &&
                    checkpoint.ok() &&
                    checkpoint->num_events + scanned == total_votes,
                "durable_ingest: checkpoint + WAL copies != votes committed");
    }
    fs::remove_all(dir);
  });
}

// --- hot_stream ------------------------------------------------------------
// Two producers stream one large in-memory striped session while a reader
// polls its snapshot; no WAL.

void RunHotStream(RunContext& ctx, Measurements& m, const Stream& stream) {
  const std::string name = "hot";
  const size_t num_items = stream.generated.log.num_items();
  const uint64_t total_votes = stream.votes().size();
  const engine::SessionOptions options = StripedOptions();

  // Reference: the same stream fed serially (one producer, ingest_stripes
  // = 1), computed once and untimed.
  engine::Snapshot reference;
  {
    engine::DqmEngine engine;
    engine::SessionOptions serial = options;
    serial.ingest_stripes = 1;
    std::shared_ptr<engine::EstimationSession> session =
        engine.OpenSession("reference", num_items, kStripedPanel, serial).value();
    for (size_t b = 0; b < stream.num_batches(); ++b) {
      DQM_CHECK(session->AddVotes(stream.batch(b)).ok());
    }
    session->Publish();
    reference = session->snapshot();
  }

  RunRounds(ctx, m, [&](int, bool traced) {
    const uint64_t setup_start = NowNs();
    engine::DqmEngine engine;
    std::shared_ptr<engine::EstimationSession> session =
        engine.OpenSession(name, num_items, kStripedPanel, options).value();
    m.setup_s.push_back(Seconds(NowNs() - setup_start));
    DQM_CHECK(session->concurrent_ingest()) << "hot_stream panel must stripe";

    std::vector<std::vector<double>> commit_ns(kHotProducers);
    std::vector<double> rates(kHotProducers);
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kHotProducers; ++p) {
      commit_ns[p].reserve(stream.num_batches() / kHotProducers + 1);
      producers.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const uint64_t start = NowNs();
        uint64_t votes = 0;
        for (size_t b = p; b < stream.num_batches(); b += kHotProducers) {
          TimedAddVotes(ctx, *session, stream.batch(b), b, commit_ns[p]);
          votes += stream.batch(b).size();
        }
        rates[p] = votes / Seconds(NowNs() - start);
      });
    }
    const TelemetryReading before = TelemetryReading::Now();
    engine::Snapshot handle_scratch;
    engine::Snapshot name_scratch;
    Reader reader(
        ctx,
        [&](size_t) { session->SnapshotInto(handle_scratch); return true; },
        [&](size_t) { return engine.QueryInto(name, name_scratch).ok(); });
    go.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();
    reader.Stop();
    const TelemetryReading after = TelemetryReading::Now();

    const double votes_per_s = std::accumulate(rates.begin(), rates.end(), 0.0);
    m.votes_per_s.push_back(votes_per_s);
    (traced ? m.traced_votes_per_s : m.untraced_votes_per_s).push_back(votes_per_s);
    std::vector<double> all_commit_ns;
    for (const auto& per_producer : commit_ns) {
      all_commit_ns.insert(all_commit_ns.end(), per_producer.begin(),
                           per_producer.end());
    }
    AddRoundSamples(m, all_commit_ns, reader, /*by_name_primary=*/false);

    session->Publish();
    const engine::Snapshot final_snapshot = session->snapshot();
    ctx.Check(final_snapshot.num_votes == total_votes,
              "hot_stream: final num_votes != votes committed");
    ctx.Check(SameEstimates(final_snapshot, reference),
              "hot_stream: striped tallies/estimates != serialized reference");
    m.estimate_rel_err =
        std::abs(final_snapshot.estimated_total_errors - stream.true_dirty()) /
        stream.true_dirty();
    m.retained_mib = static_cast<double>(session->RetainedBytes()) / (1 << 20);
    if (traced) {
      ++m.traced_rounds;
      m.layer.AddDelta(before, after);
    }
  });
}

// --- estimate_serving ------------------------------------------------------
// 64 small serialized sessions (SWITCH in the panel), every-batch publish;
// two clients each own 32 sessions and query after every batch, and a
// reader polls by name. EM-VOTING is not in the panel: warm-started EM on
// the every-batch serving path settles on the label-flipped solution in
// about 1 of 1000 sessions (e.g. 904 vs 96 dirty of 1000), which the
// standalone-replay check rejects, so the workload would fail runs at
// random; cold EM (warm=0) is correct but its data-dependent sweep count
// made the latency figures unsteady across seeds.

void RunEstimateServing(RunContext& ctx, Measurements& m,
                        const std::vector<Stream>& streams) {
  const size_t num_items = streams.front().generated.log.num_items();
  std::vector<std::string> session_names;
  for (size_t i = 0; i < streams.size(); ++i) {
    session_names.push_back("dataset-" + std::to_string(i));
  }

  // Reference: a standalone DataQualityMetric replay of every stream,
  // computed once and untimed.
  std::vector<core::DataQualityMetric::QualityReport> reference;
  for (const Stream& s : streams) {
    core::DataQualityMetric metric =
        core::DataQualityMetric::Create(num_items, kServingPanel).value();
    for (const VoteEvent& v : s.votes()) {
      metric.AddVote(v.task, v.worker, v.item, v.vote == crowd::Vote::kDirty);
    }
    reference.push_back(metric.Report());
  }

  RunRounds(ctx, m, [&](int round, bool traced) {
    const uint64_t setup_start = NowNs();
    engine::DqmEngine engine;
    std::vector<std::shared_ptr<engine::EstimationSession>> sessions;
    for (const std::string& name : session_names) {
      sessions.push_back(engine.OpenSession(name, num_items, kServingPanel).value());
    }
    m.setup_s.push_back(Seconds(NowNs() - setup_start));
    DQM_CHECK(!sessions.front()->concurrent_ingest())
        << "SWITCH panels take the serialized path";

    std::vector<std::vector<double>> commit_ns(kServingClients);
    std::vector<double> rates(kServingClients);
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    const size_t per_client = streams.size() / kServingClients;
    for (size_t c = 0; c < kServingClients; ++c) {
      clients.emplace_back([&, c] {
        engine::Snapshot scratch;
        std::vector<size_t> next(per_client, 0);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const uint64_t start = NowNs();
        uint64_t votes = 0;
        // Round-robin over the client's sessions, one batch each, until
        // every stream is drained; each batch is followed by a query.
        for (bool active = true; active;) {
          active = false;
          for (size_t k = 0; k < per_client; ++k) {
            const size_t i = c * per_client + k;
            if (next[k] == streams[i].num_batches()) continue;
            active = true;
            const size_t b = next[k]++;
            TimedAddVotes(ctx, *sessions[i], streams[i].batch(b),
                          (uint64_t{i} << 32) | b, commit_ns[c]);
            votes += streams[i].batch(b).size();
            SpanRecorder::Scope scope(ctx.spans(), "registry.query", b);
            ctx.Op(engine.QueryInto(session_names[i], scratch), "QueryInto");
          }
        }
        rates[c] = votes / Seconds(NowNs() - start);
      });
    }
    const TelemetryReading before = TelemetryReading::Now();
    engine::Snapshot name_scratch;
    engine::Snapshot handle_scratch;
    Reader reader(
        ctx,
        [&](size_t k) {
          return engine.QueryInto(session_names[k % session_names.size()],
                                  name_scratch).ok();
        },
        [&](size_t k) {
          sessions[k % sessions.size()]->SnapshotInto(handle_scratch);
          return true;
        });
    go.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    reader.Stop();
    const TelemetryReading after = TelemetryReading::Now();

    const double votes_per_s = std::accumulate(rates.begin(), rates.end(), 0.0);
    m.votes_per_s.push_back(votes_per_s);
    (traced ? m.traced_votes_per_s : m.untraced_votes_per_s).push_back(votes_per_s);
    std::vector<double> all_commit_ns;
    for (const auto& per_client_ns : commit_ns) {
      all_commit_ns.insert(all_commit_ns.end(), per_client_ns.begin(),
                           per_client_ns.end());
    }
    AddRoundSamples(m, all_commit_ns, reader, /*by_name_primary=*/true);

    double rel_err_sum = 0.0;
    size_t retained = 0;
    for (size_t i = 0; i < sessions.size(); ++i) {
      const engine::Snapshot snap = sessions[i]->snapshot();
      const core::DataQualityMetric::QualityReport& ref = reference[i];
      const std::string who = "estimate_serving " + session_names[i] +
                              " round " + std::to_string(round) + ": ";
      ctx.Check(snap.num_votes == streams[i].votes().size(),
                who + "final num_votes != votes committed");
      ctx.Check(snap.num_votes == ref.num_votes &&
                    snap.majority_count == ref.majority_count &&
                    snap.nominal_count == ref.nominal_count &&
                    snap.estimates.size() == ref.estimators.size(),
                who + "counts differ from the standalone replay");
      for (size_t e = 0; e < ref.estimators.size() && e < snap.estimates.size();
           ++e) {
        const double got = snap.estimates[e].total_errors;
        const double want = ref.estimators[e].total_errors;
        ctx.Check(got == want, who + ref.estimators[e].name + " estimate " +
                                   std::to_string(got) + " != standalone " +
                                   std::to_string(want));
      }
      rel_err_sum += std::abs(snap.estimated_total_errors - streams[i].true_dirty()) /
                     streams[i].true_dirty();
      retained += sessions[i]->RetainedBytes();
    }
    m.estimate_rel_err = rel_err_sum / static_cast<double>(sessions.size());
    m.retained_mib = static_cast<double>(retained) / (1 << 20);
    if (traced) {
      ++m.traced_rounds;
      m.layer.AddDelta(before, after);
    }
  });
}

// --- WAL encode / CRC replay ----------------------------------------------

/// Times VoteWal::Append (record encode + CRC into the user-space buffer)
/// and Crc32 alone over the same record payload, on the workload's own
/// batches. The buffer is drained untimed every kGroupCommitVotes votes, as
/// a durable session's group commit drains it.
struct WalReplay {
  double append_ns = 0.0;
  double crc_ns = 0.0;
  uint64_t votes = 0;
};

WalReplay ReplayWal(RunContext& ctx, const std::vector<Stream>& streams) {
  WalReplay out;
  const fs::path path = fs::path(ctx.args().work_dir) / "replay.wal";
  fs::remove(path);
  Result<crowd::VoteWal> opened = crowd::VoteWal::Open(path.string());
  DQM_CHECK(opened.ok()) << opened.status().ToString();
  crowd::VoteWal wal = std::move(*opened);
  std::vector<uint8_t> payload;
  uint64_t since_write = 0;
  uint64_t since_reset = 0;
  auto put_u32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  for (const Stream& stream : streams) {
    for (size_t b = 0; b < stream.num_batches(); ++b) {
      std::span<const VoteEvent> batch = stream.batch(b);
      uint64_t t = NowNs();
      wal.Append(batch);
      out.append_ns += static_cast<double>(NowNs() - t);
      payload.clear();  // the WAL record payload layout (crowd/wal.h)
      put_u32(static_cast<uint32_t>(batch.size()));
      for (const VoteEvent& v : batch) {
        put_u32(v.task);
        put_u32(v.worker);
        put_u32(v.item);
        payload.push_back(static_cast<uint8_t>(v.vote));
      }
      t = NowNs();
      crowd::Crc32(payload.data(), payload.size());
      out.crc_ns += static_cast<double>(NowNs() - t);
      out.votes += batch.size();
      since_write += batch.size();
      since_reset += batch.size();
      if (since_write >= kGroupCommitVotes) {
        ctx.Check(wal.WriteBuffered().ok(), "WAL replay: write");
        since_write = 0;
      }
      if (since_reset >= kCheckpointEveryVotes) {  // bound the file size
        ctx.Check(wal.Reset(wal.generation() + 1).ok(), "WAL replay: reset");
        since_reset = 0;
      }
    }
  }
  fs::remove(path);
  return out;
}

// --- Reporting -------------------------------------------------------------

Metrics EndToEnd(const Measurements& m) {
  Metrics out;
  out["setup_s"] = {Median(m.setup_s), "s"};
  out["ingest_votes_per_s"] = {Median(m.votes_per_s), "1/s"};
  out["commit_p50_ms"] = {Median(m.commit_p50_ns) * 1e-6, "ms"};
  out["commit_p99_ms"] = {Median(m.commit_p99_ns) * 1e-6, "ms"};
  out["query_ns_p50"] = {Percentile(m.query_ns, 0.50), "ns"};
  out["query_ns_p99"] = {Percentile(m.query_ns, 0.99), "ns"};
  out["retained_mib"] = {m.retained_mib, "MiB"};
  out["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  out["estimate_rel_err"] = {m.estimate_rel_err, "ratio"};
  return out;
}

Metrics PerLayer(RunContext& ctx, const Measurements& m, bool durable,
                 const std::vector<Stream>& streams) {
  Metrics out;
  const double rounds = std::max(m.traced_rounds, 1);
  const TelemetryReading& t = m.layer;
  auto per_round = [&](double total) { return total / rounds; };
  auto counter = [&](const char* name) {
    return per_round(static_cast<double>(t.Counter(name)));
  };
  auto hist_sum = [&](const char* name) { return per_round(t.HistogramSum(name)); };

  const std::map<std::string, SpanTotals> spans = ctx.spans().Totals();
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals add = span("session.add_votes");
  const double busy = per_round(static_cast<double>(add.busy_ns));

  // session / stripes / reconcile / estimators.
  out["session.add_votes.count"] = {per_round(static_cast<double>(add.count)), "count"};
  out["session.add_votes.busy_ns"] = {busy, "ns"};
  const double acquisitions = counter(names::kStripeLockAcquisitionsTotal);
  const double contended = counter(names::kStripeLockContendedTotal);
  out["stripes.acquisitions"] = {acquisitions, "count"};
  out["stripes.contended"] = {contended, "count"};
  out["stripes.contended_ratio"] = {acquisitions > 0 ? contended / acquisitions : 0.0,
                                    "ratio"};
  out["stripes.wait_ns"] = {counter(names::kStripeLockWaitNsTotal), "ns"};
  out["reconcile.count"] = {
      per_round(static_cast<double>(t.Histogram(names::kPublishFoldNs).count)), "count"};
  out["reconcile.pause_ns"] = {hist_sum(names::kPublishPauseNs), "ns"};
  out["reconcile.fold_ns"] = {hist_sum(names::kPublishFoldNs), "ns"};
  out["estimators.publishes"] = {counter(names::kPublishesTotal), "count"};
  out["estimators.estimate_ns"] = {hist_sum(names::kPublishEstimateNs), "ns"};
  out["estimators.em_fits"] = {counter(names::kEmFitsTotal), "count"};
  out["estimators.em_sweeps"] = {counter(names::kEmSweepsTotal), "count"};

  // snapshot / registry: per-read medians of the reader's timed blocks.
  const double handle_read = Median(m.handle_read_ns);
  const double by_name = Median(m.by_name_read_ns);
  out["snapshot.read_ns"] = {handle_read, "ns"};
  out["snapshot.read_retries"] = {counter(names::kSeqlockReadRetriesTotal), "count"};
  out["registry.query_ns"] = {by_name, "ns"};
  out["registry.lookup_ns"] = {by_name - handle_read, "ns"};

  // WAL: counters from the session, encode/CRC replayed on the workload's
  // own batches (every workload, so a WAL change reads as no change where
  // no WAL runs).
  const WalReplay replay = ReplayWal(ctx, streams);
  const double replay_votes = std::max<double>(replay.votes, 1.0);
  const double encode_per_vote = (replay.append_ns - replay.crc_ns) / replay_votes;
  const double crc_per_vote = replay.crc_ns / replay_votes;
  out["wal.appends"] = {counter(names::kWalAppendsTotal), "count"};
  out["wal.bytes_written"] = {counter(names::kWalBytesWrittenTotal), "bytes"};
  out["wal.encode_ns_per_vote"] = {encode_per_vote, "ns"};
  out["wal.crc_ns_per_vote"] = {crc_per_vote, "ns"};
  const double wal_votes = counter(names::kWalVotesTotal);

  // I/O, checkpoints, shipping.
  out["io.fsyncs"] = {counter(names::kWalFsyncsTotal), "count"};
  out["io.fsync_ns"] = {hist_sum(names::kWalFsyncNs), "ns"};
  out["io.fsync_p99_ns"] = {t.Histogram(names::kWalFsyncNs).Quantile(0.99), "ns"};
  out["io.retries"] = {counter(names::kWalRetriesTotal), "count"};
  out["checkpoint.count"] = {counter(names::kCheckpointsTotal), "count"};
  out["checkpoint.write_ns"] = {hist_sum(names::kCheckpointWriteNs), "ns"};
  out["checkpoint.bytes"] = {per_round(static_cast<double>(m.ship.checkpoint_bytes)),
                             "bytes"};
  out["ship.puts"] = {per_round(static_cast<double>(m.ship.puts)), "count"};
  out["ship.put_ns"] = {per_round(static_cast<double>(m.ship.put_ns)), "ns"};
  out["ship.put_bytes"] = {per_round(static_cast<double>(m.ship.put_bytes)), "bytes"};
  out["ship.errors"] = {per_round(static_cast<double>(m.ship.errors)) +
                            counter(names::kReplicaShipErrorsTotal),
                        "count"};

  // Standby and recovery (durable_ingest only).
  auto sum = [&](const char* name) {
    auto it = m.layer_sums.find(name);
    return per_round(it == m.layer_sums.end() ? 0.0 : it->second);
  };
  auto span_ns = [&](const char* name) {
    return per_round(static_cast<double>(span(name).busy_ns));
  };
  out["standby.open_ns"] = {span_ns("standby.open"), "ns"};
  out["standby.poll_ns"] = {span_ns("standby.poll"), "ns"};
  out["standby.promote_ns"] = {span_ns("standby.promote"), "ns"};
  out["recovery.ns"] = {span_ns("recovery"), "ns"};
  out["recovery.checkpoint_read_ns"] = {sum("recovery.checkpoint_read_ns"), "ns"};
  out["recovery.wal_scan_ns"] = {sum("recovery.wal_scan_ns"), "ns"};
  out["standby.segments_applied"] = {sum("standby.segments_applied"), "count"};
  out["standby.divergences"] = {sum("standby.divergences"), "count"};
  out["recovery.replayed_votes"] = {
      per_round(static_cast<double>(m.recovery.Counter(names::kWalReplayedVotesTotal))),
      "count"};
  out["recover_s"] = {durable ? Median(m.recover_s) : 0.0, "s"};
  out["failover_s"] = {durable ? Median(m.failover_s) : 0.0, "s"};
  out["write_bytes_per_vote"] = {durable ? m.write_bytes_per_vote : 0.0, "bytes"};

  // Each layer's share of AddVotes busy time. The ship Put spans are
  // children of the AddVotes span (span self time already excludes them);
  // the other layers run inside the library and are attributed from the
  // dqm_* counters and histograms of the same window (histogram sums are
  // bucket-midpoint estimates) and, for the WAL encode/CRC, from the
  // replay's per-vote cost times the votes logged. A checkpoint's time
  // includes shipping the checkpoint artifact, which share.ship counts.
  const double ship_ns = per_round(static_cast<double>(m.ship.put_ns));
  const std::map<std::string, double> library_ns = {
      {"share.wal", (encode_per_vote + crc_per_vote) * wal_votes},
      {"share.io", hist_sum(names::kWalFsyncNs)},
      {"share.checkpoint",
       std::max(0.0, hist_sum(names::kCheckpointWriteNs) -
                         per_round(static_cast<double>(m.ship.checkpoint_ns)))},
      {"share.stripes", counter(names::kStripeLockWaitNsTotal)},
      {"share.reconcile",
       hist_sum(names::kPublishPauseNs) + hist_sum(names::kPublishFoldNs)},
      {"share.estimators", hist_sum(names::kPublishEstimateNs)},
  };
  auto share = [&](double ns) { return busy > 0 ? ns / busy : 0.0; };
  out["share.ship"] = {share(ship_ns), "ratio"};
  double self_ns = per_round(static_cast<double>(add.self_ns));
  for (const auto& [name, ns] : library_ns) {
    out[name] = {share(ns), "ratio"};
    self_ns -= ns;
  }
  self_ns = std::max(0.0, self_ns);
  out["session.add_votes.self_ns"] = {self_ns, "ns"};
  out["share.self"] = {share(self_ns), "ratio"};

  out["trace.overhead_ratio"] = {
      Median(m.untraced_votes_per_s) > 0
          ? Median(m.traced_votes_per_s) / Median(m.untraced_votes_per_s)
          : 0.0,
      "ratio"};
  return out;
}

void PrintResult(const RunContext& ctx, const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += ctx.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ctx.attempted());
  json += ", \"failed\": " + std::to_string(ctx.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintTable(const Metrics& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return argv[i] + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--workload")) {
      args.workload = v;
    } else if (const char* v = value("--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      args.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace")) {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (const char* v = value("--work_dir")) {
      args.work_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return args.workload == "durable_ingest" || args.workload == "hot_stream" ||
         args.workload == "estimate_serving";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dqm_perfbench --workload=durable_ingest|hot_stream|"
                 "estimate_serving --seed=N --seconds=S --trace=0|1 "
                 "--work_dir=DIR\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  fs::create_directories(args.work_dir);
  RunContext ctx(args);
  Measurements m;

  // Inputs first, outside every timed window.
  std::vector<Stream> streams;
  const bool durable = args.workload == "durable_ingest";
  const char* spec = durable                          ? kDurableSpec
                     : args.workload == "hot_stream" ? kHotSpec
                                                     : kServingSpec;
  std::printf("spec: %s\n", spec);
  if (args.workload == "estimate_serving") {
    for (size_t i = 0; i < kServingSessions; ++i) {
      streams.push_back(MakeStream(spec, args.seed * kServingSessions + i));
    }
  } else {
    streams.push_back(MakeStream(spec, args.seed));
  }
  uint64_t stream_votes = 0;
  size_t stream_batches = 0;
  for (const Stream& s : streams) {
    stream_votes += s.votes().size();
    stream_batches += s.num_batches();
  }
  std::printf("workload %s seed %llu: %zu stream(s), %llu votes, %zu batches "
              "per round\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              streams.size(), static_cast<unsigned long long>(stream_votes),
              stream_batches);

  if (durable) {
    RunDurableIngest(ctx, m, streams.front());
  } else if (args.workload == "hot_stream") {
    RunHotStream(ctx, m, streams.front());
  } else {
    RunEstimateServing(ctx, m, streams);
  }
  std::printf("rounds %zu, commit samples %zu, query blocks %zu of %zu reads\n",
              m.votes_per_s.size(), m.commit_samples, m.query_ns.size(),
              kReadBlock);
  for (size_t r = 0; r < m.votes_per_s.size(); ++r) {
    std::printf("  round %zu: %.6g votes/s, set-up %.6g s\n", r,
                m.votes_per_s[r], m.setup_s[r]);
  }

  Metrics metrics;
  if (args.trace) {
    metrics = PerLayer(ctx, m, durable, streams);
    const fs::path spans_path =
        fs::path(args.work_dir) / ("spans-" + args.workload + ".tsv");
    ctx.Check(ctx.spans().WriteTsv(spans_path.string()),
              "cannot write " + spans_path.string());
    std::printf("spans written to %s\n", spans_path.c_str());
  } else {
    metrics = EndToEnd(m);
    if (durable) {
      Metrics extra;
      extra["recover_s"] = {Median(m.recover_s), "s"};
      extra["failover_s"] = {Median(m.failover_s), "s"};
      extra["write_bytes_per_vote"] = {m.write_bytes_per_vote, "bytes"};
      std::printf("durable-only (also in the traced run):\n");
      PrintTable(extra);
    }
  }
  PrintTable(metrics);
  PrintResult(ctx, metrics);
  return ctx.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dqm::perfbench

int main(int argc, char** argv) { return dqm::perfbench::Main(argc, argv); }
