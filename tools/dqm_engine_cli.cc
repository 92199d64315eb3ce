// dqm_engine_cli — stream vote CSVs into a concurrent DqmEngine and print a
// per-dataset quality report.
//
//   $ ./dqm_engine_cli [flags] votes_a.csv votes_b.csv ...
//
// Each positional file is one dataset (session named after the file): the
// ResponseLogIo CSV format, `task,worker,item,vote` with `vote` in
// {dirty,clean,1,0}. Files are ingested concurrently — one worker per file up
// to --threads — in --batch sized batches, the way a live deployment would
// feed the engine, then the final snapshots are printed as a table.
//
// With no positional arguments the tool runs a self-contained demo: it
// simulates --demo_datasets crowdsourced cleaning jobs with different worker
// error regimes and serves them all from one engine.
//
// --workload=drift?walk=0.02,adversarial?fraction=0.25 replaces the demo
// with generated hostile/drifting crowd workloads (one session per spec,
// names from the workload registry); each is ingested in the batch pattern
// its arrival process produced, so bursty workloads hit the engine the way
// a live burst would.
//
// --durability_dir=/var/lib/dqm makes every session durable: votes are
// write-ahead logged (group commit tuned by --wal_group_commit) and
// checkpointed every --checkpoint_every votes under <dir>/<session>.
// --recover rebuilds all sessions found under that root (manifest +
// checkpoint + WAL tail) and prints the report instead of ingesting.
// --failpoints=dqm.cli.after_ingest=crash exits 77 right after ingest,
// skipping every destructor and flush — the crash half of the CI
// crash/recover smoke.
//
// --replicate_to=/mnt/standby ships every durable session's checkpoints and
// sealed WAL segments to a per-session transport directory while ingest
// runs (requires --durability_dir). On another host / in another process,
// --standby=/mnt/standby replays everything shipped into warm sessions and
// prints a standby report; add --promote to fence off the old primary and
// serve — the failover half of the replication drill.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/ascii.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/io.h"
#include "crowd/log_io.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "estimators/registry.h"
#include "telemetry/export.h"
#include "telemetry/failpoints.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace {

/// Disambiguates `base` against `used` with a numeric suffix ("drift",
/// "drift-2", ...), recording the winner.
std::string UniqueSessionName(const std::string& base,
                              std::set<std::string>& used) {
  std::string name = base;
  for (int suffix = 2; !used.insert(name).second; ++suffix) {
    name = dqm::StrFormat("%s-%d", base.c_str(), suffix);
  }
  return name;
}

/// Session name from a CSV path's basename; `used` disambiguates duplicate
/// basenames (run1/votes.csv + run2/votes.csv) with a numeric suffix.
std::string SessionNameForPath(const std::string& path,
                               std::set<std::string>& used) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  if (base.empty()) base = "dataset";
  return UniqueSessionName(base, used);
}

/// Streams `events` into `engine`'s session `name` from `ingest_threads`
/// concurrent producers — the multi-producer serving pattern the engine's
/// striped commit path exists for. `batches` is the ingest partition (a
/// workload's arrival pattern); when empty, fixed `batch` sized chunks are
/// used instead. With one thread, batches are committed in order; with
/// several, each producer pulls the next batch off a shared cursor, so the
/// commit interleaving is whatever the scheduler produces (exactly what a
/// live multi-writer deployment looks like).
dqm::Status StreamVotes(dqm::engine::DqmEngine& engine, const std::string& name,
                        const std::vector<dqm::crowd::VoteEvent>& events,
                        const std::vector<size_t>& batches, size_t batch,
                        size_t ingest_threads) {
  // Materialize the batch list: [begin, size) chunks of the event stream.
  std::vector<std::pair<size_t, size_t>> chunks;
  if (batches.empty()) {
    for (size_t begin = 0; begin < events.size(); begin += batch) {
      chunks.emplace_back(begin, std::min(batch, events.size() - begin));
    }
  } else {
    // The registry is open to user workloads, so don't trust the partition:
    // an over-partitioned batch list must fail loudly, not read past the
    // log.
    size_t total = 0;
    for (size_t size : batches) total += size;
    if (total != events.size()) {
      return dqm::Status::InvalidArgument(dqm::StrFormat(
          "%s: batch partition covers %zu votes but the log has %zu",
          name.c_str(), total, events.size()));
    }
    size_t begin = 0;
    for (size_t size : batches) {
      chunks.emplace_back(begin, size);
      begin += size;
    }
  }

  if (ingest_threads <= 1) {
    for (const auto& [begin, size] : chunks) {
      DQM_RETURN_NOT_OK(engine.Ingest(
          name, std::span<const dqm::crowd::VoteEvent>(&events[begin], size)));
    }
    return dqm::Status::OK();
  }

  std::atomic<size_t> cursor{0};
  std::vector<dqm::Status> outcomes(ingest_threads);
  std::vector<std::thread> producers;
  producers.reserve(ingest_threads);
  for (size_t t = 0; t < ingest_threads; ++t) {
    producers.emplace_back([&, t] {
      for (;;) {
        size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
        if (index >= chunks.size()) return;
        const auto& [begin, size] = chunks[index];
        dqm::Status status = engine.Ingest(
            name,
            std::span<const dqm::crowd::VoteEvent>(&events[begin], size));
        if (!status.ok()) {
          outcomes[t] = status;
          return;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const dqm::Status& status : outcomes) {
    if (!status.ok()) return status;
  }
  return dqm::Status::OK();
}

bool WriteTextFile(const std::string& path, const std::string& body) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

/// Refreshes the engine roll-up gauges and writes the current global metric
/// fold to the requested exposition files (either path may be empty).
void DumpMetrics(const dqm::engine::DqmEngine& engine,
                 const std::string& json_path, const std::string& prom_path) {
  engine.RefreshTelemetry();
  dqm::telemetry::SyncFailpointMetrics();
  const dqm::telemetry::MetricsRegistry& registry =
      dqm::telemetry::MetricsRegistry::Global();
  if (!json_path.empty()) {
    WriteTextFile(json_path, dqm::telemetry::RenderJson(registry));
  }
  if (!prom_path.empty()) {
    WriteTextFile(prom_path, dqm::telemetry::RenderPrometheus(registry));
  }
}

/// Background dumper for --metrics_every: rewrites the exposition files on a
/// fixed cadence while ingest runs, so an operator can watch commit latency
/// and stripe contention move mid-stream.
class PeriodicMetricsDumper {
 public:
  PeriodicMetricsDumper(const dqm::engine::DqmEngine& engine,
                        std::string json_path, std::string prom_path,
                        int64_t every_seconds)
      : engine_(engine),
        json_path_(std::move(json_path)),
        prom_path_(std::move(prom_path)) {
    if (every_seconds <= 0 || (json_path_.empty() && prom_path_.empty())) {
      return;
    }
    thread_ = std::thread([this, every_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::seconds(every_seconds),
                     [this] { return stop_; });
        if (stop_) return;
        lock.unlock();
        DumpMetrics(engine_, json_path_, prom_path_);
        lock.lock();
      }
    });
  }

  ~PeriodicMetricsDumper() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const dqm::engine::DqmEngine& engine_;
  std::string json_path_;
  std::string prom_path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::string FormatNanos(double nanos) {
  if (nanos >= 1e6) return dqm::StrFormat("%.3fms", nanos / 1e6);
  if (nanos >= 1e3) return dqm::StrFormat("%.3fus", nanos / 1e3);
  return dqm::StrFormat("%.0fns", nanos);
}

std::string LabelsSuffix(const dqm::telemetry::LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

/// Final telemetry summary: the latency histograms as a quantile table, the
/// engine-level counters, and each session's slowest recent publish / commit
/// from its flight recorder — the "what would I grep the metrics dump for"
/// digest, printed even when no --metrics_* file was requested.
void PrintTelemetrySummary(const dqm::engine::DqmEngine& engine) {
  engine.RefreshTelemetry();
  dqm::telemetry::SyncFailpointMetrics();
  dqm::telemetry::MetricsRegistry::Collection collection =
      dqm::telemetry::MetricsRegistry::Global().Collect();

  std::printf("\ntelemetry — latency histograms\n");
  dqm::AsciiTable histograms(
      {"histogram", "count", "p50", "p95", "p99", "max"});
  for (const auto& h : collection.histograms) {
    if (h.snapshot.count == 0) continue;
    bool nanos = h.name.size() > 3 &&
                 h.name.compare(h.name.size() - 3, 3, "_ns") == 0;
    auto cell = [&](double value) {
      return nanos ? FormatNanos(value) : dqm::StrFormat("%.0f", value);
    };
    histograms.AddRow({h.name + LabelsSuffix(h.labels),
                       dqm::StrFormat("%llu",
                                      static_cast<unsigned long long>(
                                          h.snapshot.count)),
                       cell(h.snapshot.Quantile(0.50)),
                       cell(h.snapshot.Quantile(0.95)),
                       cell(h.snapshot.Quantile(0.99)),
                       cell(static_cast<double>(h.snapshot.Max()))});
  }
  std::fputs(histograms.Render().c_str(), stdout);

  std::printf("telemetry — counters\n");
  dqm::AsciiTable counters({"counter", "value"});
  for (const auto& c : collection.counters) {
    counters.AddRow({c.name + LabelsSuffix(c.labels),
                     dqm::StrFormat("%llu",
                                    static_cast<unsigned long long>(c.value))});
  }
  std::fputs(counters.Render().c_str(), stdout);

  std::printf("telemetry — gauges\n");
  dqm::AsciiTable gauges({"gauge", "value"});
  for (const auto& g : collection.gauges) {
    gauges.AddRow(
        {g.name + LabelsSuffix(g.labels), dqm::StrFormat("%.6g", g.value)});
  }
  std::fputs(gauges.Render().c_str(), stdout);

  // Flight-recorder forensics: the slowest recent publish and commit per
  // session, with start offsets on the shared telemetry clock.
  std::printf("telemetry — slowest recent spans per session\n");
  dqm::AsciiTable spans({"session", "kind", "duration", "at", "value"});
  for (const std::string& name : engine.SessionNames()) {
    dqm::Result<std::shared_ptr<dqm::engine::EstimationSession>> session =
        engine.GetSession(name);
    if (!session.ok()) continue;
    const dqm::telemetry::Span* slowest_publish = nullptr;
    const dqm::telemetry::Span* slowest_commit = nullptr;
    std::vector<dqm::telemetry::Span> recent =
        (*session)->flight_recorder().Snapshot();
    for (const dqm::telemetry::Span& span : recent) {
      if (span.kind != dqm::telemetry::SpanKind::kCommit &&
          span.kind != dqm::telemetry::SpanKind::kPublish) {
        continue;
      }
      const dqm::telemetry::Span*& slot =
          span.kind == dqm::telemetry::SpanKind::kCommit ? slowest_commit
                                                         : slowest_publish;
      if (slot == nullptr || span.duration_nanos() > slot->duration_nanos()) {
        slot = &span;
      }
    }
    for (const dqm::telemetry::Span* span : {slowest_publish, slowest_commit}) {
      if (span == nullptr) continue;
      spans.AddRow(
          {name, dqm::telemetry::SpanKindName(span->kind),
           FormatNanos(static_cast<double>(span->duration_nanos())),
           dqm::StrFormat("+%.3fs",
                          static_cast<double>(span->start_nanos) / 1e9),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(span->value))});
    }
  }
  std::fputs(spans.Render().c_str(), stdout);
}

/// Prints every session's snapshot with one "est/q" column pair per
/// configured estimator (all sessions share the same --methods lineup).
void PrintReport(const dqm::engine::DqmEngine& engine) {
  std::vector<std::pair<std::string, dqm::engine::Snapshot>> snapshots =
      engine.QueryAll();
  std::vector<std::string> header = {"session", "ingest", "votes", "nominal",
                                     "majority"};
  if (!snapshots.empty()) {
    for (const dqm::engine::EstimatorEstimate& row :
         snapshots.front().second.estimates) {
      header.push_back(row.name);
      header.push_back(dqm::StrFormat("q(%s)", row.name.c_str()));
    }
  }
  dqm::AsciiTable table(header);
  for (const auto& [name, snapshot] : snapshots) {
    // Which commit path the session resolved to: striped multi-producer
    // ingest (order-independent panels) or the serialized fallback.
    dqm::Result<std::shared_ptr<dqm::engine::EstimationSession>> session =
        engine.GetSession(name);
    std::string ingest_mode =
        session.ok() && (*session)->concurrent_ingest() ? "striped" : "serial";
    std::vector<std::string> cells = {
        name,
        ingest_mode,
        dqm::StrFormat("%llu",
                       static_cast<unsigned long long>(snapshot.num_votes)),
        dqm::StrFormat("%zu", snapshot.nominal_count),
        dqm::StrFormat("%zu", snapshot.majority_count)};
    for (const dqm::engine::EstimatorEstimate& row : snapshot.estimates) {
      cells.push_back(dqm::StrFormat("%.1f", row.total_errors));
      cells.push_back(dqm::StrFormat("%.4f", row.quality_score));
    }
    table.AddRow(std::move(cells));
  }
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  dqm::FlagParser flags;
  int64_t* num_items =
      flags.AddInt("num_items", 1000, "item universe size N per dataset");
  std::string* methods = flags.AddString(
      "methods", "",
      "comma-separated estimator specs run per dataset in one pass, e.g. "
      "switch,chao92,vchao92?shift=2 (names from the estimator registry; "
      "default: switch)");
  std::string* workloads = flags.AddString(
      "workload", "",
      "comma-separated workload specs to generate and serve instead of the "
      "demo, e.g. drift?walk=0.02,adversarial?fraction=0.25 (families: " +
          dqm::Join(dqm::workload::WorkloadRegistry::Global().Names(), ", ") +
          "); incompatible with CSV files");
  int64_t* threads =
      flags.AddInt("threads", 4, "ingest worker threads (0 = hardware)");
  int64_t* ingest_threads = flags.AddInt(
      "ingest_threads", 1,
      "concurrent producer threads PER SESSION (order-independent estimator "
      "panels commit through the striped path; panels with switch fall back "
      "to serialized commits and an unspecified batch order)");
  std::string* publish_cadence = flags.AddString(
      "publish_cadence", "every_batch",
      "when sessions publish snapshots: every_batch | every_n_votes[:N] | "
      "manual (manual/every_n sessions are flushed once after ingest)");
  int64_t* batch = flags.AddInt("batch", 256, "votes per ingest batch");
  std::string* durability_dir = flags.AddString(
      "durability_dir", "",
      "root directory for durable sessions: every session write-ahead logs "
      "its votes and checkpoints under <dir>/<session-name>; pair with "
      "--recover to rebuild after a crash");
  std::string* wal_group_commit = flags.AddString(
      "wal_group_commit", "",
      "WAL group-commit spelling: \"N\" (fsync once N votes buffered) or "
      "\"Nms\" (fsync at most N ms after a vote was buffered); default 256");
  int64_t* checkpoint_every = flags.AddInt(
      "checkpoint_every", 0,
      "checkpoint the compacted session state every N committed votes, "
      "truncating the WAL (0 = WAL-only durability)");
  bool* recover = flags.AddBool(
      "recover", false,
      "instead of ingesting, rebuild every session found under "
      "--durability_dir (manifest + checkpoint + WAL tail) and print the "
      "report");
  bool* recover_keep_going = flags.AddBool(
      "recover_keep_going", false,
      "with --recover: a broken session directory no longer aborts the "
      "scan — print recovered / skipped / failed per directory and exit "
      "non-zero only if any session actually failed");
  std::string* replicate_to = flags.AddString(
      "replicate_to", "",
      "hot-standby shipping root (requires --durability_dir): every durable "
      "session streams its checkpoints and fsync-acknowledged WAL segments "
      "into <dir>/<session-name>/ while ingest runs, ready for --standby on "
      "the other side");
  std::string* standby = flags.AddString(
      "standby", "",
      "standby mode: replay every session transport found under this "
      "--replicate_to root into warm sessions and print the standby report "
      "(pair with --durability_dir to make the standby itself durable); "
      "add --promote to take over");
  bool* promote = flags.AddBool(
      "promote", false,
      "with --standby: after the final drain, raise the fencing token past "
      "every one observed (the old primary's late pushes are rejected from "
      "then on) and print the promoted serving report");
  std::string* durability_failure_policy = flags.AddString(
      "durability_failure_policy", "fail_stop",
      "what a durable session does when its WAL permanently fails: "
      "fail_stop (reject further ingest) or degrade_to_volatile (keep "
      "committing in memory, flagged degraded until a checkpoint re-arms "
      "durability)");
  std::string* failpoints = flags.AddString(
      "failpoints", "",
      "arm fault-injection points before any I/O, e.g. "
      "\"dqm.wal.fsync=error(EIO)%0.3;dqm.checkpoint.rename=crash\" "
      "(same grammar as DQM_FAILPOINTS; see common/failpoint.h)");
  int64_t* io_retry_max_attempts = flags.AddInt(
      "io_retry_max_attempts", 0,
      "total attempts per WAL/checkpoint syscall for transient errno "
      "classes (EINTR/EAGAIN) before the error surfaces; 0 keeps the "
      "built-in default");
  int64_t* demo_datasets = flags.AddInt(
      "demo_datasets", 6, "datasets simulated when no CSV files are given");
  int64_t* demo_tasks =
      flags.AddInt("demo_tasks", 300, "tasks per simulated demo dataset");
  int64_t* seed = flags.AddInt("seed", 42, "demo simulation seed");
  std::string* metrics_json = flags.AddString(
      "metrics_json", "",
      "write the engine's telemetry registry as JSON to this path (refreshed "
      "after ingest; see --metrics_every for mid-stream refreshes)");
  std::string* metrics_prom = flags.AddString(
      "metrics_prom", "",
      "write the telemetry registry in Prometheus text exposition format to "
      "this path");
  int64_t* metrics_every = flags.AddInt(
      "metrics_every", 0,
      "rewrite the --metrics_json/--metrics_prom files every N seconds while "
      "ingest runs (0 = only after ingest completes)");
  dqm::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    // --help parses as FailedPrecondition after printing usage.
    if (status.code() == dqm::StatusCode::kFailedPrecondition) return 0;
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  // Fault-injection setup runs before any engine I/O so even the first
  // manifest write sees the armed failpoints.
  if (!failpoints->empty()) {
    dqm::Status armed = dqm::failpoint::Configure(*failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", armed.ToString().c_str());
      return 1;
    }
  }
  if (*io_retry_max_attempts != 0) {
    if (*io_retry_max_attempts < 1) {
      std::fprintf(stderr, "--io_retry_max_attempts must be >= 1\n");
      return 1;
    }
    dqm::crowd::io::RetryOptions retry = dqm::crowd::io::GetRetryOptions();
    retry.max_attempts = static_cast<int>(*io_retry_max_attempts);
    dqm::crowd::io::SetRetryOptions(retry);
  }

  std::vector<std::string> specs =
      dqm::estimators::SplitSpecList(methods->empty() ? "switch" : *methods);
  if (specs.empty()) {
    std::fprintf(stderr, "--methods must name at least one estimator\n");
    return 1;
  }
  for (const std::string& spec : specs) {
    dqm::Status status =
        dqm::core::DataQualityMetric::Create(1, {spec}).status();
    if (!status.ok()) {
      std::fprintf(stderr, "bad estimator spec '%s': %s\n", spec.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  dqm::Result<dqm::engine::SessionOptions> session_options =
      dqm::engine::ParsePublishCadenceSpec(*publish_cadence);
  if (!session_options.ok()) {
    std::fprintf(stderr, "%s\n", session_options.status().ToString().c_str());
    return 1;
  }
  // Asking for several producers per session is the explicit multi-writer
  // opt-in: request striping even under the every_batch default (auto
  // striping only engages for coalesced cadences).
  if (*ingest_threads > 1 && session_options->ingest_stripes == 0) {
    session_options->ingest_stripes = std::max<size_t>(
        2, static_cast<size_t>(std::min<int64_t>(*ingest_threads, 16)));
  }
  session_options->durability_dir = *durability_dir;
  {
    dqm::Result<dqm::engine::DurabilityFailurePolicy> policy =
        dqm::engine::ParseDurabilityFailurePolicy(*durability_failure_policy);
    if (!policy.ok()) {
      std::fprintf(stderr, "--durability_failure_policy: %s\n",
                   policy.status().ToString().c_str());
      return 1;
    }
    session_options->durability_failure_policy = *policy;
  }
  if (!wal_group_commit->empty()) {
    dqm::Result<dqm::engine::SessionOptions> with_wal =
        dqm::engine::ParseWalGroupCommitSpec(*wal_group_commit,
                                             *session_options);
    if (!with_wal.ok()) {
      std::fprintf(stderr, "%s\n", with_wal.status().ToString().c_str());
      return 1;
    }
    *session_options = *with_wal;
  }
  session_options->checkpoint_every_votes =
      static_cast<uint64_t>(std::max<int64_t>(0, *checkpoint_every));

  if (*recover_keep_going && !*recover) {
    std::fprintf(stderr, "--recover_keep_going needs --recover\n");
    return 1;
  }
  if (*promote && standby->empty()) {
    std::fprintf(stderr, "--promote needs --standby\n");
    return 1;
  }
  if (!replicate_to->empty() && durability_dir->empty()) {
    std::fprintf(stderr,
                 "--replicate_to ships the WAL, so sessions must be durable: "
                 "add --durability_dir\n");
    return 1;
  }

  // --standby short-circuits ingest like --recover does: the sessions are
  // whatever the shipping root says the primary had.
  if (!standby->empty()) {
    if (*recover || !replicate_to->empty()) {
      std::fprintf(stderr,
                   "--standby is a replay role; drop --recover/--replicate_to\n");
      return 1;
    }
    if (!flags.positional().empty() || !workloads->empty()) {
      std::fprintf(stderr,
                   "--standby replays shipped sessions; drop the CSV/"
                   "--workload arguments\n");
      return 1;
    }
    std::vector<std::string> transports;
    {
      std::error_code ec;
      std::filesystem::directory_iterator it(*standby, ec);
      if (ec) {
        std::fprintf(stderr, "--standby: cannot scan %s: %s\n",
                     standby->c_str(), ec.message().c_str());
        return 1;
      }
      for (const std::filesystem::directory_entry& entry : it) {
        if (entry.is_directory()) transports.push_back(entry.path().string());
      }
      std::sort(transports.begin(), transports.end());
    }
    dqm::engine::DqmEngine engine;
    std::vector<std::unique_ptr<dqm::engine::StandbyApplier>> appliers;
    size_t failed_n = 0;
    dqm::AsciiTable standby_table({"transport", "session", "votes applied",
                                   "generation", "state"});
    for (const std::string& dir : transports) {
      dqm::Result<std::unique_ptr<dqm::engine::LocalDirTransport>> transport =
          dqm::engine::LocalDirTransport::Open(dir);
      dqm::Result<std::unique_ptr<dqm::engine::StandbyApplier>> applier =
          dqm::Status::Internal("unopened");
      if (transport.ok()) {
        applier = dqm::engine::StandbyApplier::Open(
            engine, std::move(transport).value(),
            {.durability_dir = *durability_dir});
      } else {
        applier = transport.status();
      }
      if (!applier.ok()) {
        ++failed_n;
        standby_table.AddRow({dir, "-", "-", "-",
                              applier.status().ToString()});
        continue;
      }
      const dqm::engine::StandbyApplier& a = **applier;
      standby_table.AddRow(
          {dir, a.session_name(),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(a.applied_votes())),
           dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                      a.applied_generation())),
           a.divergent() ? "DIVERGED (awaiting checkpoint)" : "in sync"});
      appliers.push_back(std::move(applier).value());
    }
    std::printf("standby %s: %zu session(s) replayed, %zu failed\n",
                standby->c_str(), appliers.size(), failed_n);
    std::fputs(standby_table.Render().c_str(), stdout);
    if (*promote) {
      dqm::AsciiTable promote_table(
          {"session", "fencing token", "votes served", "generation"});
      for (std::unique_ptr<dqm::engine::StandbyApplier>& applier : appliers) {
        dqm::Result<dqm::engine::StandbyApplier::PromotionReport> report =
            applier->Promote();
        if (!report.ok()) {
          std::fprintf(stderr, "promote %s: %s\n",
                       applier->session_name().c_str(),
                       report.status().ToString().c_str());
          ++failed_n;
          continue;
        }
        promote_table.AddRow(
            {applier->session_name(),
             dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                        report->fencing_token)),
             dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                        report->applied_votes)),
             dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                        report->generation))});
      }
      std::printf("promoted — the old primary is fenced off\n");
      std::fputs(promote_table.Render().c_str(), stdout);
    }
    if (!appliers.empty()) {
      std::printf("engine report — %s sessions\n",
                  *promote ? "promoted" : "standby");
      PrintReport(engine);
    }
    PrintTelemetrySummary(engine);
    if (!metrics_json->empty() || !metrics_prom->empty()) {
      DumpMetrics(engine, *metrics_json, *metrics_prom);
    }
    return failed_n > 0 ? 1 : 0;
  }
  // --recover short-circuits the ingest pipeline entirely: the datasets are
  // whatever the durability root says they were.
  if (*recover) {
    if (durability_dir->empty()) {
      std::fprintf(stderr, "--recover needs --durability_dir\n");
      return 1;
    }
    if (!flags.positional().empty() || !workloads->empty()) {
      std::fprintf(stderr,
                   "--recover rebuilds sessions from --durability_dir; drop "
                   "the CSV/--workload arguments\n");
      return 1;
    }
    dqm::engine::DqmEngine engine;
    if (*recover_keep_going) {
      using Outcome = dqm::engine::DqmEngine::SessionRecoveryOutcome;
      dqm::Result<std::vector<Outcome>> outcomes =
          engine.RecoverSessionsKeepGoing(*durability_dir);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "recover %s: %s\n", durability_dir->c_str(),
                     outcomes.status().ToString().c_str());
        return 1;
      }
      size_t recovered_n = 0, skipped_n = 0, failed_n = 0;
      dqm::AsciiTable outcome_table(
          {"directory", "session", "outcome", "votes restored", "detail"});
      for (const Outcome& o : *outcomes) {
        const char* state = "failed";
        std::string votes = "-";
        switch (o.state) {
          case Outcome::State::kRecovered:
            // A session can come back serving but already degraded to
            // volatile durability (or with a sealed WAL) — an operator
            // triaging the table needs that distinction up front.
            state = o.report.degraded ? "recovered (degraded)" : "recovered";
            ++recovered_n;
            votes = dqm::StrFormat(
                "%llu",
                static_cast<unsigned long long>(o.report.votes_restored));
            break;
          case Outcome::State::kSkipped:
            state = "skipped";
            ++skipped_n;
            break;
          case Outcome::State::kFailed:
            ++failed_n;
            break;
        }
        outcome_table.AddRow({o.dir, o.name.empty() ? "-" : o.name, state,
                              votes, o.detail.empty() ? "-" : o.detail});
      }
      std::printf(
          "recover (keep going) %s: %zu recovered, %zu skipped, %zu "
          "failed\n",
          durability_dir->c_str(), recovered_n, skipped_n, failed_n);
      std::fputs(outcome_table.Render().c_str(), stdout);
      if (recovered_n > 0) {
        std::printf("engine report — recovered sessions\n");
        PrintReport(engine);
      }
      PrintTelemetrySummary(engine);
      if (!metrics_json->empty() || !metrics_prom->empty()) {
        DumpMetrics(engine, *metrics_json, *metrics_prom);
      }
      // Skipped directories are the benign half-open case; only a session
      // that should have come back and didn't is an operator problem.
      return failed_n > 0 ? 1 : 0;
    }
    dqm::Result<std::vector<dqm::engine::DqmEngine::RecoveredSession>> recovered =
        engine.RecoverSessions(*durability_dir);
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover %s: %s\n", durability_dir->c_str(),
                   recovered.status().ToString().c_str());
      return 1;
    }
    std::printf("recovered %zu session(s) from %s\n", recovered->size(),
                durability_dir->c_str());
    dqm::AsciiTable recovery_table({"session", "items", "votes restored",
                                    "torn records", "checkpoint", "durability"});
    for (const dqm::engine::DqmEngine::RecoveredSession& r : *recovered) {
      recovery_table.AddRow(
          {r.name,
           dqm::StrFormat("%llu", static_cast<unsigned long long>(r.num_items)),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(r.votes_restored)),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(r.torn_records)),
           r.had_checkpoint ? "yes" : "no", r.degraded ? "DEGRADED" : "ok"});
    }
    std::fputs(recovery_table.Render().c_str(), stdout);
    std::printf("engine report — recovered sessions\n");
    PrintReport(engine);
    PrintTelemetrySummary(engine);
    if (!metrics_json->empty() || !metrics_prom->empty()) {
      DumpMetrics(engine, *metrics_json, *metrics_prom);
    }
    return 0;
  }

  // One dataset per positional CSV file, generated workload, or simulated
  // demo scenario.
  struct Dataset {
    std::string name;
    std::vector<dqm::crowd::VoteEvent> events;
    size_t num_items = 0;
    /// Ingest partition from the workload's arrival process; empty = fixed
    /// --batch chunks.
    std::vector<size_t> batches;
  };
  std::vector<Dataset> datasets;
  if (!workloads->empty()) {
    if (!flags.positional().empty()) {
      std::fprintf(stderr,
                   "--workload generates its own datasets; drop the CSV "
                   "file arguments\n");
      return 1;
    }
    std::set<std::string> used_names;
    std::vector<std::string> specs_list =
        dqm::estimators::SplitSpecList(*workloads);
    if (specs_list.empty()) {
      std::fprintf(stderr, "--workload must name at least one workload\n");
      return 1;
    }
    for (size_t w = 0; w < specs_list.size(); ++w) {
      dqm::Result<std::unique_ptr<dqm::workload::Workload>> generator =
          dqm::workload::WorkloadRegistry::Global().Create(specs_list[w]);
      if (!generator.ok()) {
        std::fprintf(stderr, "bad workload spec '%s': %s\n",
                     specs_list[w].c_str(),
                     generator.status().ToString().c_str());
        return 1;
      }
      dqm::workload::GeneratedWorkload run = (*generator)->Generate(
          static_cast<uint64_t>(*seed) + static_cast<uint64_t>(w));
      // Session named after the family; duplicates get a numeric suffix.
      std::string family = (*generator)->spec();
      family = family.substr(0, family.find('?'));
      std::string name = UniqueSessionName(family, used_names);
      std::printf("workload '%s' -> session '%s': %zu items, %zu true "
                  "dirty, %zu votes in %zu batches\n",
                  (*generator)->spec().c_str(), name.c_str(),
                  (*generator)->num_items(), run.NumDirty(),
                  run.log.num_events(), run.batch_sizes.size());
      datasets.push_back(Dataset{name, run.log.events(),
                                 (*generator)->num_items(),
                                 std::move(run.batch_sizes)});
    }
  } else if (flags.positional().empty()) {
    std::printf("no CSV files given — running the simulated demo "
                "(%lld datasets)\n",
                static_cast<long long>(*demo_datasets));
    for (int64_t d = 0; d < *demo_datasets; ++d) {
      // Sweep the worker error regime so the per-dataset scores differ.
      double fp = 0.005 * static_cast<double>(d);
      double fn = 0.05 + 0.03 * static_cast<double>(d);
      dqm::core::Scenario scenario = dqm::core::SimulationScenario(fp, fn);
      dqm::core::SimulatedRun run = dqm::core::SimulateScenario(
          scenario, static_cast<size_t>(*demo_tasks),
          static_cast<uint64_t>(*seed) + static_cast<uint64_t>(d));
      datasets.push_back(Dataset{
          dqm::StrFormat("demo-%02lld", static_cast<long long>(d)),
          run.log.events(), scenario.num_items, {}});
    }
  } else {
    std::set<std::string> used_names;
    for (const std::string& path : flags.positional()) {
      dqm::Result<dqm::crowd::ResponseLog> log =
          dqm::crowd::ResponseLogIo::ReadFile(path,
                                              static_cast<size_t>(*num_items));
      if (!log.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     log.status().ToString().c_str());
        return 1;
      }
      datasets.push_back(Dataset{SessionNameForPath(path, used_names),
                                 log->events(),
                                 static_cast<size_t>(*num_items),
                                 {}});
    }
  }

  dqm::engine::DqmEngine engine;
  for (const Dataset& dataset : datasets) {
    dqm::Result<std::shared_ptr<dqm::engine::EstimationSession>> session =
        engine.OpenSession(dataset.name, dataset.num_items,
                           std::span<const std::string>(specs),
                           *session_options);
    if (!session.ok()) {
      std::fprintf(stderr, "open %s: %s\n", dataset.name.c_str(),
                   session.status().ToString().c_str());
      return 1;
    }
    if (*ingest_threads > 1 && !(*session)->concurrent_ingest()) {
      std::fprintf(stderr,
                   "note: session '%s' has an order-sensitive panel and uses "
                   "the serialized commit path; with --ingest_threads=%lld "
                   "the batch order is unspecified\n",
                   dataset.name.c_str(),
                   static_cast<long long>(*ingest_threads));
    }
  }

  // Hot-standby shipping: one replicator per session, each with its own
  // transport directory, installed before the first vote so the standby
  // sees the complete durable stream. They stay alive through ingest (and
  // through a dqm.cli.after_ingest crash — dying with segments shipped is
  // exactly the failover drill).
  std::vector<std::unique_ptr<dqm::engine::SessionReplicator>> replicators;
  if (!replicate_to->empty()) {
    for (const Dataset& dataset : datasets) {
      dqm::Result<std::shared_ptr<dqm::engine::EstimationSession>> session =
          engine.GetSession(dataset.name);
      if (!session.ok()) continue;
      dqm::Result<std::unique_ptr<dqm::engine::LocalDirTransport>> transport =
          dqm::engine::LocalDirTransport::Open(
              *replicate_to + "/" + dqm::engine::PercentEncode(dataset.name));
      dqm::Result<std::unique_ptr<dqm::engine::SessionReplicator>> replicator =
          dqm::Status::Internal("unopened");
      if (transport.ok()) {
        replicator = dqm::engine::SessionReplicator::Start(
            std::move(session).value(), std::move(transport).value());
      } else {
        replicator = transport.status();
      }
      if (!replicator.ok()) {
        std::fprintf(stderr, "replicate %s: %s\n", dataset.name.c_str(),
                     replicator.status().ToString().c_str());
        return 1;
      }
      replicators.push_back(std::move(replicator).value());
    }
    std::printf("replicating %zu session(s) to %s\n", replicators.size(),
                replicate_to->c_str());
  }

  size_t workers = *threads <= 0 ? dqm::ThreadPool::DefaultThreadCount()
                                 : static_cast<size_t>(*threads);
  size_t producers_per_session =
      static_cast<size_t>(std::max<int64_t>(1, *ingest_threads));
  std::vector<dqm::Status> outcomes(datasets.size());
  {
    PeriodicMetricsDumper dumper(engine, *metrics_json, *metrics_prom,
                                 *metrics_every);
    dqm::ThreadPool pool(std::max<size_t>(1, workers));
    dqm::ParallelFor(&pool, datasets.size(), [&](size_t d) {
      outcomes[d] = StreamVotes(engine, datasets[d].name, datasets[d].events,
                                datasets[d].batches,
                                static_cast<size_t>(std::max<int64_t>(1, *batch)),
                                producers_per_session);
    });
  }
  for (size_t d = 0; d < datasets.size(); ++d) {
    if (!outcomes[d].ok()) {
      std::fprintf(stderr, "ingest %s: %s\n", datasets[d].name.c_str(),
                   outcomes[d].ToString().c_str());
      return 1;
    }
  }
  // The crash half of the crash/recover smoke: armed with `crash`, this
  // dies with the sessions still open. _Exit skips destructors and stdio
  // flushes, so anything a real crash would lose (the unsynced WAL
  // group-commit tail) is lost here too; recovery must come entirely from
  // what fsync already pinned. Error / return actions do nothing here.
  dqm::failpoint::Eval("dqm.cli.after_ingest");
  // Manual / coalesced cadences leave a committed tail unpublished; flush
  // every session so the report reflects the full stream.
  if (session_options->cadence != dqm::engine::PublishCadence::kEveryBatch) {
    for (const Dataset& dataset : datasets) {
      dqm::Status published = engine.Publish(dataset.name);
      if (!published.ok()) {
        std::fprintf(stderr, "publish %s: %s\n", dataset.name.c_str(),
                     published.ToString().c_str());
        return 1;
      }
    }
  }

  if (!replicators.empty()) {
    dqm::AsciiTable replication_table({"session", "token", "generation",
                                       "segments", "checkpoints",
                                       "votes shipped", "ship errors"});
    for (const std::unique_ptr<dqm::engine::SessionReplicator>& replicator :
         replicators) {
      dqm::engine::ReplicationStats stats = replicator->stats();
      replication_table.AddRow(
          {replicator->session_name(),
           dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                      replicator->fencing_token())),
           dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                      stats.shipped_generation)),
           dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                      stats.segments_shipped)),
           dqm::StrFormat("%llu", static_cast<unsigned long long>(
                                      stats.checkpoints_shipped)),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(stats.shipped_votes)),
           dqm::StrFormat("%llu",
                          static_cast<unsigned long long>(stats.ship_errors))});
    }
    std::printf("replication — shipped to %s\n", replicate_to->c_str());
    std::fputs(replication_table.Render().c_str(), stdout);
  }

  std::printf("engine report — methods=%s, %zu sessions\n",
              dqm::Join(specs, ",").c_str(), engine.num_sessions());
  PrintReport(engine);
  PrintTelemetrySummary(engine);
  if (!metrics_json->empty() || !metrics_prom->empty()) {
    // Summary above already refreshed the roll-up gauges; this writes the
    // final post-ingest fold to the requested files.
    DumpMetrics(engine, *metrics_json, *metrics_prom);
    if (!metrics_json->empty()) {
      std::printf("metrics json: %s\n", metrics_json->c_str());
    }
    if (!metrics_prom->empty()) {
      std::printf("metrics prom: %s\n", metrics_prom->c_str());
    }
  }
  return 0;
}
