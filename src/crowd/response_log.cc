#include "crowd/response_log.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/wal.h"
#include "telemetry/metric_names.h"

namespace dqm::crowd {

namespace {

/// splitmix64 finalizer — cheap, well-mixed hash for the packed pair key.
inline uint64_t MixPair(uint32_t worker, uint32_t item) {
  uint64_t x = (static_cast<uint64_t>(worker) << 32) | item;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Smallest item count one stripe may own: a full cache line of uint32
/// tally counters. The tally columns are cache-line-aligned at their base
/// (CacheAlignedAllocator), so stripes own fully disjoint lines of the
/// shared positive_/total_ columns and neighboring committers never
/// false-share.
constexpr size_t kStripeGranuleItems = kCacheLineBytes / sizeof(uint32_t);

/// Fingerprint entries per cache line: each stripe reserves one full line up
/// front, and vector growth doubles capacity, so a stripe fingerprint always
/// spans whole lines of its own.
constexpr size_t kFingerprintLineEntries = kCacheLineBytes / sizeof(uint64_t);

/// How many votes ahead a stripe commit prefetches its items' tally lines.
constexpr size_t kPrefetchVotes = 8;

/// Builds with DQM_DCHECK live audit the tallies at every reconcile, not
/// only when the vote budget is spent, so the sanitizer jobs check every
/// publish.
#ifdef NDEBUG
constexpr bool kAuditEveryReconcile = false;
#else
constexpr bool kAuditEveryReconcile = true;
#endif

}  // namespace

void CompactedVoteStore::Add(uint32_t worker, uint32_t item, Vote vote) {
  size_t slot = FindOrInsertSlot(worker, item);
  if (vote == Vote::kDirty) {
    ++dirty_[slot];
  } else {
    ++clean_[slot];
  }
}

void CompactedVoteStore::AddCounts(uint32_t worker, uint32_t item,
                                   uint32_t dirty, uint32_t clean) {
  size_t slot = FindOrInsertSlot(worker, item);
  dirty_[slot] += dirty;
  clean_[slot] += clean;
}

size_t CompactedVoteStore::MemoryBytes() const {
  return (workers_.capacity() + items_.capacity() + dirty_.capacity() +
          clean_.capacity() + index_.capacity()) *
         sizeof(uint32_t);
}

size_t CompactedVoteStore::FindOrInsertSlot(uint32_t worker, uint32_t item) {
  // Grow at 3/4 load (and on first use) so probe chains stay short.
  if (index_.empty() || workers_.size() + 1 > index_.size() / 4 * 3) {
    GrowIndex();
  }
  const size_t mask = index_.size() - 1;
  size_t bucket = MixPair(worker, item) & mask;
  for (;;) {
    uint32_t slot = index_[bucket];
    if (slot == kEmptySlot) {
      uint32_t fresh = static_cast<uint32_t>(workers_.size());
      // invariant: slot ids stay below the kEmptySlot sentinel by sizing.
      DQM_CHECK_LT(fresh, kEmptySlot) << "compacted store slot id overflow";
      index_[bucket] = fresh;
      workers_.push_back(worker);
      items_.push_back(item);
      dirty_.push_back(0);
      clean_.push_back(0);
      return fresh;
    }
    if (workers_[slot] == worker && items_[slot] == item) return slot;
    bucket = (bucket + 1) & mask;
  }
}

void CompactedVoteStore::GrowIndex() {
  size_t capacity = index_.empty() ? 64 : index_.size() * 2;
  index_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (uint32_t slot = 0; slot < workers_.size(); ++slot) {
    size_t bucket = MixPair(workers_[slot], items_[slot]) & mask;
    while (index_[bucket] != kEmptySlot) bucket = (bucket + 1) & mask;
    index_[bucket] = slot;
  }
}

TallyScanResult ScanTallies(std::span<const uint32_t> positive,
                            std::span<const uint32_t> total) {
  // invariant: callers pass parallel columns of one tally table.
  DQM_CHECK_EQ(positive.size(), total.size());
  TallyScanResult result;
  const uint32_t* p = positive.data();
  const uint32_t* t = total.data();
  const size_t n = positive.size();
  // Branch-free flat loop over the two SoA columns: comparisons become
  // vector masks and the sums widening adds, so -O3 autovectorizes it.
  uint64_t nominal = 0, majority = 0, votes = 0, dirty = 0;
  for (size_t i = 0; i < n; ++i) {
    nominal += p[i] != 0;
    majority += 2u * p[i] > t[i];
    votes += t[i];
    dirty += p[i];
  }
  result.nominal_count = nominal;
  result.majority_count = majority;
  result.total_votes = votes;
  result.positive_votes = dirty;
  return result;
}

ResponseLog::ResponseLog(size_t num_items, RetentionPolicy retention)
    : retention_(retention), positive_(num_items, 0), total_(num_items, 0) {}

const std::vector<VoteEvent>& ResponseLog::events() const {
  // invariant: retention is fixed at construction; asking a counts-only
  // log for its event history is a caller programming error.
  DQM_CHECK(retention_ == RetentionPolicy::kFullEvents)
      << "events() requires RetentionPolicy::kFullEvents; this log retains "
         "only counts";
  return events_;
}

void ResponseLog::AppendCountMatrixBlocks(
    std::vector<const CompactedVoteStore*>& out) const {
  // invariant: the consumer set was declared at pipeline construction.
  DQM_CHECK(retention_ == RetentionPolicy::kCounts)
      << "this log keeps no pair-count matrix; no response-matrix consumer "
         "was declared at pipeline construction";
  if (concurrent_ == nullptr) {
    out.push_back(&stats_.counts);
    return;
  }
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    out.push_back(&concurrent_->stripes[s].stats.counts);
  }
}

size_t ResponseLog::RetainedBytes() const {
  size_t bytes = events_.capacity() * sizeof(VoteEvent) +
                 stats_.counts.MemoryBytes() +
                 (positive_.capacity() + total_.capacity()) * sizeof(uint32_t);
  if (concurrent_ == nullptr) {
    bytes += stats_.positive_f.capacity() * sizeof(uint64_t);
  } else {
    // The striped-mode fixed overhead was previously dropped from this sum,
    // under-reporting every striped kCounts session: the control block, the
    // per-stripe metric-pointer table, and the stripe array itself all count.
    bytes += sizeof(ConcurrentState) +
             concurrent_->stripe_metrics.capacity() * sizeof(StripeMetrics) +
             concurrent_->num_stripes * sizeof(Stripe);
    for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
      // The shard and fingerprint vectors grow under the stripe lock; take
      // it (one stripe at a time, never nested) so a live committer can't
      // resize them mid-measurement. See the header contract: never call
      // this while holding the PauseAndReconcile guard.
      Stripe& stripe = concurrent_->stripes[s];
      MutexLock lock(stripe.mutex);
      bytes += stripe.stats.counts.MemoryBytes() +
               stripe.stats.positive_f.capacity() * sizeof(uint64_t);
      // The summed fingerprint is written only by a reconcile, which holds
      // every stripe lock, so holding any one of them reads it race-free.
      if (s == 0) {
        bytes += stats_.positive_f.capacity() * sizeof(uint64_t);
      }
    }
  }
  return bytes;
}

void ResponseLog::PromoteInFingerprint(Fingerprint& f, uint32_t from) {
  const size_t depth = static_cast<size_t>(from) + 2;
  if (depth > f.size()) f.resize(depth, 0);
  if (from != 0) {
    // invariant: the fingerprint moves mirror the tally increments; an
    // empty source class means one of them lost a vote.
    DQM_CHECK_GT(f[from], 0u) << "no item at frequency " << from;
    --f[from];
  }
  ++f[from + 1];
}

// Inlined into both callers: the striped commit loop runs it per vote, and
// an out-of-line call there costs more than the update itself. The
// fingerprint move, which may resize, stays out of line.
[[gnu::always_inline]] inline void ResponseLog::CountVote(
    VoteStats& stats, const VoteEvent& event) {
  uint32_t& positive = positive_[event.item];
  uint32_t& total = total_[event.item];
  // With p and t the item's tallies before the vote, a dirty vote makes the
  // item a majority iff 2p == t (a tie it breaks) and a clean one unmakes
  // it iff 2p == t + 1 (a one-vote lead it erases), so the VOTING move is
  // one compare for either vote.
  const uint32_t clean = event.vote != Vote::kDirty;
  const int64_t flip = 2u * positive == total + clean;
  stats.majority += clean ? -flip : flip;
  ++total;
  if (!clean) {
    const uint32_t from = positive++;
    stats.nominal += from == 0;
    PromoteInFingerprint(stats.positive_f, from);
    ++stats.total_positive;
  }
  ++stats.num_events;
  stats.task_bound =
      std::max(stats.task_bound, static_cast<uint64_t>(event.task) + 1);
  stats.worker_bound =
      std::max(stats.worker_bound, static_cast<uint64_t>(event.worker) + 1);
  if (retention_ == RetentionPolicy::kCounts) {
    stats.counts.Add(event.worker, event.item, event.vote);
  }
}

void ResponseLog::Append(const VoteEvent& event) {
  // invariant: the ingest mode is chosen once, before the first vote.
  DQM_CHECK(concurrent_ == nullptr)
      << "Append is the serialized path; this log ingests through "
         "AppendConcurrent";
  // invariant: item ids were validated against num_items upstream.
  DQM_CHECK_LT(event.item, positive_.size()) << "item id out of range";
  CountVote(stats_, event);
  if (retention_ == RetentionPolicy::kFullEvents) events_.push_back(event);
}

Status ResponseLog::RestoreCheckpoint(const CheckpointData& data) {
  const bool pairs = data.variant == CheckpointData::Variant::kPairs;
  if (retention_ == RetentionPolicy::kFullEvents) {
    return Status::FailedPrecondition(
        "a checkpoint holds counts; this log retains full events");
  }
  if (!pairs && retention_ == RetentionPolicy::kCounts) {
    return Status::FailedPrecondition(
        "a tally checkpoint holds no pair counts for this log's matrix");
  }
  const size_t n = num_items();
  const size_t slots = data.items.size();
  const bool shaped =
      pairs ? data.workers.size() == slots && data.dirty.size() == slots &&
                  data.clean.size() == slots
            : data.positive.size() == n && data.total.size() == n;
  if (data.num_items != n || !shaped) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint of %llu items does not fit a log of %zu items",
        static_cast<unsigned long long>(data.num_items), n));
  }
  // Holds every stripe lock until the restored stats are folded, and brings
  // the log's totals current for the emptiness check.
  IngestPause pause = PauseAndReconcile();
  if (stats_.num_events != 0) {
    return Status::FailedPrecondition(
        "a checkpoint restores into an empty log only");
  }
  const uint32_t shift = concurrent_ == nullptr ? 0 : concurrent_->stripe_shift;
  auto stats_of = [&](size_t stripe) -> VoteStats& {
    return concurrent_ == nullptr ? stats_ : concurrent_->stripes[stripe].stats;
  };
  if (pairs) {
    for (size_t slot = 0; slot < slots; ++slot) {
      const uint32_t worker = data.workers[slot];
      const uint32_t item = data.items[slot];
      // invariant: DecodeCheckpoint and CheckpointFromLog bound item ids.
      DQM_CHECK_LT(item, n) << "item id out of range";
      positive_[item] += data.dirty[slot];
      total_[item] += data.dirty[slot] + data.clean[slot];
      VoteStats& stats = stats_of(item >> shift);
      stats.worker_bound =
          std::max(stats.worker_bound, static_cast<uint64_t>(worker) + 1);
      if (retention_ == RetentionPolicy::kCounts) {
        stats.counts.AddCounts(worker, item, data.dirty[slot],
                               data.clean[slot]);
      }
    }
  } else {
    std::copy(data.positive.begin(), data.positive.end(), positive_.begin());
    std::copy(data.total.begin(), data.total.end(), total_.begin());
  }
  // The rest of each VoteStats is a function of its items' tallies.
  const size_t num_parts =
      concurrent_ == nullptr ? 1 : concurrent_->num_stripes;
  const size_t part_items = concurrent_ == nullptr ? n : size_t{1} << shift;
  for (size_t part = 0; part < num_parts; ++part) {
    const size_t begin = std::min(part * part_items, n);
    const size_t count = std::min(part_items, n - begin);
    const std::span<const uint32_t> positive(positive_.data() + begin, count);
    const TallyScanResult scan =
        ScanTallies(positive, std::span<const uint32_t>(total_.data() + begin,
                                                        count));
    VoteStats& stats = stats_of(part);
    stats.num_events = scan.total_votes;
    stats.total_positive = scan.positive_votes;
    stats.nominal = scan.nominal_count;
    stats.majority = static_cast<int64_t>(scan.majority_count);
    if (scan.total_votes > 0) {
      stats.task_bound = data.num_tasks;
      if (!pairs) stats.worker_bound = data.num_workers;
    }
    if (scan.nominal_count > 0) {
      // Entry j counts the items with j dirty votes; the deepest item sets
      // the length, as its last dirty vote did, and entry 0 stays 0.
      stats.positive_f.resize(*std::max_element(positive.begin(),
                                                positive.end()) + size_t{1},
                              0);
      for (uint32_t dirty : positive) ++stats.positive_f[dirty];
      stats.positive_f[0] = 0;
    }
  }
  if (concurrent_ != nullptr) ReconcileLocked();
  return Status::OK();
}

void ResponseLog::EnableConcurrentIngest(size_t num_stripes) {
  // invariant: striping is a construction-time wiring decision.
  DQM_CHECK(retention_ != RetentionPolicy::kFullEvents)
      << "concurrent ingest requires kCounts or kTallies retention (there "
         "is no ordered event history to keep)";
  // invariant: striping cannot be retrofitted onto a live log.
  DQM_CHECK_EQ(stats_.num_events, 0u)
      << "concurrent ingest must be enabled before any vote arrives";
  // invariant: EnableConcurrentIngest is called at most once.
  DQM_CHECK(concurrent_ == nullptr) << "concurrent ingest already enabled";

  auto state = std::make_unique<ConcurrentState>();
  // Stripe = a power-of-two item range of at least one cache line of tally
  // counters. stripe(item) is then a single shift — no division on the
  // commit path — and neighboring stripes write disjoint lines of the
  // shared positive_/total_ columns.
  size_t requested = std::max<size_t>(num_stripes, 1);
  size_t items = positive_.size();
  size_t chunk = kStripeGranuleItems;
  if (items > requested * chunk) {
    chunk = std::bit_ceil((items + requested - 1) / requested);
  }
  state->stripe_shift = static_cast<uint32_t>(std::countr_zero(chunk));
  state->num_stripes = std::max<size_t>((items + chunk - 1) / chunk, 1);
  state->stripes = std::make_unique<Stripe[]>(state->num_stripes);
  for (size_t s = 0; s < state->num_stripes; ++s) {
    Stripe& stripe = state->stripes[s];
    MutexLock lock(stripe.mutex);
    stripe.stats.positive_f.reserve(kFingerprintLineEntries);
  }
  // Per-stripe lock counters, resolved once here so the reconcile-time fold
  // never takes the registry mutex per stripe stat. Stripe indices repeat
  // across logs, so these aggregate over every striped log in the process.
  state->stripe_metrics.resize(state->num_stripes);
  auto& registry = telemetry::MetricsRegistry::Global();
  for (size_t s = 0; s < state->num_stripes; ++s) {
    telemetry::LabelSet labels{{"stripe", StrFormat("%zu", s)}};
    StripeMetrics& m = state->stripe_metrics[s];
    m.acquisitions =
        registry.GetCounter(telemetry::metric_names::kStripeLockAcquisitionsTotal, labels);
    m.contended =
        registry.GetCounter(telemetry::metric_names::kStripeLockContendedTotal, labels);
    m.wait_ns = registry.GetCounter(telemetry::metric_names::kStripeLockWaitNsTotal, labels);
    m.hold_ns = registry.GetCounter(telemetry::metric_names::kStripeLockHoldNsTotal, labels);
  }
  concurrent_ = std::move(state);
}

size_t ResponseLog::num_stripes() const {
  return concurrent_ == nullptr ? 0 : concurrent_->num_stripes;
}

void ResponseLog::AppendConcurrent(std::span<const VoteEvent> events) {
  // invariant: the pipeline wires committers only to striped logs.
  DQM_CHECK(concurrent_ != nullptr)
      << "AppendConcurrent requires EnableConcurrentIngest";
  if (events.empty()) return;
  // invariant: batch sizes are bounded by the uint32 scatter index.
  DQM_CHECK_LE(events.size(), UINT32_MAX) << "batch too large to index";
  ConcurrentState& cs = *concurrent_;
  const uint32_t shift = cs.stripe_shift;
  const size_t num_stripes = cs.num_stripes;

  // Bucket the batch by stripe once, unlocked (a counting sort over event
  // indices), so each stripe's lock is held only for that stripe's own
  // events — the contention window a commit imposes on other producers is
  // proportional to its share of the stripe, not the whole batch. The
  // scratch is per producer thread and keeps its capacity, so steady-state
  // commits allocate nothing. The same pass validates every item id up
  // front: an id past the last stripe would otherwise match no bucket and
  // vanish silently instead of aborting like the serialized Append does.
  thread_local std::vector<uint32_t> bucket_ends;    // prefix sums, size S+1
  thread_local std::vector<uint32_t> bucket_cursor;  // scatter cursors
  thread_local std::vector<uint32_t> bucketed;       // event indices by stripe
  bucket_ends.assign(num_stripes + 1, 0);
  for (const VoteEvent& event : events) {
    // invariant: item ids were validated against num_items upstream.
    DQM_CHECK_LT(event.item, positive_.size()) << "item id out of range";
    ++bucket_ends[(event.item >> shift) + 1];
  }
  for (size_t s = 0; s < num_stripes; ++s) bucket_ends[s + 1] += bucket_ends[s];
  bucket_cursor.assign(bucket_ends.begin(), bucket_ends.end() - 1);
  bucketed.resize(events.size());
  for (uint32_t index = 0; index < events.size(); ++index) {
    bucketed[bucket_cursor[events[index].item >> shift]++] = index;
  }

  // Rotate the visit order per commit: concurrent committers start on
  // different stripes instead of convoying behind each other on stripe 0.
  // A stripe another committer holds right now is deferred to the end of
  // the visit instead of blocking; the commit blocks only when it reaches
  // that stripe a second time. Committers hold one stripe lock at a time,
  // so any visit order is deadlock-free against other committers and the
  // all-stripe publish lock.
  const size_t start = static_cast<size_t>(
      cs.rotation.fetch_add(1, std::memory_order_relaxed) % num_stripes);
  const bool timed = telemetry::Enabled();
  auto stripe_indices = [&](size_t s) {
    return std::span<const uint32_t>(bucketed.data() + bucket_ends[s],
                                     bucket_ends[s + 1] - bucket_ends[s]);
  };
  thread_local std::vector<uint32_t> deferred;
  deferred.clear();
  for (size_t k = 0; k < num_stripes; ++k) {
    size_t s = start + k;
    if (s >= num_stripes) s -= num_stripes;
    if (bucket_ends[s] == bucket_ends[s + 1]) continue;  // untouched stripe
    Stripe& stripe = cs.stripes[s];
    if (!stripe.mutex.TryLock()) {
      deferred.push_back(static_cast<uint32_t>(s));
      continue;
    }
    MutexLock lock(stripe.mutex, kAdoptLock);
    CommitToStripeLocked(stripe, events, stripe_indices(s), timed);
  }
  for (uint32_t s : deferred) {
    Stripe& stripe = cs.stripes[s];
    // Contention probe: try_lock again first. Only an acquisition that
    // actually blocks counts as contended and pays the two clock reads that
    // time the wait.
    bool contended = false;
    uint64_t wait_start = 0;
    if (!stripe.mutex.TryLock()) {
      contended = true;
      if (timed) wait_start = telemetry::NowNanos();
      stripe.mutex.Lock();
    }
    MutexLock lock(stripe.mutex, kAdoptLock);
    if (contended) {
      ++stripe.lock_contended;
      if (timed) stripe.lock_wait_ns += telemetry::NowNanos() - wait_start;
    }
    CommitToStripeLocked(stripe, events, stripe_indices(s), timed);
  }
}

void ResponseLog::CommitToStripeLocked(Stripe& stripe,
                                       std::span<const VoteEvent> events,
                                       std::span<const uint32_t> indices,
                                       bool timed) {
  ++stripe.lock_acquisitions;
  // Hold-time sampling: 1 in 64 acquisitions, so the steady-state commit
  // pays no clock reads for it.
  const bool sample_hold = timed && (stripe.lock_acquisitions & 63) == 0;
  const uint64_t hold_start = sample_hold ? telemetry::NowNanos() : 0;
  for (size_t k = 0; k < indices.size(); ++k) {
    // Every vote reads both tally lines of its item (the VOTING compare),
    // and over a tally table larger than the cache each is a miss: fetch
    // them kPrefetchVotes votes ahead so the misses overlap.
    if (k + kPrefetchVotes < indices.size()) {
      const uint32_t ahead = events[indices[k + kPrefetchVotes]].item;
      __builtin_prefetch(&positive_[ahead], /*rw=*/1);
      __builtin_prefetch(&total_[ahead], /*rw=*/1);
    }
    CountVote(stripe.stats, events[indices[k]]);
  }
  if (sample_hold) stripe.lock_hold_ns += telemetry::NowNanos() - hold_start;
}

void ResponseLog::LockAllStripes() {
  // Ascending index = ascending address, the order the lock-order checker
  // requires of same-rank (stripe) locks.
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    concurrent_->stripes[s].mutex.Lock();
  }
}

void ResponseLog::UnlockAllStripes() {
  for (size_t s = concurrent_->num_stripes; s > 0; --s) {
    concurrent_->stripes[s - 1].mutex.Unlock();
  }
}

void ResponseLog::IngestPause::Release() {
  if (log_ != nullptr) {
    log_->UnlockAllStripes();
    log_ = nullptr;
  }
}

ResponseLog::IngestPause ResponseLog::PauseAndReconcile() {
  if (concurrent_ == nullptr) return IngestPause();
  // The publish-phase split: "pause" is how long acquiring every stripe
  // lock stalled (committers in flight hold them), "fold" is the reconcile
  // itself (the stripe sums, plus the tally audit when one is due).
  const bool timed = telemetry::Enabled();
  const uint64_t pause_start = timed ? telemetry::NowNanos() : 0;
  LockAllStripes();
  const uint64_t fold_start = timed ? telemetry::NowNanos() : 0;
  ReconcileLocked();
  if (timed) {
    static telemetry::Histogram* pause_hist =
        telemetry::MetricsRegistry::Global().GetHistogram(
            telemetry::metric_names::kPublishPauseNs);
    static telemetry::Histogram* fold_hist =
        telemetry::MetricsRegistry::Global().GetHistogram(
            telemetry::metric_names::kPublishFoldNs);
    const uint64_t fold_end = telemetry::NowNanos();
    const uint64_t pause_ns = fold_start - pause_start;
    pause_hist->Record(pause_ns);
    fold_hist->Record(fold_end - fold_start);
    if (pause_ns > 10'000'000) {
      DQM_LOG_EVERY_N(Warning, 100)
          << "publish paused committers " << pause_ns / 1'000'000
          << "ms acquiring " << concurrent_->num_stripes
          << " stripe locks (rate-limited 1/100)";
    }
  }
  return IngestPause(this);
}

void ResponseLog::ReconcileLocked() {
  // Stripes partition the items, so the stripe stats sum to the log's
  // exactly: O(stripes x deepest pile), independent of items.
  Fingerprint& f_sum = stats_.positive_f;
  f_sum.clear();
  stats_.num_events = stats_.total_positive = stats_.nominal = 0;
  stats_.majority = 0;
  stats_.task_bound = stats_.worker_bound = 0;
  uint64_t max_stripe_events = 0;
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    Stripe& stripe = concurrent_->stripes[s];
    const VoteStats& part = stripe.stats;
    if (part.positive_f.size() > f_sum.size()) {
      f_sum.resize(part.positive_f.size(), 0);
    }
    for (size_t j = 0; j < part.positive_f.size(); ++j) {
      f_sum[j] += part.positive_f[j];
    }
    stats_.num_events += part.num_events;
    stats_.total_positive += part.total_positive;
    stats_.nominal += part.nominal;
    stats_.majority += part.majority;
    stats_.task_bound = std::max(stats_.task_bound, part.task_bound);
    stats_.worker_bound = std::max(stats_.worker_bound, part.worker_bound);
    max_stripe_events = std::max(max_stripe_events, part.num_events);
    // Fold the lock telemetry deltas into the registry while we hold every
    // stripe anyway — the commit hot path never touches an atomic for them.
    const StripeMetrics& m = concurrent_->stripe_metrics[s];
    m.acquisitions->Add(stripe.lock_acquisitions);
    m.contended->Add(stripe.lock_contended);
    m.wait_ns->Add(stripe.lock_wait_ns);
    m.hold_ns->Add(stripe.lock_hold_ns);
    stripe.lock_acquisitions = 0;
    stripe.lock_contended = 0;
    stripe.lock_wait_ns = 0;
    stripe.lock_hold_ns = 0;
  }
  const uint64_t events = stats_.num_events;
  // Stripe imbalance: hottest stripe's share of a perfectly even spread
  // (1.0 = balanced, num_stripes = everything on one stripe). Last striped
  // log to reconcile wins the gauge — a process-wide "how skewed is ingest
  // right now" signal, not a per-log ledger.
  if (events > 0) {
    static telemetry::Gauge* imbalance =
        telemetry::MetricsRegistry::Global().GetGauge(
            telemetry::metric_names::kStripeImbalanceRatio);
    const double mean = static_cast<double>(events) /
                        static_cast<double>(concurrent_->num_stripes);
    imbalance->Set(static_cast<double>(max_stripe_events) / mean);
  }
  if (kAuditEveryReconcile || events >= next_audit_events_) {
    AuditTallies();
    next_audit_events_ = events + std::max<size_t>(num_items(), 1);
  }
}

void ResponseLog::AuditTallies() const {
  TallyScanResult scan = ScanTallies(positive_, total_);
  // invariant: the tally columns must agree with the kept totals (the
  // stripe sums on the striped path); a mismatch means a committer raced
  // the pause guard.
  DQM_CHECK_EQ(scan.total_votes, stats_.num_events)
      << "tally audit: vote total";
  // invariant: as above, for the dirty-vote total.
  DQM_CHECK_EQ(scan.positive_votes, stats_.total_positive)
      << "tally audit: dirty-vote total";
  uint64_t species = 0;
  uint64_t observations = 0;
  const Fingerprint& f = stats_.positive_f;
  for (size_t j = 1; j < f.size(); ++j) {
    species += f[j];
    observations += j * f[j];
  }
  // invariant: the commit-time fingerprint moves mirror the tally increments
  // under the same stripe lock; a mismatch means one of them lost a vote.
  DQM_CHECK_EQ(species, scan.nominal_count) << "tally audit: fingerprint";
  // invariant: as above — sum_j j * f_j counts every dirty vote once.
  DQM_CHECK_EQ(observations, scan.positive_votes) << "tally audit: fingerprint";
  // invariant: NOMINAL and VOTING are kept at commit from the same tallies.
  DQM_CHECK_EQ(stats_.nominal, scan.nominal_count) << "tally audit: NOMINAL";
  DQM_CHECK_EQ(stats_.majority, static_cast<int64_t>(scan.majority_count))
      << "tally audit: VOTING";
}

}  // namespace dqm::crowd
