#include "crowd/response_log.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
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
    out.push_back(&compacted_);
    return;
  }
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    out.push_back(&concurrent_->stripes[s].counts);
  }
}

size_t ResponseLog::RetainedBytes() const {
  size_t bytes = events_.capacity() * sizeof(VoteEvent) +
                 compacted_.MemoryBytes() +
                 (positive_.capacity() + total_.capacity()) * sizeof(uint32_t);
  if (concurrent_ == nullptr) {
    bytes += positive_fingerprint_.capacity() * sizeof(uint64_t);
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
      bytes += stripe.counts.MemoryBytes() +
               stripe.positive_f.capacity() * sizeof(uint64_t);
      // The summed fingerprint is written only by a reconcile, which holds
      // every stripe lock, so holding any one of them reads it race-free.
      if (s == 0) {
        bytes += positive_fingerprint_.capacity() * sizeof(uint64_t);
      }
    }
  }
  return bytes;
}

void ResponseLog::Append(const VoteEvent& event) {
  // invariant: the ingest mode is chosen once, before the first vote.
  DQM_CHECK(concurrent_ == nullptr)
      << "Append is the serialized path; this log ingests through "
         "AppendConcurrent";
  // invariant: item ids were validated against num_items upstream.
  DQM_CHECK_LT(event.item, positive_.size()) << "item id out of range";
  const size_t item = event.item;

  bool was_nominal = positive_[item] > 0;
  bool was_majority = MajorityDirty(item);

  ++total_[item];
  if (event.vote == Vote::kDirty) {
    PromoteInFingerprint(positive_fingerprint_, positive_[item]++);
    ++total_positive_;
  }

  if (!was_nominal && positive_[item] > 0) ++nominal_count_;
  bool is_majority = MajorityDirty(item);
  if (!was_majority && is_majority) {
    ++majority_count_;
  } else if (was_majority && !is_majority) {
    --majority_count_;
  }

  num_tasks_ = std::max(num_tasks_, static_cast<size_t>(event.task) + 1);
  num_workers_ = std::max(num_workers_, static_cast<size_t>(event.worker) + 1);
  ++num_events_;
  if (retention_ == RetentionPolicy::kFullEvents) {
    events_.push_back(event);
  } else if (retention_ == RetentionPolicy::kCounts) {
    compacted_.Add(event.worker, event.item, event.vote);
  }
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

void ResponseLog::EnableConcurrentIngest(size_t num_stripes) {
  // invariant: striping is a construction-time wiring decision.
  DQM_CHECK(retention_ != RetentionPolicy::kFullEvents)
      << "concurrent ingest requires kCounts or kTallies retention (there "
         "is no ordered event history to keep)";
  // invariant: striping cannot be retrofitted onto a live log.
  DQM_CHECK_EQ(num_events_, 0u)
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
    stripe.positive_f.reserve(kFingerprintLineEntries);
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
  const bool pair_counts = retention_ == RetentionPolicy::kCounts;
  ++stripe.lock_acquisitions;
  // Hold-time sampling: 1 in 64 acquisitions, so the steady-state commit
  // pays no clock reads for it.
  const bool sample_hold = timed && (stripe.lock_acquisitions & 63) == 0;
  const uint64_t hold_start = sample_hold ? telemetry::NowNanos() : 0;
  for (size_t k = 0; k < indices.size(); ++k) {
    // Every vote reads both tally lines of its item (the VOTING compare
    // below), and over a tally table larger than the cache each is a miss:
    // fetch them kPrefetchVotes votes ahead so the misses overlap.
    if (k + kPrefetchVotes < indices.size()) {
      const uint32_t ahead = events[indices[k + kPrefetchVotes]].item;
      __builtin_prefetch(&positive_[ahead], /*rw=*/1);
      __builtin_prefetch(&total_[ahead], /*rw=*/1);
    }
    const VoteEvent& event = events[indices[k]];
    // The cheap commit: flat counter increments, the fingerprint move of a
    // dirty vote (its item goes from f_from to f_{from+1}) and the VOTING
    // move. With p and t the item's tallies before the vote, a dirty vote
    // makes the item a majority iff 2p == t (a tie it breaks) and a clean
    // one unmakes it iff 2p == t + 1 (a one-vote lead it erases), so the
    // move is one compare for either vote.
    const uint32_t clean = event.vote != Vote::kDirty;
    const int64_t flip =
        2u * positive_[event.item] == total_[event.item] + clean;
    stripe.majority += clean ? -flip : flip;
    ++total_[event.item];
    if (event.vote == Vote::kDirty) {
      PromoteInFingerprint(stripe.positive_f, positive_[event.item]++);
      ++stripe.total_positive;
    }
    ++stripe.num_events;
    stripe.task_bound =
        std::max(stripe.task_bound, static_cast<uint64_t>(event.task) + 1);
    stripe.worker_bound = std::max(stripe.worker_bound,
                                   static_cast<uint64_t>(event.worker) + 1);
    if (pair_counts) stripe.counts.Add(event.worker, event.item, event.vote);
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
  uint64_t events = 0;
  uint64_t positive = 0;
  int64_t majority = 0;
  uint64_t task_bound = 0;
  uint64_t worker_bound = 0;
  uint64_t max_stripe_events = 0;
  // Stripes partition the items, so the stripe fingerprints sum to the
  // global one exactly: O(stripes x deepest pile), independent of items.
  positive_fingerprint_.clear();
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    Stripe& stripe = concurrent_->stripes[s];
    const auto& f = stripe.positive_f;
    if (f.size() > positive_fingerprint_.size()) {
      positive_fingerprint_.resize(f.size(), 0);
    }
    for (size_t j = 0; j < f.size(); ++j) positive_fingerprint_[j] += f[j];
    events += stripe.num_events;
    positive += stripe.total_positive;
    majority += stripe.majority;
    task_bound = std::max(task_bound, stripe.task_bound);
    worker_bound = std::max(worker_bound, stripe.worker_bound);
    max_stripe_events = std::max(max_stripe_events, stripe.num_events);
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
  // NOMINAL = sum_{j>=1} f_j: every item with a dirty vote sits in exactly
  // one fingerprint class.
  uint64_t nominal = 0;
  for (size_t j = 1; j < positive_fingerprint_.size(); ++j) {
    nominal += positive_fingerprint_[j];
  }
  num_events_ = events;
  total_positive_ = positive;
  nominal_count_ = static_cast<size_t>(nominal);
  majority_count_ = static_cast<size_t>(majority);
  num_tasks_ = task_bound;
  num_workers_ = worker_bound;
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
  DQM_CHECK_EQ(scan.total_votes, num_events_) << "tally audit: vote total";
  DQM_CHECK_EQ(scan.positive_votes, total_positive_)
      << "tally audit: dirty-vote total";
  uint64_t species = 0;
  uint64_t observations = 0;
  for (size_t j = 1; j < positive_fingerprint_.size(); ++j) {
    species += positive_fingerprint_[j];
    observations += j * positive_fingerprint_[j];
  }
  // invariant: the commit-time fingerprint moves mirror the tally increments
  // under the same stripe lock; a mismatch means one of them lost a vote.
  DQM_CHECK_EQ(species, scan.nominal_count) << "tally audit: fingerprint";
  // invariant: as above — sum_j j * f_j counts every dirty vote once.
  DQM_CHECK_EQ(observations, scan.positive_votes) << "tally audit: fingerprint";
  // invariant: NOMINAL and VOTING are kept at commit from the same tallies.
  DQM_CHECK_EQ(nominal_count_, scan.nominal_count) << "tally audit: NOMINAL";
  DQM_CHECK_EQ(majority_count_, scan.majority_count) << "tally audit: VOTING";
}

}  // namespace dqm::crowd
