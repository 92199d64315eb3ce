#ifndef DQM_PERFBENCH_TRACE_H_
#define DQM_PERFBENCH_TRACE_H_

// The benchmark's own tracing: an in-memory span recorder and a timing
// ReplicationTransport wrapper. Spans are recorded from the benchmark's side
// of each call into a layer (the library is not instrumented here), kept in
// per-thread buffers, folded into per-name busy/self time, and written out
// when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/replication.h"

namespace dqm::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded call into a layer. `parent` is the span that was open on the
/// same thread when this one began (0 = none); `batch` ties the spans of one
/// ingest batch together.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t batch = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-name fold of recorded spans. Self time is a span's duration minus
/// the time its direct children cover.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t busy_ns = 0;
  uint64_t self_ns = 0;
};

class SpanRecorder {
  struct ThreadBuffer {
    uint64_t slot = 0;
    uint64_t current = 0;
    std::vector<Span> spans;
  };

 public:
  /// Spans are recorded only while enabled; a disabled Scope costs one
  /// relaxed load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, uint64_t batch = 0)
        : buffer_(recorder.enabled() ? &recorder.Local() : nullptr) {
      if (buffer_ == nullptr) return;
      index_ = buffer_->spans.size();
      Span span;
      span.name = name;
      span.id = (buffer_->slot << 40) | (index_ + 1);
      span.parent = buffer_->current;
      span.batch = batch;
      buffer_->current = span.id;
      span.start_ns = NowNs();
      buffer_->spans.push_back(span);
    }
    ~Scope() {
      if (buffer_ == nullptr) return;
      Span& span = buffer_->spans[index_];
      span.end_ns = NowNs();
      buffer_->current = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_;
    size_t index_ = 0;
  };

  /// Every span recorded so far, from all threads. Call only while no
  /// thread is inside a Scope.
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

  /// Busy and self time per span name.
  std::map<std::string, SpanTotals> Totals() const {
    std::vector<Span> spans = Spans();
    std::unordered_map<uint64_t, uint64_t> child_ns;
    for (const Span& span : spans) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span& span : spans) {
      SpanTotals& t = totals[span.name];
      const uint64_t duration = span.end_ns - span.start_ns;
      auto it = child_ns.find(span.id);
      const uint64_t children = it == child_ns.end() ? 0 : it->second;
      ++t.count;
      t.busy_ns += duration;
      t.self_ns += duration > children ? duration - children : 0;
    }
    return totals;
  }

  /// Writes every span as one tab-separated line: name, id, parent, batch,
  /// start_ns, end_ns. Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "name\tid\tparent\tbatch\tstart_ns\tend_ns\n");
    for (const Span& s : Spans()) {
      std::fprintf(file, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.batch),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(file) == 0;
  }

 private:
  ThreadBuffer& Local() {
    // One buffer per (thread, recorder); the benchmark has one recorder, so
    // the thread-local cache is keyed by owner only to stay correct if a
    // second one is ever made.
    thread_local SpanRecorder* owner = nullptr;
    thread_local ThreadBuffer* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffer = buffers_.back().get();
      buffer->slot = buffers_.size();
      buffer->spans.reserve(1 << 16);
      owner = this;
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// ReplicationTransport that forwards to another transport and measures
/// every Put: count, wall time, bytes and failures, split into checkpoint
/// artifacts and everything else (segments, manifest). The counters are
/// always kept; a span is recorded per Put while the recorder is enabled,
/// so a Put made from inside AddVotes (the ship hook runs on the
/// committer's thread) becomes a child of that AddVotes span.
class TimingTransport : public engine::ReplicationTransport {
 public:
  struct Stats {
    uint64_t puts = 0;
    uint64_t put_ns = 0;
    uint64_t put_bytes = 0;
    uint64_t errors = 0;
    uint64_t checkpoint_ns = 0;     // the checkpoint artifacts' share
    uint64_t checkpoint_bytes = 0;  // of put_ns and put_bytes

    Stats& operator+=(const Stats& o) {
      puts += o.puts;
      put_ns += o.put_ns;
      put_bytes += o.put_bytes;
      errors += o.errors;
      checkpoint_ns += o.checkpoint_ns;
      checkpoint_bytes += o.checkpoint_bytes;
      return *this;
    }
    Stats operator-(const Stats& o) const {
      return {puts - o.puts,           put_ns - o.put_ns,
              put_bytes - o.put_bytes, errors - o.errors,
              checkpoint_ns - o.checkpoint_ns,
              checkpoint_bytes - o.checkpoint_bytes};
    }
  };

  TimingTransport(std::shared_ptr<engine::ReplicationTransport> inner,
                  SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  Status Put(const std::string& name, std::span<const uint8_t> bytes,
             uint64_t fencing_token) override {
    const bool checkpoint = name.rfind("ckpt_", 0) == 0;
    SpanRecorder::Scope scope(recorder_, checkpoint ? "ship.put_checkpoint"
                                                    : "ship.put_segment");
    const uint64_t start = NowNs();
    Status status = inner_->Put(name, bytes, fencing_token);
    const uint64_t elapsed = NowNs() - start;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.puts;
    stats_.put_ns += elapsed;
    stats_.put_bytes += bytes.size();
    if (!status.ok()) ++stats_.errors;
    if (checkpoint) {
      stats_.checkpoint_ns += elapsed;
      stats_.checkpoint_bytes += bytes.size();
    }
    return status;
  }
  Result<std::vector<std::string>> List() override { return inner_->List(); }
  Result<std::vector<uint8_t>> Get(const std::string& name) override {
    return inner_->Get(name);
  }
  Status Delete(const std::string& name) override {
    return inner_->Delete(name);
  }
  Status RaiseFence(uint64_t token) override {
    return inner_->RaiseFence(token);
  }
  Result<uint64_t> Fence() override { return inner_->Fence(); }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  const std::shared_ptr<engine::ReplicationTransport> inner_;
  SpanRecorder& recorder_;
  mutable std::mutex mutex_;
  Stats stats_;
};

}  // namespace dqm::perfbench

#endif  // DQM_PERFBENCH_TRACE_H_
