#ifndef DQM_CROWD_WAL_H_
#define DQM_CROWD_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "crowd/response_log.h"
#include "crowd/vote.h"

namespace dqm::crowd {

// ---------------------------------------------------------------------------
// Shared vote validation.
//
// Every byte stream that turns into VoteEvents — the CSV reader
// (ResponseLogIo::FromCsv) and the WAL tail replay — funnels through the
// same bounds check, so a corrupt or adversarial input is rejected as a
// Status before it can reach the serving pipeline. The id caps exist
// because several consumers allocate O(max id) state (Dawid-Skene sizes
// per-worker confusion vectors, SWITCH segments per task): without them a
// single row claiming worker 4294967295 drives a multi-gigabyte allocation
// on the serving path.
// ---------------------------------------------------------------------------

/// Largest worker id accepted from persisted/external vote streams
/// (~16.7M distinct workers; far above any plausible crowd, small enough
/// that O(num_workers) estimator state stays sane).
inline constexpr uint32_t kMaxWorkerId = (1u << 24) - 1;
/// Largest task id accepted (~268M tasks).
inline constexpr uint32_t kMaxTaskId = (1u << 28) - 1;

/// Bounds check for one externally sourced vote: item inside the session's
/// universe, worker/task under the allocation caps. OK or OutOfRange.
Status ValidateVoteBounds(uint32_t task, uint32_t worker, uint32_t item,
                          size_t num_items);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `size` bytes, chainable
/// through `seed` (pass a previous return value to continue a running
/// checksum). Guards WAL records and checkpoint files against torn writes
/// and bit rot.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Size of the WAL file header (magic + version + generation). Record bytes
/// start at this offset; replication ships the body in [kWalHeaderBytes,
/// durable_size) slices, so the offset is part of the shipped-segment
/// contract.
inline constexpr size_t kWalHeaderBytes = 16;

// ---------------------------------------------------------------------------
// VoteWal — the per-session write-ahead vote log (format + file layer).
//
// File layout (all integers little-endian):
//
//   header:  u32 magic 'DWAL' | u32 version (1) | u64 generation
//   record:  u32 payload_size | u32 crc32(payload) | payload
//   payload: u32 vote_count | vote_count x { u32 task, u32 worker,
//                                            u32 item,  u8 vote }
//
// Appends serialize into a user-space buffer; WriteBuffered() hands the
// buffer to write(2) (after which the record survives a process kill, via
// the page cache); Sync() adds fsync(2) (after which it survives power
// loss). Group-commit policy — when to write and when to sync — lives in
// the owner (engine::SessionDurability); this class is single-threaded by
// contract and owns only the format and the fd.
//
// A failed write(2) or fsync(2) SEALS the log: the file is cut back to the
// last fsync-acknowledged boundary (so bytes of a rejected batch can never
// resurrect at recovery as CRC-valid records, and later appends can never
// land after torn bytes) and every subsequent Append/WriteBuffered/Sync is
// refused until Reset() re-establishes a clean file. Without the seal, an
// append after a partial write would be acknowledged durable yet sit past
// a torn record that recovery truncates at — silently losing it.
//
// The `generation` ties the WAL to its checkpoint: a checkpoint commit
// writes the snapshot carrying generation G+1, then Reset(G+1) truncates
// the WAL to a fresh header. Recovery compares the two (see
// SessionDurability::Recover) to detect a crash between those two steps.
// ---------------------------------------------------------------------------
class VoteWal {
 public:
  VoteWal() = default;
  ~VoteWal();
  VoteWal(VoteWal&& other) noexcept;
  VoteWal& operator=(VoteWal&& other) noexcept;
  VoteWal(const VoteWal&) = delete;
  VoteWal& operator=(const VoteWal&) = delete;

  /// Opens (or creates) the WAL at `path`. A fresh/empty file gets a
  /// generation-1 header (synced); an existing file must carry a valid
  /// header. IOError on filesystem failure, InvalidArgument on a foreign or
  /// future-versioned header.
  static Result<VoteWal> Open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  uint64_t generation() const { return generation_; }

  /// Serializes one record (the whole batch) into the user-space buffer.
  /// No syscall — the votes are NOT yet durable in any sense. No-op on a
  /// sealed log.
  void Append(std::span<const VoteEvent> events);

  /// write(2)s everything buffered. After OK the records survive a process
  /// kill (page cache), not a power loss. On error the log seals (see
  /// class comment): the buffer is dropped, the file is cut back to the
  /// last synced boundary, and the batch must be rejected by the owner.
  Status WriteBuffered();

  /// WriteBuffered + fsync(2) — the full group-commit durability point.
  /// A failed fsync also seals: the written-but-unacknowledged records are
  /// truncated away so a rejected batch cannot be replayed at recovery.
  Status Sync();

  /// True once an I/O failure sealed the log. Appends are refused until a
  /// Reset() (the checkpoint commit tail) re-establishes a clean file.
  bool sealed() const { return sealed_; }

  /// The error every operation on a sealed log returns (carries the
  /// original failure's message).
  Status SealedStatus() const;

  /// Bytes currently sitting in the user-space buffer (lost on kill).
  size_t buffered_bytes() const { return buffer_.size(); }
  /// Cumulative bytes handed to write(2) since Open.
  uint64_t bytes_written() const { return bytes_written_; }
  /// File size covered by the last acknowledged fsync — the boundary every
  /// durability guarantee (and the replication ship cursor) is defined
  /// against. Bytes past it may be torn or belong to rejected batches.
  uint64_t durable_size() const { return durable_size_; }
  /// Heap owned by the buffer + replay scratch — feeds the session's
  /// RetainedBytes accounting.
  size_t RetainedBytes() const {
    return buffer_.capacity() + replay_scratch_.capacity() * sizeof(VoteEvent);
  }

  struct ReplayStats {
    uint64_t votes = 0;
    uint64_t records = 0;
    /// Trailing torn / corrupt / bounds-violating records dropped (the file
    /// was physically truncated back to the last intact record).
    uint64_t torn_records = 0;
  };

  /// Scans every record after the header, verifying framing, CRC, and vote
  /// bounds (ValidateVoteBounds), handing each intact batch to `apply` in
  /// file order. The first bad record truncates the file at the end of the
  /// preceding record — a torn group commit cleanly disappears instead of
  /// poisoning recovery — and stops the scan. Call before the first Append;
  /// the WAL stays appendable afterwards. An `apply` error propagates
  /// (recovery fails) without truncating.
  Result<ReplayStats> ReplayAndTruncate(
      size_t num_items,
      const std::function<Status(std::span<const VoteEvent>)>& apply);

  /// Discards the buffer and every record: truncates to a fresh header
  /// carrying `new_generation`, then fsyncs. The checkpoint-commit tail;
  /// on success it also unseals the log (the checkpoint now carries every
  /// vote the dropped tail ever held).
  Status Reset(uint64_t new_generation);

 private:
  Status WriteHeader(uint64_t generation);
  /// Marks the log sealed after `cause` and cuts the file back to
  /// `durable_size_` (best effort — the seal alone already stops appends
  /// from landing past the damage).
  void Seal(const Status& cause);

  int fd_ = -1;
  std::string path_;
  uint64_t generation_ = 0;
  uint64_t bytes_written_ = 0;
  /// File size covered by the last successful fsync — the boundary Seal()
  /// truncates back to.
  uint64_t durable_size_ = 0;
  /// File size including write(2)n-but-unsynced bytes.
  uint64_t written_size_ = 0;
  bool sealed_ = false;
  std::string seal_reason_;
  std::vector<uint8_t> buffer_;
  std::vector<VoteEvent> replay_scratch_;
};

// ---------------------------------------------------------------------------
// Record scanning — shared between recovery and replication.
// ---------------------------------------------------------------------------

struct WalScanResult {
  uint64_t votes = 0;
  uint64_t records = 0;
  /// Byte offset (into the scanned body) just past the last intact record.
  size_t clean_end = 0;
  /// True when damage (bad framing, CRC mismatch, out-of-bounds vote) or a
  /// short tail was found after `clean_end`.
  bool torn = false;
};

/// Scans `body` (WAL record frames, no file header) record by record,
/// verifying framing, CRC, and vote bounds, handing each intact batch to
/// `apply` in order. Stops at the first damaged or incomplete record and
/// reports it via `torn`/`clean_end` — the caller decides whether that means
/// "truncate the tail" (recovery) or "reject the artifact" (a shipped
/// segment must scan clean end to end). An `apply` error propagates.
Result<WalScanResult> ScanWalRecords(
    std::span<const uint8_t> body, size_t num_items,
    const std::function<Status(std::span<const VoteEvent>)>& apply,
    std::vector<VoteEvent>& scratch);

// ---------------------------------------------------------------------------
// WAL segments — the unit of replication shipping.
//
// A segment is a self-describing slice of the primary WAL's fsync-
// acknowledged body: `payload` holds raw record frames copied from
// [start_offset, start_offset + payload.size()) of wal.log, and the header
// pins where the slice belongs (generation, 1-based sequence number within
// the generation, byte offset) plus the primary's cumulative durable vote
// count after the slice (feeds replica lag) and the fencing token it was
// shipped under (a promoted standby raises the fence so a zombie primary's
// stale segments are rejected at the transport). The trailing CRC covers
// header + payload, so a torn upload is detected before any byte is applied.
//
// Wire layout (little-endian):
//   u32 magic 'DSEG' | u32 version (1) | u64 generation | u64 seq
//   | u64 start_offset | u64 cum_votes | u64 fencing_token
//   | u32 payload_size | payload | u32 crc32(all preceding bytes)
// ---------------------------------------------------------------------------
struct WalSegment {
  uint64_t generation = 0;
  uint64_t seq = 0;           // 1-based within a generation
  uint64_t start_offset = 0;  // byte offset of payload within wal.log
  uint64_t cum_votes = 0;     // primary durable votes after this segment
  uint64_t fencing_token = 0;
  std::vector<uint8_t> payload;
};

/// Serializes `segment` (header + payload + CRC) into `out` (cleared first).
void EncodeWalSegment(const WalSegment& segment, std::vector<uint8_t>& out);

/// Parses + fully validates one encoded segment (magic, version, size
/// framing, CRC). `context` names the artifact for error messages. Any
/// damage is a hard error — a segment is applied whole or not at all.
Result<WalSegment> DecodeWalSegment(std::span<const uint8_t> bytes,
                                    const std::string& context);

// ---------------------------------------------------------------------------
// Checkpoints — the kCounts CompactedVoteStore state as a snapshot format.
//
// A checkpoint serializes exactly the state a kCounts retention log keeps:
// either the compacted per-(worker, item) count matrix in its reproducible
// first-arrival slot order (kPairs — serialized kCounts logs and striped
// logs that maintain pair counts, shards concatenated in stripe order), or
// the per-item tally columns (kTallies — striped tally-only panels, which
// by construction have no matrix consumer). Restoring is a synthetic
// replay: EmitCheckpointVotes re-emits the counts as a vote stream in slot
// order, which rebuilds a bit-identical store through the ordinary ingest
// path — no deserialization backdoor into the log's internals.
// ---------------------------------------------------------------------------
struct CheckpointData {
  enum class Variant : uint8_t {
    kPairs = 0,    // columns are slot-ordered worker/item/dirty/clean
    kTallies = 1,  // columns are per-item positive/total
  };

  /// The WAL generation this snapshot supersedes: after the checkpoint is
  /// committed the live WAL is Reset() to this generation.
  uint64_t wal_generation = 1;
  uint64_t num_items = 0;
  uint64_t num_events = 0;
  uint64_t num_tasks = 0;
  uint64_t num_workers = 0;
  Variant variant = Variant::kPairs;
  /// kPairs: parallel slot-ordered columns (length = #pairs).
  std::vector<uint32_t> workers;
  std::vector<uint32_t> items;
  std::vector<uint32_t> dirty;
  std::vector<uint32_t> clean;
  /// kTallies: parallel per-item columns (length = num_items).
  std::vector<uint32_t> positive;
  std::vector<uint32_t> total;

  size_t MemoryBytes() const {
    return (workers.capacity() + items.capacity() + dirty.capacity() +
            clean.capacity() + positive.capacity() + total.capacity()) *
           sizeof(uint32_t);
  }
};

/// Snapshots a quiescent kCounts log (no committer may be running — the
/// caller holds the WAL quiesce + reconcile pause). Picks kPairs when the
/// log maintains pair counts, kTallies otherwise. FailedPrecondition for a
/// kFullEvents log (checkpoints are a kCounts format by design).
Result<CheckpointData> CheckpointFromLog(const ResponseLog& log,
                                         uint64_t wal_generation);

/// Atomically writes `data` to `path`: serialize + CRC into `path`.tmp,
/// fsync, rename over `path`, fsync the parent directory.
Status WriteCheckpointFile(const std::string& path, const CheckpointData& data);

/// Reads + fully validates a checkpoint (magic, version, CRC, column shape,
/// count consistency). A checkpoint is rename-committed, so any damage here
/// is real corruption and fails recovery loudly rather than silently.
Result<CheckpointData> ReadCheckpointFile(const std::string& path);

/// Validates + parses an in-memory checkpoint image (the byte-level half of
/// ReadCheckpointFile) — used by the standby applier, which receives
/// checkpoints as transport artifacts rather than local files. `context`
/// names the source for error messages.
Result<CheckpointData> DecodeCheckpoint(std::span<const uint8_t> bytes,
                                        const std::string& context);

/// Re-emits the checkpoint's state as a synthetic vote stream, in slot
/// (kPairs) or item (kTallies) order, batched through `apply`. Feeding the
/// stream to an empty pipeline rebuilds tallies, pair counts, and
/// task/worker bounds bit-identically (see CompactedVoteStore's
/// first-arrival slot-order guarantee).
Status EmitCheckpointVotes(
    const CheckpointData& data,
    const std::function<Status(std::span<const VoteEvent>)>& apply);

}  // namespace dqm::crowd

#endif  // DQM_CROWD_WAL_H_
