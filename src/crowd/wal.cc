#include "crowd/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/io.h"

namespace dqm::crowd {

namespace {

// --- File-format constants -------------------------------------------------

constexpr uint32_t kWalMagic = 0x4C415744;         // "DWAL" on disk
constexpr uint32_t kWalVersion = 1;
// kWalHeaderBytes (magic + version + gen) lives in wal.h — replication
// ships body slices relative to it.
constexpr size_t kRecordFrameBytes = 8;            // payload_size + crc
constexpr size_t kVoteBytes = 13;                  // 3 x u32 + vote byte

constexpr uint32_t kCheckpointMagic = 0x50435144;  // "DQCP" on disk
constexpr uint32_t kCheckpointVersion = 1;

constexpr uint32_t kSegmentMagic = 0x47455344;     // "DSEG" on disk
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 52;         // through payload_size

constexpr size_t kEmitBatchVotes = 4096;

// --- Little-endian (de)serialization helpers -------------------------------

void PutU32(std::vector<uint8_t>& out, uint32_t value) {
  out.push_back(static_cast<uint8_t>(value));
  out.push_back(static_cast<uint8_t>(value >> 8));
  out.push_back(static_cast<uint8_t>(value >> 16));
  out.push_back(static_cast<uint8_t>(value >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value));
  PutU32(out, static_cast<uint32_t>(value >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// All write/fsync/rename/read edges below go through the failpoint-
// instrumented, retrying wrappers in crowd/io.h (the raw-syscall lint rule
// holds this file to that); only the metadata-only calls (fstat, lseek,
// close) stay raw.
namespace io = ::dqm::crowd::io;
namespace fpn = ::dqm::crowd::io::fpn;

const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& table = Crc32Table();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFF];
  }
  return ~crc;
}

Status ValidateVoteBounds(uint32_t task, uint32_t worker, uint32_t item,
                          size_t num_items) {
  if (item >= num_items) {
    return Status::OutOfRange(StrFormat("item id %u >= num_items %zu", item,
                                        num_items));
  }
  if (worker > kMaxWorkerId) {
    return Status::OutOfRange(
        StrFormat("worker id %u exceeds the cap %u", worker, kMaxWorkerId));
  }
  if (task > kMaxTaskId) {
    return Status::OutOfRange(
        StrFormat("task id %u exceeds the cap %u", task, kMaxTaskId));
  }
  return Status::OK();
}

// --- VoteWal ---------------------------------------------------------------

VoteWal::~VoteWal() {
  if (fd_ >= 0) ::close(fd_);
}

VoteWal::VoteWal(VoteWal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      generation_(other.generation_),
      bytes_written_(other.bytes_written_),
      durable_size_(other.durable_size_),
      written_size_(other.written_size_),
      sealed_(other.sealed_),
      seal_reason_(std::move(other.seal_reason_)),
      buffer_(std::move(other.buffer_)),
      replay_scratch_(std::move(other.replay_scratch_)) {}

VoteWal& VoteWal::operator=(VoteWal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    generation_ = other.generation_;
    bytes_written_ = other.bytes_written_;
    durable_size_ = other.durable_size_;
    written_size_ = other.written_size_;
    sealed_ = other.sealed_;
    seal_reason_ = std::move(other.seal_reason_);
    buffer_ = std::move(other.buffer_);
    replay_scratch_ = std::move(other.replay_scratch_);
  }
  return *this;
}

Status VoteWal::WriteHeader(uint64_t generation) {
  std::vector<uint8_t> header;
  header.reserve(kWalHeaderBytes);
  PutU32(header, kWalMagic);
  PutU32(header, kWalVersion);
  PutU64(header, generation);
  DQM_RETURN_NOT_OK(
      io::WriteAll(fpn::kWalWrite, fd_, header.data(), header.size(), path_));
  DQM_RETURN_NOT_OK(io::Fsync(fpn::kWalFsync, fd_, path_));
  bytes_written_ += header.size();
  written_size_ = kWalHeaderBytes;
  durable_size_ = kWalHeaderBytes;
  generation_ = generation;
  return Status::OK();
}

Result<VoteWal> VoteWal::Open(const std::string& path) {
  VoteWal wal;
  wal.path_ = path;
  DQM_ASSIGN_OR_RETURN(
      wal.fd_, io::Open(fpn::kWalOpen, path, O_RDWR | O_CREAT | O_CLOEXEC,
                        0644));
  struct stat st;
  if (::fstat(wal.fd_, &st) != 0) {
    return io::ErrnoError("stat", path, errno);
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kWalHeaderBytes) {
    // Fresh file, or a crash landed mid-way through the very first header
    // write (the header is synced before any record can follow it, so a
    // short file cannot hold committed votes). Start at generation 1.
    if (size != 0) {
      DQM_RETURN_NOT_OK(io::Ftruncate(fpn::kWalTruncate, wal.fd_, 0, path));
    }
    if (::lseek(wal.fd_, 0, SEEK_SET) < 0) {
      return io::ErrnoError("seek", path, errno);
    }
    DQM_RETURN_NOT_OK(wal.WriteHeader(1));
  } else {
    uint8_t header[kWalHeaderBytes];
    DQM_RETURN_NOT_OK(io::ReadExactAt(fpn::kWalRead, wal.fd_, header,
                                      kWalHeaderBytes, 0, path));
    if (GetU32(header) != kWalMagic) {
      return Status::InvalidArgument(
          StrFormat("'%s' is not a DQM vote WAL (bad magic)", path.c_str()));
    }
    uint32_t version = GetU32(header + 4);
    if (version != kWalVersion) {
      return Status::InvalidArgument(StrFormat(
          "'%s': unsupported WAL version %u", path.c_str(), version));
    }
    wal.generation_ = GetU64(header + 8);
    if (::lseek(wal.fd_, 0, SEEK_END) < 0) {
      return io::ErrnoError("seek", path, errno);
    }
    // Whatever an earlier process left on disk is the durable baseline; a
    // torn tail inside it is found and cut by ReplayAndTruncate.
    wal.written_size_ = size;
    wal.durable_size_ = size;
  }
  return wal;
}

void VoteWal::Append(std::span<const VoteEvent> events) {
  if (sealed_ || events.empty()) return;
  const uint32_t count = static_cast<uint32_t>(events.size());
  const size_t payload_size = 4 + kVoteBytes * events.size();
  const size_t record_start = buffer_.size();
  buffer_.reserve(record_start + kRecordFrameBytes + payload_size);
  PutU32(buffer_, static_cast<uint32_t>(payload_size));
  PutU32(buffer_, 0);  // crc placeholder, patched below
  PutU32(buffer_, count);
  for (const VoteEvent& event : events) {
    PutU32(buffer_, event.task);
    PutU32(buffer_, event.worker);
    PutU32(buffer_, event.item);
    buffer_.push_back(static_cast<uint8_t>(event.vote));
  }
  const uint8_t* payload = buffer_.data() + record_start + kRecordFrameBytes;
  uint32_t crc = Crc32(payload, payload_size);
  uint8_t* crc_at = buffer_.data() + record_start + 4;
  crc_at[0] = static_cast<uint8_t>(crc);
  crc_at[1] = static_cast<uint8_t>(crc >> 8);
  crc_at[2] = static_cast<uint8_t>(crc >> 16);
  crc_at[3] = static_cast<uint8_t>(crc >> 24);
}

void VoteWal::Seal(const Status& cause) {
  sealed_ = true;
  seal_reason_ = cause.message();
  buffer_.clear();
  // Cut the file back to the last fsync-acknowledged boundary: everything
  // past it belongs to batches the owner is rejecting (or to a torn write)
  // and must not resurrect at recovery as CRC-valid records. Best effort —
  // if the truncate or its fsync also fails, the seal still guarantees no
  // later append lands past the damage, so recovery's scan can at worst
  // see the rejected tail, never lose an acknowledged record behind it.
  if (io::Ftruncate(fpn::kWalTruncate, fd_, durable_size_, path_).ok() &&
      ::lseek(fd_, static_cast<off_t>(durable_size_), SEEK_SET) >= 0) {
    written_size_ = durable_size_;
    Status synced = io::Fsync(fpn::kWalFsync, fd_, path_);
    (void)synced;  // best effort — see above
  }
}

Status VoteWal::SealedStatus() const {
  return Status::IOError(StrFormat(
      "WAL '%s' is sealed after an I/O failure (%s); appends are rejected "
      "until a checkpoint resets it", path_.c_str(), seal_reason_.c_str()));
}

Status VoteWal::WriteBuffered() {
  if (sealed_) return SealedStatus();
  if (buffer_.empty()) return Status::OK();
  Status status = io::WriteAll(fpn::kWalWrite, fd_, buffer_.data(),
                               buffer_.size(), path_);
  if (!status.ok()) {
    // A failed or short write leaves the fd offset and an unknown number of
    // torn bytes past the durable boundary; seal so no future append can be
    // acknowledged behind them (recovery truncates at the first bad record).
    Seal(status);
    return status;
  }
  bytes_written_ += buffer_.size();
  written_size_ += buffer_.size();
  buffer_.clear();
  return status;
}

Status VoteWal::Sync() {
  if (sealed_) return SealedStatus();
  DQM_RETURN_NOT_OK(WriteBuffered());
  Status status = io::Fsync(fpn::kWalFsync, fd_, path_);
  if (!status.ok()) {
    // The records reached write(2) but their durability was never
    // acknowledged, so the owner rejects the batch — truncate them away
    // (they are complete, CRC-valid frames that replay would apply).
    Seal(status);
    return status;
  }
  durable_size_ = written_size_;
  return status;
}

Result<WalScanResult> ScanWalRecords(
    std::span<const uint8_t> body, size_t num_items,
    const std::function<Status(std::span<const VoteEvent>)>& apply,
    std::vector<VoteEvent>& scratch) {
  WalScanResult result;
  const size_t body_size = body.size();
  size_t offset = 0;
  while (body_size - offset >= kRecordFrameBytes) {
    const uint32_t payload_size = GetU32(body.data() + offset);
    if (payload_size < 4 || (payload_size - 4) % kVoteBytes != 0 ||
        payload_size > body_size - offset - kRecordFrameBytes) {
      result.torn = true;  // framing damage, or record runs past end of body
      return result;
    }
    const uint32_t stored_crc = GetU32(body.data() + offset + 4);
    const uint8_t* payload = body.data() + offset + kRecordFrameBytes;
    if (Crc32(payload, payload_size) != stored_crc) {
      result.torn = true;
      return result;
    }
    const uint32_t count = GetU32(payload);
    if (4 + kVoteBytes * static_cast<size_t>(count) != payload_size) {
      result.torn = true;
      return result;
    }
    scratch.clear();
    scratch.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      const uint8_t* vote = payload + 4 + kVoteBytes * static_cast<size_t>(i);
      VoteEvent event;
      event.task = GetU32(vote);
      event.worker = GetU32(vote + 4);
      event.item = GetU32(vote + 8);
      const uint8_t vote_byte = vote[12];
      // The same validation path the CSV reader uses: a record whose ids or
      // vote byte fail the bounds check is treated as corruption, never fed
      // to the pipeline.
      if (vote_byte > 1 ||
          !ValidateVoteBounds(event.task, event.worker, event.item, num_items)
               .ok()) {
        result.torn = true;
        return result;
      }
      event.vote = vote_byte == 1 ? Vote::kDirty : Vote::kClean;
      scratch.push_back(event);
    }
    DQM_RETURN_NOT_OK(apply(std::span<const VoteEvent>(scratch)));
    result.votes += count;
    ++result.records;
    offset += kRecordFrameBytes + payload_size;
    result.clean_end = offset;
  }
  // A partial trailing frame header (under kRecordFrameBytes) is a torn
  // write too.
  result.torn = result.torn || offset < body_size;
  return result;
}

Result<VoteWal::ReplayStats> VoteWal::ReplayAndTruncate(
    size_t num_items,
    const std::function<Status(std::span<const VoteEvent>)>& apply) {
  ReplayStats stats;
  struct stat st;
  if (::fstat(fd_, &st) != 0) return io::ErrnoError("stat", path_, errno);
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size <= kWalHeaderBytes) return stats;
  const size_t body_size = static_cast<size_t>(file_size - kWalHeaderBytes);
  std::vector<uint8_t> body(body_size);
  DQM_RETURN_NOT_OK(io::ReadExactAt(fpn::kWalRead, fd_, body.data(),
                                    body_size, kWalHeaderBytes, path_));

  DQM_ASSIGN_OR_RETURN(
      WalScanResult scan,
      ScanWalRecords(std::span<const uint8_t>(body), num_items, apply,
                     replay_scratch_));
  stats.votes = scan.votes;
  stats.records = scan.records;
  if (scan.torn) {
    // Torn tail: physically cut the file back to the last intact record so
    // the WAL is clean for future appends and re-recoveries.
    stats.torn_records = 1;
    const uint64_t keep = kWalHeaderBytes + scan.clean_end;
    DQM_LOG(Warning) << "WAL '" << path_ << "': truncating "
                     << (file_size - keep)
                     << " trailing bytes (torn or corrupt record)";
    DQM_RETURN_NOT_OK(io::Ftruncate(fpn::kWalTruncate, fd_, keep, path_));
    DQM_RETURN_NOT_OK(io::Fsync(fpn::kWalFsync, fd_, path_));
    written_size_ = keep;
    durable_size_ = keep;
  } else {
    written_size_ = file_size;
    durable_size_ = file_size;
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return io::ErrnoError("seek", path_, errno);
  }
  return stats;
}

Status VoteWal::Reset(uint64_t new_generation) {
  buffer_.clear();
  if (Status status = io::Ftruncate(fpn::kWalTruncate, fd_, 0, path_);
      !status.ok()) {
    Seal(status);
    return status;
  }
  written_size_ = 0;
  durable_size_ = 0;
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    Status status = io::ErrnoError("seek", path_, errno);
    Seal(status);
    return status;
  }
  Status status = WriteHeader(new_generation);
  if (!status.ok()) {
    Seal(status);
    return status;
  }
  // A clean, empty, synced file: safe to unseal — every vote the dropped
  // tail ever held is inside the checkpoint that triggered this Reset.
  sealed_ = false;
  seal_reason_.clear();
  return Status::OK();
}

// --- WAL segments ----------------------------------------------------------

void EncodeWalSegment(const WalSegment& segment, std::vector<uint8_t>& out) {
  out.clear();
  out.reserve(kSegmentHeaderBytes + segment.payload.size() + 4);
  PutU32(out, kSegmentMagic);
  PutU32(out, kSegmentVersion);
  PutU64(out, segment.generation);
  PutU64(out, segment.seq);
  PutU64(out, segment.start_offset);
  PutU64(out, segment.cum_votes);
  PutU64(out, segment.fencing_token);
  PutU32(out, static_cast<uint32_t>(segment.payload.size()));
  out.insert(out.end(), segment.payload.begin(), segment.payload.end());
  PutU32(out, Crc32(out.data(), out.size()));
}

Result<WalSegment> DecodeWalSegment(std::span<const uint8_t> bytes,
                                    const std::string& context) {
  auto corrupt = [&context](const char* why) {
    return Status::IOError(
        StrFormat("corrupt WAL segment '%s': %s", context.c_str(), why));
  };
  if (bytes.size() < kSegmentHeaderBytes + 4) return corrupt("too short");
  if (Crc32(bytes.data(), bytes.size() - 4) !=
      GetU32(bytes.data() + bytes.size() - 4)) {
    return corrupt("checksum mismatch");
  }
  if (GetU32(bytes.data()) != kSegmentMagic) return corrupt("bad magic");
  if (GetU32(bytes.data() + 4) != kSegmentVersion) {
    return corrupt("unsupported version");
  }
  WalSegment segment;
  segment.generation = GetU64(bytes.data() + 8);
  segment.seq = GetU64(bytes.data() + 16);
  segment.start_offset = GetU64(bytes.data() + 24);
  segment.cum_votes = GetU64(bytes.data() + 32);
  segment.fencing_token = GetU64(bytes.data() + 40);
  const uint32_t payload_size = GetU32(bytes.data() + 48);
  if (payload_size != bytes.size() - kSegmentHeaderBytes - 4) {
    return corrupt("payload size mismatch");
  }
  if (segment.seq == 0) return corrupt("zero sequence number");
  segment.payload.assign(bytes.begin() + kSegmentHeaderBytes,
                         bytes.end() - 4);
  return segment;
}

// --- Checkpoints -----------------------------------------------------------

Result<CheckpointData> CheckpointFromLog(const ResponseLog& log,
                                         uint64_t wal_generation) {
  if (log.retention() != RetentionPolicy::kCounts) {
    return Status::FailedPrecondition(
        "checkpoints serialize kCounts compacted state; this log retains "
        "full events");
  }
  CheckpointData data;
  data.wal_generation = wal_generation;
  data.num_items = log.num_items();
  data.num_events = log.num_events();
  data.num_tasks = log.num_tasks();
  data.num_workers = log.num_workers();
  if (log.maintains_pair_counts()) {
    data.variant = CheckpointData::Variant::kPairs;
    std::vector<const CompactedVoteStore*> blocks;
    log.AppendCountMatrixBlocks(blocks);
    size_t pairs = 0;
    for (const CompactedVoteStore* block : blocks) pairs += block->num_pairs();
    data.workers.reserve(pairs);
    data.items.reserve(pairs);
    data.dirty.reserve(pairs);
    data.clean.reserve(pairs);
    // Shards are concatenated in stripe order; within a shard slots keep
    // their first-arrival order. Restoring replays the same concatenation,
    // which routes each pair back to its stripe and rebuilds every shard
    // slot-for-slot.
    for (const CompactedVoteStore* block : blocks) {
      data.workers.insert(data.workers.end(), block->workers().begin(),
                          block->workers().end());
      data.items.insert(data.items.end(), block->items().begin(),
                        block->items().end());
      data.dirty.insert(data.dirty.end(), block->dirty_counts().begin(),
                        block->dirty_counts().end());
      data.clean.insert(data.clean.end(), block->clean_counts().begin(),
                        block->clean_counts().end());
    }
  } else {
    data.variant = CheckpointData::Variant::kTallies;
    std::span<const uint32_t> positive = log.positive_counts();
    std::span<const uint32_t> total = log.total_counts();
    data.positive.assign(positive.begin(), positive.end());
    data.total.assign(total.begin(), total.end());
  }
  return data;
}

namespace {

void PutColumn(std::vector<uint8_t>& out, const std::vector<uint32_t>& col) {
  for (uint32_t v : col) PutU32(out, v);
}

void GetColumn(const uint8_t* data, size_t n, std::vector<uint32_t>& col) {
  col.resize(n);
  for (size_t i = 0; i < n; ++i) col[i] = GetU32(data + 4 * i);
}

}  // namespace

Status WriteCheckpointFile(const std::string& path,
                           const CheckpointData& data) {
  const bool pairs = data.variant == CheckpointData::Variant::kPairs;
  const size_t n = pairs ? data.workers.size() : data.positive.size();
  std::vector<uint8_t> bytes;
  bytes.reserve(57 + 4 * n * (pairs ? 4 : 2) + 4);
  PutU32(bytes, kCheckpointMagic);
  PutU32(bytes, kCheckpointVersion);
  PutU64(bytes, data.wal_generation);
  PutU64(bytes, data.num_items);
  PutU64(bytes, data.num_events);
  PutU64(bytes, data.num_tasks);
  PutU64(bytes, data.num_workers);
  bytes.push_back(static_cast<uint8_t>(data.variant));
  PutU64(bytes, n);
  if (pairs) {
    PutColumn(bytes, data.workers);
    PutColumn(bytes, data.items);
    PutColumn(bytes, data.dirty);
    PutColumn(bytes, data.clean);
  } else {
    PutColumn(bytes, data.positive);
    PutColumn(bytes, data.total);
  }
  PutU32(bytes, Crc32(bytes.data(), bytes.size()));
  return io::AtomicWriteFile(fpn::kCheckpoint, path, bytes);
}

Result<CheckpointData> ReadCheckpointFile(const std::string& path) {
  DQM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       io::ReadFile(fpn::kCheckpoint, path));
  return DecodeCheckpoint(std::span<const uint8_t>(bytes), path);
}

Result<CheckpointData> DecodeCheckpoint(std::span<const uint8_t> bytes,
                                        const std::string& context) {
  auto corrupt = [&context](const char* why) {
    return Status::IOError(
        StrFormat("corrupt checkpoint '%s': %s", context.c_str(), why));
  };
  constexpr size_t kFixedBytes = 57;  // through the column length
  if (bytes.size() < kFixedBytes + 4) return corrupt("file too short");
  if (Crc32(bytes.data(), bytes.size() - 4) !=
      GetU32(bytes.data() + bytes.size() - 4)) {
    return corrupt("checksum mismatch");
  }
  if (GetU32(bytes.data()) != kCheckpointMagic) return corrupt("bad magic");
  if (GetU32(bytes.data() + 4) != kCheckpointVersion) {
    return corrupt("unsupported version");
  }
  CheckpointData data;
  data.wal_generation = GetU64(bytes.data() + 8);
  data.num_items = GetU64(bytes.data() + 16);
  data.num_events = GetU64(bytes.data() + 24);
  data.num_tasks = GetU64(bytes.data() + 32);
  data.num_workers = GetU64(bytes.data() + 40);
  const uint8_t variant = bytes[48];
  if (variant > 1) return corrupt("unknown variant");
  data.variant = static_cast<CheckpointData::Variant>(variant);
  const uint64_t n = GetU64(bytes.data() + 49);
  const size_t num_columns =
      data.variant == CheckpointData::Variant::kPairs ? 4 : 2;
  // Bound the column count before multiplying: a crafted n (e.g. 2^60 with
  // 4 columns) wraps 4*n*num_columns in uint64, slips past the equality
  // check, and turns into a giant resize instead of a corruption error.
  if (n > (bytes.size() - kFixedBytes - 4) / (4 * num_columns)) {
    return corrupt("column count exceeds file size");
  }
  if (bytes.size() != kFixedBytes + 4 * n * num_columns + 4) {
    return corrupt("column size mismatch");
  }
  const uint8_t* cols = bytes.data() + kFixedBytes;
  uint64_t events = 0;
  if (data.variant == CheckpointData::Variant::kPairs) {
    GetColumn(cols + 0 * 4 * n, n, data.workers);
    GetColumn(cols + 1 * 4 * n, n, data.items);
    GetColumn(cols + 2 * 4 * n, n, data.dirty);
    GetColumn(cols + 3 * 4 * n, n, data.clean);
    for (size_t i = 0; i < n; ++i) {
      // Widened before summing so a crafted pair of ~2^31 counts cannot
      // wrap to a small value and pass the vote-count consistency check.
      const uint64_t slot_votes =
          static_cast<uint64_t>(data.dirty[i]) + data.clean[i];
      if (slot_votes == 0) return corrupt("empty pair slot");
      DQM_RETURN_NOT_OK(ValidateVoteBounds(0, data.workers[i], data.items[i],
                                           data.num_items));
      events += slot_votes;
    }
  } else {
    if (n != data.num_items) return corrupt("tally column length != items");
    GetColumn(cols + 0 * 4 * n, n, data.positive);
    GetColumn(cols + 1 * 4 * n, n, data.total);
    for (size_t i = 0; i < n; ++i) {
      if (data.positive[i] > data.total[i]) {
        return corrupt("positive tally exceeds total");
      }
      events += data.total[i];
    }
  }
  if (events != data.num_events) return corrupt("vote count mismatch");
  if (data.num_events > 0 && (data.num_tasks == 0 || data.num_workers == 0)) {
    return corrupt("votes without task/worker bounds");
  }
  if (data.num_tasks > static_cast<uint64_t>(kMaxTaskId) + 1 ||
      data.num_workers > static_cast<uint64_t>(kMaxWorkerId) + 1) {
    return corrupt("task/worker bound exceeds id cap");
  }
  return data;
}

Status EmitCheckpointVotes(
    const CheckpointData& data,
    const std::function<Status(std::span<const VoteEvent>)>& apply) {
  if (data.num_events == 0) return Status::OK();
  std::vector<VoteEvent> batch;
  batch.reserve(kEmitBatchVotes);
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    Status status = apply(std::span<const VoteEvent>(batch));
    batch.clear();
    return status;
  };
  // All synthetic votes carry the max observed task id so the rebuilt
  // pipeline's task bound lands exactly on num_tasks (tasks are not part of
  // the compacted state — only their bound survives a checkpoint).
  const uint32_t task = static_cast<uint32_t>(data.num_tasks - 1);
  auto emit = [&](uint32_t worker, uint32_t item, Vote vote,
                  uint32_t count) -> Status {
    for (uint32_t i = 0; i < count; ++i) {
      batch.push_back(VoteEvent{task, worker, item, vote});
      if (batch.size() == kEmitBatchVotes) DQM_RETURN_NOT_OK(flush());
    }
    return Status::OK();
  };
  if (data.variant == CheckpointData::Variant::kPairs) {
    for (size_t slot = 0; slot < data.workers.size(); ++slot) {
      DQM_RETURN_NOT_OK(emit(data.workers[slot], data.items[slot],
                             Vote::kDirty, data.dirty[slot]));
      DQM_RETURN_NOT_OK(emit(data.workers[slot], data.items[slot],
                             Vote::kClean, data.clean[slot]));
    }
  } else {
    // Tally-only panels never read (worker, item) pairs, so the synthetic
    // worker id only has to restore the worker *bound*.
    const uint32_t worker = static_cast<uint32_t>(data.num_workers - 1);
    for (size_t item = 0; item < data.total.size(); ++item) {
      DQM_RETURN_NOT_OK(emit(worker, static_cast<uint32_t>(item), Vote::kDirty,
                             data.positive[item]));
      DQM_RETURN_NOT_OK(
          emit(worker, static_cast<uint32_t>(item), Vote::kClean,
               data.total[item] - data.positive[item]));
    }
  }
  return flush();
}

}  // namespace dqm::crowd
