#include "crowd/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
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

// --- Little-endian (de)serialization helpers -------------------------------

// On a little-endian host a load or store is one plain unaligned move. The
// shift-per-byte form is kept for big-endian hosts only: in the vote loops
// GCC -O3 vectorizes it into shuffle-heavy code several times slower.
void StoreU32(uint8_t* p, uint32_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &value, sizeof(value));
  } else {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void PutU32(std::vector<uint8_t>& out, uint32_t value) {
  out.resize(out.size() + 4);
  StoreU32(out.data() + out.size() - 4, value);
}

void PutU64(std::vector<uint8_t>& out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value));
  PutU32(out, static_cast<uint32_t>(value >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, sizeof(value));
  } else {
    for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return value;
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

// Slicing-by-8 tables for the reflected IEEE polynomial. kCrc32Tables[0] is
// the classic bytewise table; kCrc32Tables[k][b] is the CRC register after
// byte b followed by k zero bytes, so one lookup per byte of an 8-byte
// block folds the whole block into the register at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const Crc32Tables& t = kCrc32Tables;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = GetU32(bytes) ^ crc;
    const uint32_t hi = GetU32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFF];
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

// Each cap is 2^k - 1, so the OR of one field over a batch exceeds the cap
// iff some vote's does: the check is OR and max reductions with one test at
// the end, no branch per vote.
static_assert((kMaxWorkerId & (kMaxWorkerId + 1)) == 0);
static_assert((kMaxTaskId & (kMaxTaskId + 1)) == 0);

bool VotesInBounds(std::span<const VoteEvent> events, size_t num_items) {
  uint32_t tasks = 0;
  uint32_t workers = 0;
  uint32_t vote_bytes = 0;
  uint32_t max_item = 0;
  for (const VoteEvent& event : events) {
    tasks |= event.task;
    workers |= event.worker;
    vote_bytes |= static_cast<uint8_t>(event.vote);
    max_item = std::max(max_item, event.item);
  }
  return tasks <= kMaxTaskId && workers <= kMaxWorkerId && vote_bytes <= 1 &&
         (events.empty() || max_item < num_items);
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
  const size_t payload_size = 4 + kVoteBytes * events.size();
  const size_t record_start = buffer_.size();
  // One resize per record (geometric growth, so an undrained buffer stays
  // amortized O(1) per byte), then plain stores into the new tail.
  buffer_.resize(record_start + kRecordFrameBytes + payload_size);
  uint8_t* record = buffer_.data() + record_start;
  uint8_t* payload = record + kRecordFrameBytes;
  StoreU32(record, static_cast<uint32_t>(payload_size));
  StoreU32(payload, static_cast<uint32_t>(events.size()));
  uint8_t* vote = payload + 4;
  for (const VoteEvent& event : events) {
    StoreU32(vote, event.task);
    StoreU32(vote + 4, event.worker);
    StoreU32(vote + 8, event.item);
    vote[12] = static_cast<uint8_t>(event.vote);
    vote += kVoteBytes;
  }
  StoreU32(record + 4, Crc32(payload, payload_size));
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
    scratch.resize(count);
    const uint8_t* vote = payload + 4;
    for (VoteEvent& event : scratch) {
      event.task = GetU32(vote);
      event.worker = GetU32(vote + 4);
      event.item = GetU32(vote + 8);
      event.vote = static_cast<Vote>(vote[12]);
      vote += kVoteBytes;
    }
    // A record no session would have acknowledged (ids or vote byte out of
    // bounds) is treated as corruption, never fed to the pipeline.
    if (!VotesInBounds(scratch, num_items)) {
      result.torn = true;
      return result;
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

// --- Checkpoints -----------------------------------------------------------

Result<CheckpointData> CheckpointFromLog(const ResponseLog& log,
                                         uint64_t wal_generation) {
  if (log.retention() == RetentionPolicy::kFullEvents) {
    return Status::FailedPrecondition(
        "checkpoints serialize counts; this log retains full events");
  }
  // The cut reads every tally anyway: audit them, so a diverged state is
  // never persisted.
  log.AuditTallies();
  CheckpointData data;
  data.wal_generation = wal_generation;
  data.num_items = log.num_items();
  data.num_events = log.num_events();
  data.num_tasks = log.num_tasks();
  data.num_workers = log.num_workers();
  if (log.retention() == RetentionPolicy::kCounts) {
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
    // their first-arrival order. ResponseLog::RestoreCheckpoint walks the
    // same concatenation, routing each pair back to its stripe, so every
    // shard is rebuilt slot for slot.
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

}  // namespace dqm::crowd
