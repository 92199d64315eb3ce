#ifndef DQM_CROWD_IO_H_
#define DQM_CROWD_IO_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// Failpoint-instrumented POSIX I/O for the durability stack.
///
/// Every syscall the WAL / checkpoint / manifest / replication machinery
/// issues goes through these wrappers instead of the raw calls, and every
/// errno is formatted by ErrnoError (tools/dqm_lint.py's raw-syscall rule
/// enforces both for crowd/wal*.cc, engine/durability*.cc and
/// engine/replication*.cc). Whole-file publish and read are
/// AtomicWriteFile and ReadFile. Each syscall wrapper:
///
///  - evaluates a named failpoint (common/failpoint.h) before EVERY
///    attempt, so scripted faults are indistinguishable from real ones to
///    the caller — including being retried;
///  - rides out transient errno classes (EINTR, EAGAIN/EWOULDBLOCK) with
///    bounded exponential backoff instead of surfacing them, counting
///    dqm_wal_retries_total / dqm_wal_retry_exhausted_total;
///  - treats short reads/writes as progress, not errors (the loop
///    continues without consuming retry budget).
///
/// Failpoint `return` actions (skip the syscall, report success) apply to
/// the mutating edges — write, fsync, rename, truncate — and model lost
/// I/O; open/read edges ignore them because the caller needs real bytes.
namespace dqm::crowd::io {

/// The failpoint names one kind of file evaluates, one per syscall edge of
/// AtomicWriteFile / ReadFile. `dirsync` covers the open + fsync of the
/// parent directory after the rename.
struct FileEdges {
  const char* open;
  const char* read;
  const char* write;
  const char* fsync;
  const char* rename;
  const char* dirsync;
};

/// Failpoint names for the durability-stack syscall edges, one per
/// (subsystem, operation). Arm them via `--failpoints=` / DQM_FAILPOINTS,
/// e.g. `dqm.wal.fsync=error(EIO)%0.3`.
namespace fpn {
inline constexpr char kWalOpen[] = "dqm.wal.open";
inline constexpr char kWalRead[] = "dqm.wal.read";
inline constexpr char kWalWrite[] = "dqm.wal.write";
inline constexpr char kWalFsync[] = "dqm.wal.fsync";
inline constexpr char kWalTruncate[] = "dqm.wal.truncate";
/// Session manifest (engine/durability.cc). Its dirsync edge also covers
/// the session directory's own dirents.
inline constexpr FileEdges kManifest{
    "dqm.manifest.open",   "dqm.manifest.read",   "dqm.manifest.write",
    "dqm.manifest.fsync",  "dqm.manifest.rename", "dqm.durability.dirsync",
};
/// Checkpoint files (crowd/wal.cc).
inline constexpr FileEdges kCheckpoint{
    "dqm.checkpoint.open",  "dqm.checkpoint.read",   "dqm.checkpoint.write",
    "dqm.checkpoint.fsync", "dqm.checkpoint.rename", "dqm.checkpoint.dirsync",
};
/// Replication transport artifacts and the primary's WAL reads
/// (engine/replication.cc, LocalDirTransport).
inline constexpr FileEdges kRepl{
    "dqm.repl.open",  "dqm.repl.read",   "dqm.repl.write",
    "dqm.repl.fsync", "dqm.repl.rename", "dqm.repl.dirsync",
};
}  // namespace fpn

/// The one errno formatter: "<op> '<path>': <strerror(err)>". ENOENT is
/// NotFound; every other errno is IOError.
Status ErrnoError(const char* op, const std::string& path, int err);

/// True for the errno classes the retry loop treats as transient: EINTR and
/// EAGAIN/EWOULDBLOCK. Spelled to stay correct on platforms where
/// EWOULDBLOCK is a distinct value rather than an alias of EAGAIN (POSIX
/// allows either; historically some SVR4-lineage systems differ).
bool IsTransientErrno(int err);

/// Budget for riding out transient errnos, process-global. The defaults
/// absorb bursts of EINTR/EAGAIN in well under a group-commit interval;
/// `--io_retry_max_attempts` and friends override them from the CLI.
struct RetryOptions {
  /// Total tries per syscall (1 = no retries).
  int max_attempts = 8;
  /// Sleep before the first retry; doubles per retry up to the cap. The
  /// first transient errno is retried immediately (EINTR is usually just a
  /// signal) — backoff kicks in from the second.
  uint64_t backoff_initial_us = 100;
  uint64_t backoff_max_us = 20'000;
};

RetryOptions GetRetryOptions();
void SetRetryOptions(const RetryOptions& options);

/// open(2). `failpoint` error actions fail the open; `return` is ignored
/// (there is no fd to fake).
Result<int> Open(const char* failpoint, const std::string& path, int flags,
                 mode_t mode = 0);

/// write(2) until `size` bytes landed.
Status WriteAll(const char* failpoint, int fd, const uint8_t* data,
                size_t size, const std::string& path);

/// pread(2) until `size` bytes arrived; hitting end-of-file first is an
/// IOError ("unexpected end of file"), not a retry.
Status ReadExactAt(const char* failpoint, int fd, uint8_t* data, size_t size,
                   uint64_t offset, const std::string& path);

/// fsync(2).
Status Fsync(const char* failpoint, int fd, const std::string& path);

/// Opens and fsyncs the directory containing `path`, so a just-renamed or
/// just-created entry survives power loss. The failpoint covers the whole
/// edge (open + fsync of the directory fd).
Status FsyncParentDir(const char* failpoint, const std::string& path);

/// rename(2) — the commit point of every tmp+rename dance.
Status Rename(const char* failpoint, const std::string& from,
              const std::string& to);

/// ftruncate(2).
Status Ftruncate(const char* failpoint, int fd, uint64_t size,
                 const std::string& path);

/// Suffix of AtomicWriteFile's unpublished file; directory listings skip
/// names that end in it.
inline constexpr char kTmpSuffix[] = ".tmp";

/// Publishes `bytes` at `path` so a reader sees the old file or the new one,
/// never a torn mix: write `path`.tmp (O_CLOEXEC), fsync it, rename it over
/// `path`, then fsync the parent directory. Any failure before the rename
/// unlinks the tmp file and leaves `path` untouched; a failed directory
/// sync surfaces after the rename already replaced `path`.
Status AtomicWriteFile(const FileEdges& edges, const std::string& path,
                       std::span<const uint8_t> bytes);

/// Reads the whole file at `path`. A missing file is NotFound (keeping the
/// strerror text); any other failure is IOError.
Result<std::vector<uint8_t>> ReadFile(const FileEdges& edges,
                                      const std::string& path);

}  // namespace dqm::crowd::io

#endif  // DQM_CROWD_IO_H_
