// raw-syscall fixture twin of the real engine/replication.cc: segment and
// checkpoint shipping I/O must go through the instrumented crowd/io.h
// wrappers so chaos tests can reach every replication edge, and errno text
// must come from io::ErrnoError, never a local strerror().

namespace dqm::engine {

long ShipSegmentRaw(int fd, const void* buf, unsigned long n, long off) {
  return ::pwrite(fd, buf, n, off);
}

int OpenTransportArtifactRaw(const char* path) {
  return ::open(path, 0);
}

const char* DescribeFenceErrorRaw(int err) {
  return std::strerror(err);
}

const char* DescribeSuppressed(int err) {
  return strerror(err);  // dqm-lint: allow(raw-syscall)
}

}  // namespace dqm::engine
