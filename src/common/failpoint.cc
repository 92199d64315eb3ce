#include "common/failpoint.h"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace dqm::failpoint {

namespace internal {
std::atomic<uint64_t> g_armed_count{0};
}  // namespace internal

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// FNV-1a; stable across platforms so (seed, spec) pairs replay anywhere.
uint64_t HashName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Symbolic errno names the grammar accepts (numeric values also work).
Result<int> ParseErrno(std::string_view text) {
  struct Entry {
    std::string_view name;
    int value;
  };
  static constexpr Entry kErrnos[] = {
      {"EIO", EIO},        {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
      {"ENOSPC", ENOSPC},  {"ENOENT", ENOENT}, {"EACCES", EACCES},
      {"EBADF", EBADF},    {"EEXIST", EEXIST}, {"EMFILE", EMFILE},
      {"ENFILE", ENFILE},  {"EROFS", EROFS},   {"EDQUOT", EDQUOT},
      {"EWOULDBLOCK", EWOULDBLOCK},
  };
  for (const Entry& e : kErrnos) {
    if (text == e.name) return e.value;
  }
  DQM_ASSIGN_OR_RETURN(uint64_t numeric,
                       ParseU64(text, "failpoint spec: errno"));
  if (numeric == 0 || numeric > 4096) {
    return Status::InvalidArgument("failpoint spec: errno out of range '" +
                                   std::string(text) + "'");
  }
  return static_cast<int>(numeric);
}

/// Consumes a `name(` ... `)` call form, returning the argument text.
Result<std::string_view> CallArgument(std::string_view text,
                                      std::string_view callee) {
  // text starts just past "callee("; find the closing paren.
  size_t close = text.find(')');
  if (close == std::string_view::npos) {
    return Status::InvalidArgument("failpoint spec: unterminated '" +
                                   std::string(callee) + "('");
  }
  return text.substr(0, close);
}

}  // namespace

Result<Action> ParseAction(std::string_view text) {
  Action action;
  text = Trim(text);

  // Optional `count(N):` budget prefix — distinguished from the standalone
  // `count(N)` probe action by the trailing colon.
  bool saw_budget_prefix = false;
  if (text.starts_with("count(")) {
    DQM_ASSIGN_OR_RETURN(std::string_view arg,
                         CallArgument(text.substr(6), "count"));
    std::string_view rest = text.substr(6 + arg.size() + 1);
    if (rest.starts_with(":")) {
      DQM_ASSIGN_OR_RETURN(action.budget,
                           ParseU64(arg, "failpoint spec: count"));
      if (action.budget == 0) {
        return Status::InvalidArgument("failpoint spec: count(0) is inert");
      }
      saw_budget_prefix = true;
      text = Trim(rest.substr(1));
    }
  }

  // Optional `%p` probability suffix.
  size_t percent = text.rfind('%');
  if (percent != std::string_view::npos) {
    std::string_view prob_text = Trim(text.substr(percent + 1));
    double p = 0;
    auto [ptr, ec] = std::from_chars(
        prob_text.data(), prob_text.data() + prob_text.size(), p);
    if (ec != std::errc() || ptr != prob_text.data() + prob_text.size() ||
        prob_text.empty() || !(p > 0.0) || p > 1.0) {
      return Status::InvalidArgument(
          "failpoint spec: probability must be in (0, 1], got '" +
          std::string(prob_text) + "'");
    }
    action.fire_threshold =
        p >= 1.0 ? ~0ull
                 : static_cast<uint64_t>(p * 18446744073709551615.0);
    text = Trim(text.substr(0, percent));
  }

  if (text == "return") {
    action.kind = Action::Kind::kReturn;
  } else if (text == "crash") {
    action.kind = Action::Kind::kCrash;
  } else if (text.starts_with("error(") && text.ends_with(")")) {
    DQM_ASSIGN_OR_RETURN(std::string_view arg,
                         CallArgument(text.substr(6), "error"));
    if (6 + arg.size() + 1 != text.size()) {
      return Status::InvalidArgument("failpoint spec: trailing garbage in '" +
                                     std::string(text) + "'");
    }
    DQM_ASSIGN_OR_RETURN(action.error_errno, ParseErrno(Trim(arg)));
    action.kind = Action::Kind::kError;
  } else if (text.starts_with("delay(") && text.ends_with(")")) {
    DQM_ASSIGN_OR_RETURN(std::string_view arg,
                         CallArgument(text.substr(6), "delay"));
    if (6 + arg.size() + 1 != text.size()) {
      return Status::InvalidArgument("failpoint spec: trailing garbage in '" +
                                     std::string(text) + "'");
    }
    std::string_view ms = Trim(arg);
    if (!ms.ends_with("ms")) {
      return Status::InvalidArgument(
          "failpoint spec: delay wants milliseconds, e.g. delay(5ms), got '" +
          std::string(arg) + "'");
    }
    DQM_ASSIGN_OR_RETURN(action.delay_ms,
                         ParseU64(ms.substr(0, ms.size() - 2),
                                  "failpoint spec: delay"));
    action.kind = Action::Kind::kDelay;
  } else if (text.starts_with("count(") && text.ends_with(")") &&
             !saw_budget_prefix) {
    DQM_ASSIGN_OR_RETURN(std::string_view arg,
                         CallArgument(text.substr(6), "count"));
    DQM_ASSIGN_OR_RETURN(action.budget,
                         ParseU64(Trim(arg), "failpoint spec: count"));
    if (action.budget == 0) {
      return Status::InvalidArgument("failpoint spec: count(0) is inert");
    }
    action.kind = Action::Kind::kProbe;
  } else {
    return Status::InvalidArgument("failpoint spec: unknown action '" +
                                   std::string(text) + "'");
  }
  return action;
}

/// Per-failpoint state. Address-stable (owned by unique_ptr in the map);
/// counters are atomics so Collect can read them without tearing while an
/// evaluation is in flight.
struct Registry::Point {
  bool armed = false;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> triggered{0};
  Action action;
  SplitMix64 rng{0};
};

Registry& Registry::Global() {
  static Registry* registry = [] {
    auto* r = new Registry();
    if (const char* seed_env = std::getenv("DQM_FAILPOINT_SEED")) {
      auto seed = ParseU64(seed_env, "DQM_FAILPOINT_SEED");
      if (seed.ok()) {
        r->SetSeed(*seed);
      } else {
        DQM_LOG(Warning) << seed.status().message() << " — seed ignored";
      }
    }
    if (const char* specs = std::getenv("DQM_FAILPOINTS")) {
      Status status = r->Configure(specs);
      if (!status.ok()) {
        DQM_LOG(Warning) << "DQM_FAILPOINTS ignored: " << status.message();
      }
    }
    return r;
  }();
  return *registry;
}

namespace {
// The fast-path gate in Eval() is a bare atomic checked before any registry
// touch, so specs delivered by environment must raise the armed count before
// the first instrumented syscall — not at first registry use, which in a
// binary that never configures failpoints programmatically may be as late as
// metrics export. Touch the registry during static init iff the env asks.
const bool g_env_bootstrap = [] {
  if (std::getenv("DQM_FAILPOINTS") != nullptr ||
      std::getenv("DQM_FAILPOINT_SEED") != nullptr) {
    Registry::Global();
  }
  return true;
}();
}  // namespace

Status Registry::Configure(std::string_view specs) {
  std::vector<std::pair<std::string, Action>> parsed;
  size_t start = 0;
  while (start <= specs.size()) {
    size_t end = specs.find(';', start);
    if (end == std::string_view::npos) end = specs.size();
    std::string_view spec = Trim(specs.substr(start, end - start));
    start = end + 1;
    if (spec.empty()) continue;
    size_t eq = spec.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint spec: missing '=' in '" +
                                     std::string(spec) + "'");
    }
    std::string_view name = Trim(spec.substr(0, eq));
    if (name.empty()) {
      return Status::InvalidArgument("failpoint spec: empty name in '" +
                                     std::string(spec) + "'");
    }
    DQM_ASSIGN_OR_RETURN(Action action, ParseAction(spec.substr(eq + 1)));
    parsed.emplace_back(std::string(name), action);
  }
  for (auto& [name, action] : parsed) {
    Arm(name, action);
  }
  return Status::OK();
}

void Registry::Arm(std::string_view name, const Action& action) {
  MutexLock lock(mutex_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(std::string(name), std::make_unique<Point>()).first;
  }
  Point& point = *it->second;
  if (!point.armed) {
    point.armed = true;
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  point.action = action;
  point.rng = SplitMix64(seed_ ^ HashName(name));
}

void Registry::Disarm(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = points_.find(name);
  if (it != points_.end() && it->second->armed) {
    it->second->armed = false;
    internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Registry::DisarmAll() {
  MutexLock lock(mutex_);
  for (auto& [name, point] : points_) {
    if (point->armed) {
      point->armed = false;
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Registry::SetSeed(uint64_t seed) {
  MutexLock lock(mutex_);
  seed_ = seed;
  for (auto& [name, point] : points_) {
    point->rng = SplitMix64(seed_ ^ HashName(name));
  }
}

std::vector<FailpointInfo> Registry::Collect() const {
  MutexLock lock(mutex_);
  std::vector<FailpointInfo> out;
  out.reserve(points_.size());
  for (const auto& [name, point] : points_) {
    FailpointInfo info;
    info.name = name;
    info.armed = point->armed;
    info.hits = point->hits.load(std::memory_order_relaxed);
    info.triggered = point->triggered.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

uint64_t Registry::hits(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = points_.find(name);
  return it == points_.end() ? 0
                             : it->second->hits.load(std::memory_order_relaxed);
}

EvalResult Registry::EvalPoint(std::string_view name) {
  uint64_t delay_ms = 0;
  std::function<void()> callback;
  EvalResult result;
  {
    MutexLock lock(mutex_);
    auto it = points_.find(name);
    if (it == points_.end() || !it->second->armed) return result;
    Point& point = *it->second;
    point.hits.fetch_add(1, std::memory_order_relaxed);
    if (point.action.fire_threshold != ~0ull &&
        point.rng.Next() > point.action.fire_threshold) {
      return result;  // armed, rolled, missed — a hit but no action
    }
    point.triggered.fetch_add(1, std::memory_order_relaxed);
    if (point.action.budget != UINT64_MAX && --point.action.budget == 0) {
      point.armed = false;
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    switch (point.action.kind) {
      case Action::Kind::kError:
        result.op = EvalResult::Op::kError;
        result.injected_errno = point.action.error_errno;
        break;
      case Action::Kind::kReturn:
        result.op = EvalResult::Op::kReturnEarly;
        break;
      case Action::Kind::kDelay:
        delay_ms = point.action.delay_ms;
        break;
      case Action::Kind::kCrash:
        // The kill point: die without unwinding, flushing, or running any
        // destructor — exactly what a power cut leaves behind.
        std::_Exit(kCrashExitCode);
      case Action::Kind::kProbe:
        break;
      case Action::Kind::kCallback:
        callback = point.action.callback;
        break;
    }
  }
  // Sleep and run callbacks outside the registry lock so a slow edge
  // doesn't serialize every other armed evaluation in the process.
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  if (callback) callback();
  return result;
}

namespace internal {
EvalResult EvalSlow(std::string_view name) {
  return Registry::Global().EvalPoint(name);
}
}  // namespace internal

}  // namespace dqm::failpoint
