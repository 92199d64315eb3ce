#include "estimators/registry.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "common/string_util.h"

namespace dqm::estimators {

std::string EstimatorSpec::ToString() const {
  std::string out = name;
  for (size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? '?' : '&';
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  return out;
}

Result<EstimatorSpec> ParseEstimatorSpec(std::string_view spec) {
  std::string_view trimmed = StripWhitespace(spec);
  EstimatorSpec parsed;
  size_t question = trimmed.find('?');
  parsed.name = ToLower(StripWhitespace(trimmed.substr(0, question)));
  if (parsed.name.empty()) {
    return Status::InvalidArgument(
        StrFormat("spec '%.*s' has no name",
                  static_cast<int>(spec.size()), spec.data()));
  }
  if (question == std::string_view::npos) return parsed;

  for (const std::string& param :
       Split(trimmed.substr(question + 1), '&')) {
    std::string_view stripped = StripWhitespace(param);
    if (stripped.empty()) continue;
    size_t equals = stripped.find('=');
    if (equals == std::string_view::npos || equals == 0) {
      return Status::InvalidArgument(StrFormat(
          "spec '%.*s': param '%s' is not key=value",
          static_cast<int>(spec.size()), spec.data(),
          std::string(stripped).c_str()));
    }
    std::string key = ToLower(StripWhitespace(stripped.substr(0, equals)));
    std::string value{StripWhitespace(stripped.substr(equals + 1))};
    for (const auto& [existing, unused] : parsed.params) {
      if (existing == key) {
        return Status::InvalidArgument(StrFormat(
            "spec '%.*s': duplicate param '%s'",
            static_cast<int>(spec.size()), spec.data(), key.c_str()));
      }
    }
    parsed.params.emplace_back(std::move(key), std::move(value));
  }
  return parsed;
}

std::vector<std::string> SplitSpecList(std::string_view list) {
  std::vector<std::string> specs;
  for (const std::string& part : Split(list, ',')) {
    std::string_view stripped = StripWhitespace(part);
    if (!stripped.empty()) specs.emplace_back(stripped);
  }
  return specs;
}

SpecParamReader::SpecParamReader(const EstimatorSpec& spec)
    : spec_(spec), consumed_(spec.params.size(), false) {}

const std::string* SpecParamReader::Consume(std::string_view key) {
  for (size_t i = 0; i < spec_.params.size(); ++i) {
    if (spec_.params[i].first == key) {
      consumed_[i] = true;
      return &spec_.params[i].second;
    }
  }
  return nullptr;
}

Result<uint32_t> SpecParamReader::GetUint32(std::string_view key,
                                            uint32_t fallback) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return fallback;
  DQM_ASSIGN_OR_RETURN(
      uint64_t value,
      ParseU64(*raw, StrFormat("spec '%s': param %s", spec_.name.c_str(),
                               std::string(key).c_str())));
  if (value > UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("spec '%s': param %s=%s is out of range",
                  spec_.name.c_str(), std::string(key).c_str(), raw->c_str()));
  }
  return static_cast<uint32_t>(value);
}

Result<double> SpecParamReader::GetDouble(std::string_view key,
                                          double fallback) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(raw->c_str(), &end);
  if (errno != 0 || end == raw->c_str() || *end != '\0' ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(
        StrFormat("spec '%s': param %s=%s is not a finite number",
                  spec_.name.c_str(), std::string(key).c_str(), raw->c_str()));
  }
  return value;
}

Result<bool> SpecParamReader::GetBool(std::string_view key, bool fallback) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return fallback;
  std::string value = ToLower(*raw);
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  return Status::InvalidArgument(
      StrFormat("spec '%s': param %s=%s is not a boolean (1/0/true/false)",
                spec_.name.c_str(), std::string(key).c_str(), raw->c_str()));
}

Result<std::string> SpecParamReader::GetString(std::string_view key,
                                               std::string_view fallback) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return std::string(fallback);
  return ToLower(*raw);
}

bool SpecParamReader::Has(std::string_view key) const {
  for (const auto& [existing, unused] : spec_.params) {
    if (existing == key) return true;
  }
  return false;
}

Status SpecParamReader::VerifyAllConsumed() const {
  std::vector<std::string> unknown;
  for (size_t i = 0; i < spec_.params.size(); ++i) {
    if (!consumed_[i]) unknown.push_back(spec_.params[i].first);
  }
  if (unknown.empty()) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("spec '%s': unknown param(s): %s", spec_.name.c_str(),
                Join(unknown, ", ").c_str()));
}

Status EstimatorRegistry::Register(Entry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("estimator name must be non-empty");
  }
  if (!entry.factory) {
    return Status::InvalidArgument(
        StrFormat("estimator '%s': null factory", entry.name.c_str()));
  }
  std::string name = ToLower(entry.name);
  entry.name = name;
  WriterMutexLock lock(mutex_);
  auto shared = std::make_shared<const Entry>(std::move(entry));
  auto [it, inserted] = entries_.emplace(name, std::move(shared));
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("estimator '%s' is already registered", name.c_str()));
  }
  canonical_names_.push_back(name);
  return Status::OK();
}

Status EstimatorRegistry::RegisterAlias(std::string alias,
                                        std::string canonical) {
  std::string alias_name = ToLower(alias);
  std::string canonical_name = ToLower(canonical);
  WriterMutexLock lock(mutex_);
  auto it = entries_.find(canonical_name);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("estimator '%s' is not registered",
                                      canonical_name.c_str()));
  }
  auto [unused, inserted] = entries_.emplace(alias_name, it->second);
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("estimator '%s' is already registered", alias_name.c_str()));
  }
  return Status::OK();
}

bool EstimatorRegistry::Contains(std::string_view name) const {
  ReaderMutexLock lock(mutex_);
  return entries_.find(ToLower(name)) != entries_.end();
}

std::vector<std::string> EstimatorRegistry::Names() const {
  ReaderMutexLock lock(mutex_);
  std::vector<std::string> names = canonical_names_;
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::shared_ptr<const EstimatorRegistry::Entry>>
EstimatorRegistry::Find(std::string_view name) const {
  ReaderMutexLock lock(mutex_);
  auto it = entries_.find(ToLower(name));
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat(
        "unknown estimator '%s' (registered: %s)",
        std::string(name).c_str(), Join(canonical_names_, ", ").c_str()));
  }
  return it->second;
}

Result<std::unique_ptr<TotalErrorEstimator>> EstimatorRegistry::Create(
    const EstimatorSpec& spec, const crowd::ResponseLog& log) const {
  DQM_ASSIGN_OR_RETURN(std::shared_ptr<const Entry> entry, Find(spec.name));
  return entry->factory(log, spec);
}

SpecFactory internal::ParameterlessScorer(
    const char* display_name, VoteStatsScorer::ScoreFn score) {
  return [display_name, score = std::move(score)](
             const crowd::ResponseLog& log, const EstimatorSpec& spec)
             -> Result<std::unique_ptr<TotalErrorEstimator>> {
    SpecParamReader params(spec);
    DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
    return std::unique_ptr<TotalErrorEstimator>(
        std::make_unique<VoteStatsScorer>(display_name, log, score));
  };
}

EstimatorRegistry& EstimatorRegistry::Global() {
  static EstimatorRegistry* registry = [] {
    auto* r = new EstimatorRegistry();
    internal::RegisterBuiltinBaselines(*r);
    internal::RegisterBuiltinChaoFamily(*r);
    internal::RegisterBuiltinSwitch(*r);
    internal::RegisterBuiltinEmVoting(*r);
    return r;
  }();
  return *registry;
}

}  // namespace dqm::estimators
