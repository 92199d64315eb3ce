#include "crowd/log_io.h"

#include <charconv>

#include "common/csv.h"
#include "common/string_util.h"
#include "crowd/wal.h"

namespace dqm::crowd {

namespace {

Result<uint32_t> ParseU32(const std::string& text, const char* field,
                          size_t row) {
  uint32_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(
        StrFormat("row %zu: %s is not an unsigned integer: '%s'", row, field,
                  text.c_str()));
  }
  return value;
}

/// The CSV rows of `log`: the header, then one row per vote in arrival
/// order.
std::vector<CsvRow> LogRows(const ResponseLog& log) {
  std::vector<CsvRow> rows;
  rows.reserve(log.num_events() + 1);
  rows.push_back({"task", "worker", "item", "vote"});
  for (const VoteEvent& event : log.events()) {
    rows.push_back({StrFormat("%u", event.task), StrFormat("%u", event.worker),
                    StrFormat("%u", event.item),
                    event.vote == Vote::kDirty ? "dirty" : "clean"});
  }
  return rows;
}

/// Rebuilds a log from parsed CSV rows; errors carry `row N:` context.
Result<ResponseLog> LogFromRows(const std::vector<CsvRow>& rows,
                                size_t num_items) {
  if (rows.empty()) {
    return Status::InvalidArgument("vote log csv is empty");
  }
  const CsvRow expected_header = {"task", "worker", "item", "vote"};
  if (rows.front() != expected_header) {
    return Status::InvalidArgument(
        "vote log csv must start with header task,worker,item,vote");
  }
  ResponseLog log(num_items);
  for (size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    if (row.size() != 4) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected 4 fields, got %zu", r, row.size()));
    }
    DQM_ASSIGN_OR_RETURN(uint32_t task, ParseU32(row[0], "task", r));
    DQM_ASSIGN_OR_RETURN(uint32_t worker, ParseU32(row[1], "worker", r));
    DQM_ASSIGN_OR_RETURN(uint32_t item, ParseU32(row[2], "item", r));
    // Same bounds gate the WAL replay uses (crowd/wal.h): item inside the
    // universe, worker/task under the allocation caps. Without it a row
    // claiming worker 4294967295 reaches consumers that size O(max id)
    // state on the serving path.
    if (Status bounds = ValidateVoteBounds(task, worker, item, num_items);
        !bounds.ok()) {
      return Status(bounds.code(), StrFormat("row %zu: %s", r,
                                             bounds.message().c_str()));
    }
    std::string vote_text = ToLower(StripWhitespace(row[3]));
    Vote vote;
    if (vote_text == "dirty" || vote_text == "1") {
      vote = Vote::kDirty;
    } else if (vote_text == "clean" || vote_text == "0") {
      vote = Vote::kClean;
    } else {
      return Status::InvalidArgument(
          StrFormat("row %zu: vote must be dirty/clean/1/0, got '%s'", r,
                    row[3].c_str()));
    }
    log.Append(VoteEvent{task, worker, item, vote});
  }
  return log;
}

}  // namespace

std::string ResponseLogIo::ToCsv(const ResponseLog& log) {
  return Csv::Format(LogRows(log));
}

Result<ResponseLog> ResponseLogIo::FromCsv(std::string_view text,
                                           size_t num_items) {
  DQM_ASSIGN_OR_RETURN(std::vector<CsvRow> rows, Csv::Parse(text));
  return LogFromRows(rows, num_items);
}

Status ResponseLogIo::WriteFile(const ResponseLog& log,
                                const std::string& path) {
  return Csv::WriteFile(path, LogRows(log));
}

Result<ResponseLog> ResponseLogIo::ReadFile(const std::string& path,
                                            size_t num_items) {
  Result<std::vector<CsvRow>> rows = Csv::ReadFile(path);
  Result<ResponseLog> log =
      rows.ok() ? LogFromRows(*rows, num_items) : rows.status();
  if (!log.ok()) {
    // Row errors carry `row N:` context; prefix the file so callers see
    // file:line-style provenance.
    return Status(log.status().code(),
                  StrFormat("%s: %s", path.c_str(),
                            log.status().message().c_str()));
  }
  return log;
}

}  // namespace dqm::crowd
