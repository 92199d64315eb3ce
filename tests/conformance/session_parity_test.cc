// The session-parity suite (see session_parity.h): seeds x every registered
// workload family x the four subjects. Seed 1 runs the pairs panel on four
// stripes, seed 2 the tallies panel serialized; both run 4-producer striped
// ingest on each panel, mid-stream migration, promotion, and a SWITCH panel.
// Seed 1 recovers an image cut at each dqm.durability.after_* phase. Seed 2
// recovers a clean shutdown after a one-shot WAL fsync EIO, promotes
// after a one-shot EIO on the ship's directory sync, and promotes over a
// shipped segment torn in its last record. A newly registered
// workload family is enrolled automatically.

#include "conformance/session_parity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "conformance/conformance_utils.h"
#include "engine/durability.h"

namespace dqm::conformance {
namespace {

/// Durable serving options: 64-vote group commits, a checkpoint every 150
/// votes, and four stripes (seed 1) or the serialized path (seed 2).
engine::SessionOptions DurableOptions(uint64_t seed) {
  engine::SessionOptions options;
  options.cadence = seed == 1 ? engine::PublishCadence::kManual
                              : engine::PublishCadence::kEveryBatch;
  options.ingest_stripes = seed == 1 ? 4 : 1;
  options.wal_group_commit_votes = 64;
  options.checkpoint_every_votes = 150;
  return options;
}

std::vector<ParityCase> ParityCases() {
  static const char* const kKillPoints[] = {
      engine::fpn::kAfterAppend, engine::fpn::kAfterFsync,
      engine::fpn::kAfterCheckpointWrite, engine::fpn::kAfterWalReset};
  std::vector<ParityCase> cases;
  for (uint64_t seed : {1, 2}) {
    uint64_t family = 0;
    for (const std::string& workload : ConformanceWorkloadSpecs()) {
      const size_t batches = MakeParityStream(workload, seed).batches.size();
      Rng rng(seed * 0x9E3779B97F4A7C15ull + family++);
      const size_t cut = batches / 2 + rng.UniformIndex(batches / 2);
      // The returned case is valid until the next add.
      auto add = [&](ParitySubject subject, const std::string& variant) {
        ParityCase& c = cases.emplace_back();
        c.name = variant + "_" + workload.substr(0, workload.find('?')) +
                 "_s" + std::to_string(seed);
        c.subject = subject;
        c.workload = workload;
        c.seed = seed;
        c.panel = seed == 1 ? PairsPanel() : TalliesPanel();
        c.options = DurableOptions(seed);
        c.cut = cut;
        return &c;
      };
      auto add_switch = [&](ParitySubject subject,
                            const std::string& variant) {
        ParityCase* c = add(subject, variant);
        c->panel = SwitchPanel();
        c->options.ingest_stripes = 1;
        return c;
      };
      for (const bool pairs : {false, true}) {
        ParityCase* c =
            add(RunStriped, pairs ? "striped_pairs" : "striped_tallies");
        c->panel = pairs ? PairsPanel() : TalliesPanel();
        c->options = engine::SessionOptions();
        c->options.cadence = engine::PublishCadence::kManual;
        c->options.ingest_stripes = 4;
        c->producers = 4;
      }
      add(RunMigration, "migration");
      add_switch(RunMigration, "migration_switch");
      ParityCase* promotion = add(RunPromotion, "promotion");
      if (seed == 1) {
        for (const std::string phase : kKillPoints) {
          add(RunRecovery, "recovery_" + phase.substr(phase.rfind('.') + 1))
              ->kill_point = phase;
        }
        add_switch(RunPromotion, "promotion_switch");
        continue;
      }
      // The primary re-ships the failed range wider at a later group
      // commit: the fault fires at least three batches before the cut, and
      // no checkpoint moves the stream to a new WAL generation first.
      promotion->options.checkpoint_every_votes = 0;
      promotion->faults = "dqm.repl.dirsync=count(1):error(EIO)";
      promotion->fault_after =
          1 + rng.UniformIndex(std::max<size_t>(cut, 5) - 4);
      // One WAL generation, and group commits long enough that segments
      // hold several records.
      ParityCase* torn = add(RunPromotion, "promotion_torn");
      torn->options.checkpoint_every_votes = 0;
      torn->options.wal_group_commit_votes = 256;
      torn->tear_shipped_tail = true;
      // No checkpoint resets the WAL: a batch whose fsync failed stays in it
      // unless the WAL seals and truncates it away.
      ParityCase* eio = add(RunRecovery, "recovery_fsync_eio");
      eio->options.wal_group_commit_votes = 1;
      eio->options.checkpoint_every_votes = 0;
      eio->faults = "dqm.wal.fsync=count(1):error(EIO)";
      eio->fault_after = 1 + rng.UniformIndex(batches - 1);
      add_switch(RunRecovery, "recovery_switch");
    }
  }
  return cases;
}

class SessionParityTest : public testing::TestWithParam<ParityCase> {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_P(SessionParityTest, ServesTheReferenceOnTheAcknowledgedBatches) {
  ExpectCaseParity(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SessionParityTest, testing::ValuesIn(ParityCases()),
    [](const testing::TestParamInfo<ParityCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dqm::conformance
