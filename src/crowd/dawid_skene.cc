#include "crowd/dawid_skene.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/metric_names.h"

namespace dqm::crowd {

DawidSkene::DawidSkene(const Options& options) : options_(options) {
  DQM_CHECK_GT(options.max_iterations, 0u);
  DQM_CHECK_GT(options.max_incremental_sweeps, 0u);
  DQM_CHECK_GT(options.smoothing, 0.0);
}

void DawidSkene::ColdStart(const ResponseLog& log, Result& result) const {
  const size_t num_items = log.num_items();
  const size_t num_workers = std::max<size_t>(log.num_workers(), 1);
  result.sensitivity.assign(num_workers, 0.8);
  result.specificity.assign(num_workers, 0.8);
  // Initialize posteriors from the majority vote (soft: fraction of dirty
  // votes, pulled toward 0.5 by one pseudo-vote each way).
  result.posterior_dirty.assign(num_items, 0.5);
  for (size_t i = 0; i < num_items; ++i) {
    double pos = log.positive_votes(i);
    double tot = log.total_votes(i);
    result.posterior_dirty[i] = (pos + 1.0) / (tot + 2.0);
  }
  result.prior_dirty = 0.5;
  result.iterations = 0;
  result.converged = false;
}

DawidSkene::Result DawidSkene::Fit(const ResponseLog& log) const {
  Result result;
  Workspace workspace;
  ColdStart(log, result);
  RunSweeps(log, result, workspace, options_.max_iterations,
            /*refresh_posteriors=*/false);
  return result;
}

size_t DawidSkene::FitIncremental(const ResponseLog& log, Result& state,
                                  Workspace& workspace) const {
  const bool warm = state.posterior_dirty.size() == log.num_items() &&
                    !state.sensitivity.empty();
  size_t max_sweeps = options_.max_incremental_sweeps;
  if (!warm) {
    ColdStart(log, state);
    max_sweeps = options_.max_iterations;
  } else if (state.sensitivity.size() < log.num_workers()) {
    // Workers unseen by the previous fit enter at the cold-start rates.
    state.sensitivity.resize(log.num_workers(), 0.8);
    state.specificity.resize(log.num_workers(), 0.8);
  }
  // Warm starts keep the learned worker rates and prior but *refresh* the
  // posteriors with one E-step before sweeping: new votes may have flipped
  // an item's evidence, and carrying the stale posterior into the first
  // M-step can lock EM into the old basin (a worker outvoted on an item
  // would be scored against the outdated label). Re-deriving posteriors
  // from current counts + learned rates starts the sweep loop where the
  // cold fit's fixpoint lives, which is what keeps warm and cold estimates
  // within the declared tolerance.
  return RunSweeps(log, state, workspace, max_sweeps,
                   /*refresh_posteriors=*/warm);
}

size_t DawidSkene::RunSweeps(const ResponseLog& log, Result& result,
                             Workspace& workspace, size_t max_sweeps,
                             bool refresh_posteriors) const {
  const size_t num_items = log.num_items();
  const size_t num_workers = std::max<size_t>(log.num_workers(), 1);
  const double s = options_.smoothing;

  if (log.num_events() == 0) {
    result.prior_dirty = 0.5;
    result.iterations = 0;
    result.converged = true;
    return 0;
  }

  // The count matrix the log maintains under kCounts retention: one block
  // serialized, one block per stripe on concurrently ingested logs.
  // Serialized and replay paths insert pairs in first-arrival order, so the
  // sweeps visit identical slot sequences either way; striped blocks
  // reorder slots across blocks, which only perturbs float summation order
  // (the declared EM tolerance).
  workspace.blocks.clear();
  log.AppendCountMatrixBlocks(workspace.blocks);

  // ---- E step (shared): per-item posteriors from worker rates (log
  // domain). Returns the largest posterior move.
  auto e_step = [&]() {
    // Per-worker log-rate tables first: the pair sweep below is then pure
    // multiply-add, and log() cost scales with #workers, not #pairs.
    workspace.log_sens.resize(num_workers);
    workspace.log_one_minus_sens.resize(num_workers);
    workspace.log_spec.resize(num_workers);
    workspace.log_one_minus_spec.resize(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      double sens = std::clamp(result.sensitivity[w], 1e-6, 1.0 - 1e-6);
      double spec = std::clamp(result.specificity[w], 1e-6, 1.0 - 1e-6);
      workspace.log_sens[w] = std::log(sens);
      workspace.log_one_minus_sens[w] = std::log(1.0 - sens);
      workspace.log_spec[w] = std::log(spec);
      workspace.log_one_minus_spec[w] = std::log(1.0 - spec);
    }
    workspace.log_dirty.assign(num_items, std::log(result.prior_dirty));
    workspace.log_clean.assign(num_items, std::log(1.0 - result.prior_dirty));
    for (const CompactedVoteStore* block : workspace.blocks) {
      const uint32_t* pair_worker = block->workers().data();
      const uint32_t* pair_item = block->items().data();
      const uint32_t* pair_dirty = block->dirty_counts().data();
      const uint32_t* pair_clean = block->clean_counts().data();
      const size_t num_pairs = block->num_pairs();
      // Pass 1 — per-pair contribution columns: gather two rate-table
      // entries, two converts, two FMAs per output lane, no cross-lane
      // dependence. This is the vectorizable shape; the value and per-item
      // accumulation order are bit-identical to the fused loop it replaced.
      workspace.pair_dirty_term.resize(num_pairs);
      workspace.pair_clean_term.resize(num_pairs);
      double* dirty_term = workspace.pair_dirty_term.data();
      double* clean_term = workspace.pair_clean_term.data();
      const double* log_sens = workspace.log_sens.data();
      const double* log_one_minus_sens = workspace.log_one_minus_sens.data();
      const double* log_spec = workspace.log_spec.data();
      const double* log_one_minus_spec = workspace.log_one_minus_spec.data();
      for (size_t pair = 0; pair < num_pairs; ++pair) {
        const uint32_t worker = pair_worker[pair];
        const double d = pair_dirty[pair];
        const double c = pair_clean[pair];
        dirty_term[pair] =
            d * log_sens[worker] + c * log_one_minus_sens[worker];
        clean_term[pair] =
            d * log_one_minus_spec[worker] + c * log_spec[worker];
      }
      // Pass 2 — scatter-accumulate by item (indexed writes may alias, so
      // this half stays scalar by construction).
      double* log_dirty = workspace.log_dirty.data();
      double* log_clean = workspace.log_clean.data();
      for (size_t pair = 0; pair < num_pairs; ++pair) {
        log_dirty[pair_item[pair]] += dirty_term[pair];
        log_clean[pair_item[pair]] += clean_term[pair];
      }
    }
    double max_delta = 0.0;
    for (size_t i = 0; i < num_items; ++i) {
      double m = std::max(workspace.log_dirty[i], workspace.log_clean[i]);
      double dirty = std::exp(workspace.log_dirty[i] - m);
      double clean = std::exp(workspace.log_clean[i] - m);
      double posterior = dirty / (dirty + clean);
      max_delta = std::max(max_delta,
                           std::abs(posterior - result.posterior_dirty[i]));
      result.posterior_dirty[i] = posterior;
    }
    return max_delta;
  };

  if (refresh_posteriors) e_step();

  result.converged = false;
  size_t sweeps = 0;
  double last_delta = 0.0;
  for (size_t iteration = 1; iteration <= max_sweeps; ++iteration) {
    // ---- M step: worker rates and the class prior from soft labels. Each
    // (worker, item) pair contributes its whole vote pile at once. Split
    // like the E sweep: a vectorizable posterior gather, then the scalar
    // per-worker scatter.
    workspace.dirty_agree.assign(num_workers, s);
    workspace.dirty_total.assign(num_workers, 2 * s);
    workspace.clean_agree.assign(num_workers, s);
    workspace.clean_total.assign(num_workers, 2 * s);
    for (const CompactedVoteStore* block : workspace.blocks) {
      const uint32_t* pair_worker = block->workers().data();
      const uint32_t* pair_item = block->items().data();
      const uint32_t* pair_dirty = block->dirty_counts().data();
      const uint32_t* pair_clean = block->clean_counts().data();
      const size_t num_pairs = block->num_pairs();
      workspace.pair_posterior.resize(num_pairs);
      double* pair_posterior = workspace.pair_posterior.data();
      const double* posterior = result.posterior_dirty.data();
      for (size_t pair = 0; pair < num_pairs; ++pair) {
        pair_posterior[pair] = posterior[pair_item[pair]];
      }
      for (size_t pair = 0; pair < num_pairs; ++pair) {
        const uint32_t worker = pair_worker[pair];
        const double d = pair_dirty[pair];
        const double c = pair_clean[pair];
        const double p = pair_posterior[pair];
        workspace.dirty_total[worker] += (d + c) * p;
        workspace.clean_total[worker] += (d + c) * (1.0 - p);
        workspace.dirty_agree[worker] += d * p;
        workspace.clean_agree[worker] += c * (1.0 - p);
      }
    }
    for (size_t w = 0; w < num_workers; ++w) {
      result.sensitivity[w] = workspace.dirty_agree[w] / workspace.dirty_total[w];
      result.specificity[w] = workspace.clean_agree[w] / workspace.clean_total[w];
    }
    double prior_num = s;
    for (size_t i = 0; i < num_items; ++i) {
      prior_num += result.posterior_dirty[i];
    }
    result.prior_dirty = prior_num / (static_cast<double>(num_items) + 2 * s);

    double max_delta = e_step();
    sweeps = iteration;
    last_delta = max_delta;
    if (max_delta < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.iterations = sweeps;
  // Fit telemetry: the warm-start regression signal in live form. A rising
  // sweeps-per-fit ratio or a convergence delta stuck above tolerance shows
  // up here long before an estimate drifts.
  {
    auto& registry = telemetry::MetricsRegistry::Global();
    static telemetry::Counter* fits =
        registry.GetCounter(telemetry::metric_names::kEmFitsTotal);
    static telemetry::Counter* total_sweeps =
        registry.GetCounter(telemetry::metric_names::kEmSweepsTotal);
    static telemetry::Counter* converged =
        registry.GetCounter(telemetry::metric_names::kEmConvergedTotal);
    static telemetry::Gauge* delta =
        registry.GetGauge(telemetry::metric_names::kEmLastConvergenceDelta);
    fits->Increment();
    total_sweeps->Add(sweeps);
    if (result.converged) converged->Increment();
    delta->Set(last_delta);
  }
  return sweeps;
}

size_t DawidSkene::DirtyCount(const Result& result) {
  size_t count = 0;
  for (double p : result.posterior_dirty) {
    if (p > 0.5) ++count;
  }
  return count;
}

}  // namespace dqm::crowd
