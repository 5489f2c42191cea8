// Paired probes of the traced run. They run after the measured windows, one
// session at a time unless noted, and alternate the two settings statement
// by statement on the workload's own statements, so drift hits both sides
// alike.

#ifndef SELTRIG_BENCH_SUITE_ABLATIONS_H_
#define SELTRIG_BENCH_SUITE_ABLATIONS_H_

#include "common/status.h"
#include "trace.h"
#include "workloads.h"

namespace seltrig::bench {

struct LayerProbes {
  // audit: hcn-instrumented vs uninstrumented SELECTs (triggers off in both),
  // geometric mean over classes of the median ratio, as a percentage, with
  // the half-width of its bootstrap 95% interval. The Fig. 10 number.
  double overhead_pct = 0.0;
  double overhead_ci_pct = 0.0;
  // audit: mean per-SELECT cost of firing the logging trigger (triggers on
  // vs instrumentation alone).
  double trigger_action_us = 0.0;
  // exec: t(1 thread) / t(2 threads), geometric mean over classes.
  double gather_speedup = 0.0;
  // engine: workload throughput at 2 sessions / 1 session.
  double session_scaling = 0.0;
  // storage: an order lookup right after a committed order insert, and the
  // same lookup repeated.
  double lookup_after_write_us = 0.0;
  double lookup_warm_us = 0.0;
  // storage: one-row INSERT latency at kCommit minus kOff (no follower wait).
  double commit_wait_us = 0.0;
  // replication: one-row INSERT latency with the sync waiter installed minus
  // without; the follower's time to ack a 64-insert async burst; and its
  // counters. Workloads without a follower attach one for this probe, and
  // its catch-up time is catchup_s.
  double catchup_s = 0.0;
  double ack_wait_us = 0.0;
  double drain_ms = 0.0;
  double naks_per_1k_records = 0.0;
  double reconnects = 0.0;
  double duplicates_dropped = 0.0;
};

// Runs every probe, spending about `budget_s` on each timed comparison.
Status RunLayerProbes(WorkloadRun* run, double budget_s, uint64_t seed, Tracer* tracer,
                      LayerProbes* out);

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_ABLATIONS_H_
