// Layer-by-layer replay of one SELECT for the traced run: the same pipeline
// Session runs (parse, bind, logical optimization, audit placement, the
// post-placement rule pass, execution), called stage by stage through each
// layer's public function so every stage can be timed from outside.

#ifndef SELTRIG_BENCH_SUITE_DECOMPOSE_H_
#define SELTRIG_BENCH_SUITE_DECOMPOSE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "trace.h"
#include "workloads.h"

namespace seltrig::bench {

// Runs `sql` stage by stage under a shared storage_mutex() hold with the
// placement and execution settings of `options`, records one span per stage
// (children of `parent`), and fills the stage fields of *sample. Fails with
// kInternal when the rows or ACCESSED differ from `expected`, the answer the
// Session call gave for the same statement.
Status DecomposeSelect(Database* db, const std::string& sql, const ExecOptions& options,
                       const StatementResult& expected, Tracer* tracer,
                       Tracer::Buffer* buffer, uint64_t parent, StageSample* sample);

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_DECOMPOSE_H_
