// The three workload entry points. Each returns the process exit code and
// prints one result line (see Metrics::ResultJson) on stdout.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

int RunBatch(const Args& args);
/// Writes the stream workload's shard sets into args.dir.
int RunStreamSetup(const Args& args);
int RunStream(const Args& args);
int RunServeWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
