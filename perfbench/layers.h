/**
 * @file
 * Transport-layer probes for the traced run: calls into `rpc` and
 * `services` made from the benchmark's own code and timed around the
 * call.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>

#include "harness/deployment.h"
#include "workloads.h"

namespace perfbench {

/**
 * Adds rpc.echo_rtt_us, rpc.leaf_rtt_us, services.fanout_us and
 * serde.leaf_req_bytes, spending about `budget_ns` in all.
 */
void probeTransport(Workload &workload, musuite::ServiceDeployment &deployment,
                    int64_t budget_ns, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
