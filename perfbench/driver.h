/**
 * @file
 * The load generator: one thread, one front-end connection, whole
 * rounds of the workload's pool, every answer checked as it arrives.
 */

#ifndef PERFBENCH_DRIVER_H
#define PERFBENCH_DRIVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/deployment.h"
#include "probes.h"
#include "rpc/client.h"
#include "workloads.h"

namespace perfbench {

/** What one timed phase saw. */
struct PhaseResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;       //!< Answers hit by the named fault.
    uint64_t wrong = 0;        //!< Any other wrong answer or error.
    std::string firstWrong;    //!< Why the first wrong answer was wrong.
    double elapsedS = 0.0;
    OsSnapshot os;             //!< Deltas over the window.
    uint64_t legs = 0;         //!< Leaf requests served in the window.
    std::vector<double> latencyUs;  //!< Per completed request, µs.
    std::vector<uint32_t> poolIndex; //!< Aligned with latencyUs; spans only.
    std::vector<double> latenessUs; //!< Open loop: send time - due time.

    double qps() const { return double(attempted) / elapsedS; }
};

class Driver
{
  public:
    Driver(Workload &workload, musuite::ServiceDeployment &deployment);

    /**
     * Keep at most `window` requests in flight, in whole rounds, until
     * at least `min_ns` has passed. With `keep_spans`, also record each
     * request's pool index and keep one answer per pool entry.
     */
    PhaseResult closed(int window, int64_t min_ns, bool keep_spans);

    /**
     * Open loop: send whole rounds on a Poisson schedule at `qps`
     * lasting at least `min_ns`; latency runs from each due time.
     */
    PhaseResult open(double qps, int64_t min_ns, uint64_t seed);

    /** One answer per pool entry, from the last phase that kept spans. */
    const std::vector<std::string> &responses() const { return answers; }

  private:
    struct Flight;

    void issue(Flight &flight, uint32_t index, int64_t start_ns);
    PhaseResult finish(Flight &flight, const OsSnapshot &before,
                       uint64_t legs_before);
    uint64_t leafRequests() const;

    Workload &workload;
    musuite::ServiceDeployment &deployment;
    musuite::rpc::RpcClient client;
    std::vector<std::string> answers;
};

} // namespace perfbench

#endif // PERFBENCH_DRIVER_H
