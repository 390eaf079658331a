/**
 * @file
 * The three benchmark workloads: the deployment each one brings up,
 * the request pool it sends, the expected answers it checks against
 * and the layer probes only it can run.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checkers.h"
#include "harness/deployment.h"

namespace perfbench {

/** Per-layer metric values by name. */
using Metrics = std::map<std::string, double>;

/** One fan-out leg of a front-end request: target leaf and body. */
struct Leg
{
    uint32_t leaf = 0;
    std::string body;
};

/**
 * A workload owns a pool of front-end requests. Every timed phase
 * sends whole rounds of the pool in `order()`, so each phase attempts
 * the same operations in the same proportions whatever its length.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** "router", "setalgebra" or "hdsearch"; null for other names. */
    static std::unique_ptr<Workload> make(std::string_view name);

    virtual musuite::ServiceKind kind() const = 0;
    const musuite::DeploymentOptions &options() const { return opts; }

    /**
     * Build the benchmark's own copy of the data set, the request pool
     * and every expected answer. Not part of the timed set-up.
     */
    virtual void prepare(uint64_t seed) = 0;

    /** Called once the measured deployment is up. */
    virtual void attach(musuite::ServiceDeployment &deployment)
    {
        (void)deployment;
    }

    size_t poolSize() const { return bodies.size(); }
    const std::string &body(size_t i) const { return bodies[i]; }
    const std::vector<uint32_t> &order() const { return roundOrder; }

    /** Check the front-end answer to pool entry `i`. */
    virtual Check check(size_t i, std::string_view payload) const = 0;

    /** Fixed open-loop rate (requests/s), about half of closed_qps. */
    virtual double openLoopQps() const = 0;

    virtual uint32_t leafMethod() const = 0;
    /** The leaf requests the mid-tier issues for pool entry `i`. */
    virtual std::vector<Leg> legs(size_t i) const = 0;

    /** Router: true for gets. Other workloads have one request kind. */
    virtual bool isGet(size_t i) const
    {
        (void)i;
        return false;
    }

    /**
     * Time this workload's own layers (index, kv, hash, dataset, serde
     * encode/decode) and add their metrics. `responses[i]` holds one
     * front-end answer to pool entry `i`.
     */
    virtual void probeLayers(const std::vector<std::string> &responses,
                             Metrics &out) = 0;

  protected:
    /** Shuffle the round order with `seed`. */
    void shuffleOrder(uint64_t seed);

    musuite::DeploymentOptions opts;
    std::vector<std::string> bodies;
    std::vector<uint32_t> roundOrder;
};

/** Keep a timed loop's result alive so the loop is not optimised away. */
void keepResult(size_t value);

/** Median over `reps` passes of fn() / items, in microseconds. */
double timePerItemUs(size_t items, int reps, const std::function<void()> &fn);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
