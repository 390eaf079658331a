/**
 * @file
 * Closed-window and open-loop phases over one front-end connection.
 */

#include "driver.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "base/rng.h"
#include "base/time_util.h"

namespace perfbench {

using namespace musuite;

/** State shared between the generator and the completion thread. */
struct Driver::Flight
{
    std::mutex mutex;
    std::condition_variable changed;
    int inflight = 0;
    bool keepSpans = false;
    PhaseResult result;
};

namespace {

rpc::ClientOptions
frontEndClient()
{
    rpc::ClientOptions options;
    options.connections = 1;
    options.completionThreads = 1;
    options.name = "bench";
    return options;
}

/** A reply that never arrives would hang the run; give up loudly. */
constexpr auto kDrainTimeout = std::chrono::seconds(60);

} // namespace

Driver::Driver(Workload &workload_in, ServiceDeployment &deployment_in)
    : workload(workload_in), deployment(deployment_in),
      client(deployment_in.midTierPort(), frontEndClient()),
      answers(workload_in.poolSize())
{}

uint64_t
Driver::leafRequests() const
{
    uint64_t total = 0;
    for (size_t i = 0; i < deployment.leafCount(); ++i)
        total += deployment.leafServer(i).requestsServed();
    return total;
}

void
Driver::issue(Flight &flight, uint32_t index, int64_t start_ns)
{
    client.call(
        deployment.frontEndMethod(), workload.body(index),
        [this, &flight, index, start_ns](const Status &status,
                                         std::string_view payload) {
            const int64_t end_ns = nowNanos();
            const Check check = status.isOk()
                                    ? workload.check(index, payload)
                                    : Check::wrong(status.toString());
            std::lock_guard<std::mutex> lock(flight.mutex);
            PhaseResult &r = flight.result;
            if (check.verdict == Verdict::Fault) {
                ++r.failed;
            } else if (check.verdict == Verdict::Wrong) {
                if (r.wrong++ == 0)
                    r.firstWrong = check.why;
            }
            r.latencyUs.push_back(double(end_ns - start_ns) / 1e3);
            if (flight.keepSpans) {
                r.poolIndex.push_back(index);
                if (answers[index].empty())
                    answers[index] = std::string(payload);
            }
            --flight.inflight;
            flight.changed.notify_all();
        });
}

PhaseResult
Driver::finish(Flight &flight, const OsSnapshot &before, uint64_t legs_before)
{
    {
        std::unique_lock<std::mutex> lock(flight.mutex);
        if (!flight.changed.wait_for(lock, kDrainTimeout,
                                     [&] { return flight.inflight == 0; })) {
            std::cerr << "perfbench: replies still missing after 60 s\n";
            std::_Exit(3);
        }
    }
    const OsSnapshot after = OsSnapshot::take();
    PhaseResult result = std::move(flight.result);
    result.os = after - before;
    result.elapsedS = double(result.os.wallNs) / 1e9;
    result.legs = leafRequests() - legs_before;
    return result;
}

PhaseResult
Driver::closed(int window, int64_t min_ns, bool keep_spans)
{
    Flight flight;
    flight.keepSpans = keep_spans;
    const uint64_t legs_before = leafRequests();
    const OsSnapshot before = OsSnapshot::take();
    do {
        for (uint32_t index : workload.order()) {
            {
                std::unique_lock<std::mutex> lock(flight.mutex);
                flight.changed.wait(lock, [&] { return flight.inflight < window; });
                ++flight.inflight;
                ++flight.result.attempted;
            }
            issue(flight, index, nowNanos());
        }
    } while (nowNanos() - before.wallNs < min_ns);
    return finish(flight, before, legs_before);
}

PhaseResult
Driver::open(double qps, int64_t min_ns, uint64_t seed)
{
    const std::vector<uint32_t> &order = workload.order();
    const size_t rounds = std::max<size_t>(
        1, size_t(std::ceil(qps * double(min_ns) / 1e9 / double(order.size()))));

    // The whole schedule is drawn before the first send.
    Rng rng(seed ^ 0x0BE7100Full);
    std::vector<int64_t> due(rounds * order.size());
    double at_s = 0.0;
    for (int64_t &offset : due) {
        at_s += rng.nextExponential(qps);
        offset = int64_t(at_s * 1e9);
    }

    Flight flight;
    flight.result.latenessUs.reserve(due.size());
    const uint64_t legs_before = leafRequests();
    const OsSnapshot before = OsSnapshot::take();
    const int64_t start_ns = before.wallNs + 1'000'000;
    for (size_t i = 0; i < due.size(); ++i) {
        const int64_t due_ns = start_ns + due[i];
        if (nowNanos() < due_ns)
            sleepUntilNanos(due_ns);
        const int64_t sent_ns = nowNanos();
        {
            std::lock_guard<std::mutex> lock(flight.mutex);
            ++flight.inflight;
            ++flight.result.attempted;
            flight.result.latenessUs.push_back(double(sent_ns - due_ns) / 1e3);
        }
        issue(flight, order[i % order.size()], due_ns);
    }
    return finish(flight, before, legs_before);
}

} // namespace perfbench
