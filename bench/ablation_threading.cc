/**
 * @file
 * §VII ablations — the design-space trade-offs the paper calls out
 * for future research, measured on the real stack:
 *
 *   1. Blocking vs polling network threads: blocking conserves CPU
 *      but pays wakeup latency; polling burns CPU to shave tails.
 *   2. Inline vs dispatched RPC execution: inline avoids the
 *      thread-hop at low load; dispatch scales and isolates queueing.
 *   3. Worker-pool sizing: too few threads queue; too many contend
 *      on the task queue (the paper's thread-pool-sizing question).
 *
 * Each variant configures the mid-tier and every leaf server alike
 * (the worker-pool size applies to the mid-tier; leaves keep their
 * default pool), so "block+dispatch w=4" is the paper's Fig. 8
 * deployment and "block+inline" the run-to-completion one. The leaf
 * channels follow the mid-tier: dispatch variants read leaf replies on
 * a pick-up thread per channel, inline ones on the mid-tier's own
 * poller (no pick-up threads). Each serves
 * the same open-loop load on the Router service (the most
 * latency-sensitive of the four); we report the latency distribution
 * and the futex, sendmsg, recvmsg and contention counters per variant.
 *
 * Flags: --qps=N --window-ms=N --service=router|hdsearch|...
 */

#include <iostream>

#include "bench_common.h"
#include "harness/experiment.h"
#include "stats/table.h"

using namespace musuite;

namespace {

struct Variant
{
    std::string name;
    int pollers;
    int workers;
    bool dispatch;
    bool blocking;
    int adaptiveStreak = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout,
                "Ablation (paper §VII): threading-model trade-offs");

    ServiceKind kind = ServiceKind::Router;
    const std::string service = flags.str("service", "router");
    if (service == "hdsearch")
        kind = ServiceKind::HdSearch;
    else if (service == "setalgebra")
        kind = ServiceKind::SetAlgebra;
    else if (service == "recommend")
        kind = ServiceKind::Recommend;

    const std::vector<Variant> variants = {
        {"block+dispatch w=1", 1, 1, true, true},
        {"block+dispatch w=4", 1, 4, true, true},
        {"block+dispatch w=16", 1, 16, true, true},
        {"block+inline", 1, 0, false, true},
        {"poll+dispatch w=4", 1, 4, true, false},
        {"poll+inline", 1, 0, false, false},
        {"adaptive+dispatch w=4", 1, 4, true, true, 256},
        {"adaptive+inline", 1, 0, false, true, 256},
    };

    Table table({"variant", "p50", "p99", "max", "futex/query",
                 "sendmsg/query", "recvmsg/query", "hitm", "cs"});
    for (const Variant &variant : variants) {
        DeploymentOptions options = bench::realModeOptions(flags);
        for (rpc::ServerOptions *tier :
             {&options.midTierServer, &options.leafServer}) {
            tier->pollerThreads = variant.pollers;
            tier->dispatchToWorkers = variant.dispatch;
            tier->blockingPoll = variant.blocking;
            tier->adaptiveIdleStreak = variant.adaptiveStreak;
        }
        options.midTierServer.workerThreads =
            std::max(1, variant.workers);

        auto deployment = ServiceDeployment::create(kind, options);
        WindowOptions window;
        window.qps = flags.num("qps", 500);
        window.durationNs =
            int64_t(flags.num("window-ms", 1500)) * 1'000'000;
        window.seed = 41;
        const WindowReport report =
            runOpenLoopWindow(*deployment, window);

        const auto per_query = [&report](Sys sys) {
            return report.load.completed
                       ? double(report.syscalls[size_t(sys)]) /
                             double(report.load.completed)
                       : 0.0;
        };
        table.row()
            .cell(variant.name)
            .nanos(report.load.latency.valueAtQuantile(0.5))
            .nanos(report.load.latency.valueAtQuantile(0.99))
            .nanos(report.load.latency.maxValue())
            .cell(per_query(Sys::Futex), 2)
            .cell(per_query(Sys::Sendmsg), 2)
            .cell(per_query(Sys::Recvmsg), 2)
            .cell(report.hitmEvents)
            .cell(report.contextSwitches.total());
    }
    table.print(std::cout);

    std::cout << "\nReading: inline skips the dispatch hop (fewer "
                 "futexes per query); dispatch isolates slow requests "
                 "and scales workers; polling variants trade CPU for "
                 "wakeup latency (on a single-core host polling can "
                 "instead *hurt*, since the spinning poller steals "
                 "the only core).\n";
    return 0;
}
