/**
 * @file
 * End-to-end benchmark for three µSuite services over loopback murpc.
 *
 *   perfbench --workload router|setalgebra|hdsearch --seed N
 *             --seconds S --trace 0|1 [--git-sha SHA]
 *   perfbench --selftest
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the same
 * phases with spans kept, then times each layer's public calls. The
 * last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. See README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "base/time_util.h"
#include "driver.h"
#include "layers.h"
#include "probes.h"
#include "workloads.h"

using namespace perfbench;
using musuite::ServiceDeployment;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported with --trace 0; the names BENCHMARK.json bounds. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"closed_qps", "req/s"},
    {"unloaded_p50_us", "us"},
    {"cpu_us_per_req", "us"},
};

/**
 * Reported with --trace 1, in every workload. A metric of a layer the
 * workload does not use reads 0. HDSearch's own index metrics
 * (index.lsh_query_us, index.candidates_per_req, index.topk_us,
 * index.recall_at_k) are printed in the per-layer block only: the
 * benchmark's listed workloads are router and setalgebra.
 */
const MetricDef kPerLayer[] = {
    {"rpc.echo_rtt_us", "us"},
    {"rpc.leaf_rtt_us", "us"},
    {"rpc.vcsw_per_req", "count"},
    {"rpc.ivcsw_per_req", "count"},
    {"rpc.futex_waits_per_req", "count"},
    {"rpc.futex_wakes_per_req", "count"},
    {"rpc.retries_per_req", "count"},
    {"net.sendmsg_per_req", "count"},
    {"net.recvmsg_per_req", "count"},
    {"net.epoll_wait_per_req", "count"},
    {"base.runq_wait_us_per_req", "us"},
    {"base.threads", "count"},
    {"services.fanout_us", "us"},
    {"services.midtier_self_us", "us"},
    {"services.legs_per_req", "count"},
    {"services.get_p50_us", "us"},
    {"services.set_p50_us", "us"},
    {"serde.req_bytes", "bytes"},
    {"serde.leaf_req_bytes", "bytes"},
    {"serde.resp_bytes", "bytes"},
    {"serde.encode_us", "us"},
    {"serde.decode_us", "us"},
    {"index.intersect_us", "us"},
    {"index.union_us", "us"},
    {"index.result_docs_per_req", "count"},
    {"index.build_s", "s"},
    {"kv.get_us", "us"},
    {"kv.set_us", "us"},
    {"kv.get_hit_ratio", "ratio"},
    {"hash.route_us", "us"},
    {"dataset.generate_s", "s"},
    {"loadgen.lateness_p50_us", "us"},
    {"loadgen.lateness_p99_us", "us"},
    {"trace.closed_qps", "req/s"},
    {"trace.untraced_closed_qps", "req/s"},
    {"trace.overhead_pct", "%"},
};

/** Deployments per --trace 0 run; setup_s is the median of their set-ups. */
constexpr int kSetups = 3;
/** Rounds of unloaded / closed-window / open-loop slices per deployment. */
constexpr int kSlices = 4;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
    std::string gitSha = "unknown";
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload router|setalgebra|hdsearch "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n"
              << "       perfbench --selftest\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stoi(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--git-sha")
                args.gitSha = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!args.selftest && (args.seconds < 1 || (args.trace != 0 && args.trace != 1)))
        usage("--seconds must be >= 1 and --trace 0 or 1");
    return args;
}

/** Attempted / failed / wrong over every phase of a run. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    uint64_t anomalies = 0; //!< Retries, hedges, sheds, late, degraded.
    std::string firstWrong;

    void
    add(const PhaseResult &phase)
    {
        attempted += phase.attempted;
        failed += phase.failed;
        anomalies += phase.os.anomalies;
        if (phase.wrong > 0 && wrong == 0)
            firstWrong = phase.firstWrong;
        wrong += phase.wrong;
    }
};

void
printPhase(const char *name, int window, const PhaseResult &phase)
{
    const Summary latency = summarize(phase.latencyUs);
    const double n = double(std::max<uint64_t>(1, phase.attempted));
    std::ostringstream line;
    line << std::fixed << std::setprecision(1) << std::left << std::setw(12)
         << name << " window " << std::setw(4)
         << (window > 0 ? std::to_string(window) : "open") << " attempted "
         << std::setw(7) << phase.attempted << " failed " << std::setw(5)
         << phase.failed << " qps " << std::setw(8) << phase.qps()
         << " p50_us " << std::setw(7) << latency.p50 << " p99_us "
         << std::setw(7) << latency.p99 << " n " << std::setw(7) << latency.n
         << " cpu_us/req " << std::setw(6) << double(phase.os.cpuNs) / 1e3 / n
         << " vcsw/req " << std::setw(5) << double(phase.os.voluntary) / n
         << " steal% " << phase.os.stealPct() << "\n";
    if (!phase.latenessUs.empty()) {
        const Summary late = summarize(phase.latenessUs);
        line << "             generator lateness p50_us " << late.p50
             << " p99_us " << late.p99 << " n " << late.n << "\n";
    }
    std::cout << line.str();
}

void
printResult(bool correct, const Tally &tally, const Metrics &values,
            const MetricDef *defs, size_t count)
{
    std::ostringstream json;
    json << std::setprecision(10) << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (size_t i = 0; i < count; ++i) {
        const auto it = values.find(defs[i].name);
        const double value = it == values.end() || !std::isfinite(it->second)
                                 ? 0.0
                                 : it->second;
        json << (i ? ", " : "") << "\"" << defs[i].name
             << "\": {\"value\": " << value << ", \"unit\": \"" << defs[i].unit
             << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

std::unique_ptr<ServiceDeployment>
timedCreate(const Workload &workload, double &seconds)
{
    const int64_t t0 = musuite::nowNanos();
    auto deployment = ServiceDeployment::create(workload.kind(), workload.options());
    seconds = double(musuite::nowNanos() - t0) / 1e9;
    return deployment;
}

/** Print a phase's line and count its requests. */
const PhaseResult &
record(const char *name, int window, const PhaseResult &phase, Tally &tally)
{
    printPhase(name, window, phase);
    tally.add(phase);
    return phase;
}

/** Values measured in slices, each with the host's steal share then. */
using Slices = std::vector<std::pair<double, double>>;

/**
 * Median over the less-stolen half of the slices (ties included). The
 * hypervisor's steal share is read from outside the program and never
 * from the metric, so choosing slices by it drops stretches when other
 * guests held the CPUs without favouring any result. Where no CPU is
 * stolen this is the median of every slice.
 */
double
quietMedian(const Slices &slices)
{
    std::vector<double> steal;
    for (const auto &[steal_pct, value] : slices)
        steal.push_back(steal_pct);
    std::sort(steal.begin(), steal.end());
    const double cut = steal[(steal.size() - 1) / 2];
    std::vector<double> kept;
    for (const auto &[steal_pct, value] : slices) {
        if (steal_pct <= cut)
            kept.push_back(value);
    }
    return median(kept);
}

/**
 * --trace 0. Each of kSetups deployments is set up (timed), warmed up,
 * then measured in kSlices rounds of an unloaded, a closed-window and
 * an open-loop slice. Each metric is the median over the less-stolen
 * half of its slices, so a stretch of host contention or one
 * deployment's unlucky thread layout moves it little.
 */
Metrics
runEndToEnd(Workload &workload, const Args &args, Tally &tally)
{
    const int64_t share = int64_t(args.seconds) * 1'000'000'000 / kSetups;
    const int64_t warm = share / 10;
    const int64_t slice = (share - warm) / (3 * kSlices);
    const int window = int(std::thread::hardware_concurrency());

    std::vector<double> setups;
    Slices unloaded_p50, closed_qps, cpu_per_req, loaded_p50;
    for (int r = 0; r < kSetups; ++r) {
        double setup_s = 0;
        auto deployment = timedCreate(workload, setup_s);
        setups.push_back(setup_s);
        std::cout << "deployment " << r << ": set-up " << setup_s << " s\n";

        workload.attach(*deployment);
        Driver driver(workload, *deployment);
        PhaseResult warm_up = driver.closed(window, warm, false);
        record("warm-up", window, warm_up, tally);
        for (int k = 0; k < kSlices; ++k) {
            PhaseResult unloaded = driver.closed(1, slice, false);
            PhaseResult loaded = driver.closed(window, slice, false);
            PhaseResult open = driver.open(
                workload.openLoopQps(), slice,
                args.seed * kSetups * kSlices + uint64_t(r * kSlices + k));
            record("unloaded", 1, unloaded, tally);
            record("closed", window, loaded, tally);
            record("open-loop", 0, open, tally);
            unloaded_p50.push_back({unloaded.os.stealPct(),
                                    summarize(unloaded.latencyUs).p50});
            closed_qps.push_back({loaded.os.stealPct(), loaded.qps()});
            cpu_per_req.push_back({loaded.os.stealPct(),
                                   double(loaded.os.cpuNs) / 1e3 /
                                       double(loaded.attempted)});
            loaded_p50.push_back({open.os.stealPct(), summarize(open.latencyUs).p50});
        }
    }

    // Open-loop latency moved too much between runs to be bounded; it
    // is printed for reading, not reported.
    std::cout << "loaded_p50_us " << quietMedian(loaded_p50) << " at "
              << workload.openLoopQps() << " req/s (printed only)\n";

    Metrics m;
    m["setup_s"] = median(setups);
    m["closed_qps"] = quietMedian(closed_qps);
    m["unloaded_p50_us"] = quietMedian(unloaded_p50);
    m["cpu_us_per_req"] = quietMedian(cpu_per_req);
    return m;
}

/** --trace 1: the same phases with spans kept, then the layer probes. */
Metrics
runTraced(Workload &workload, const Args &args, Tally &tally)
{
    const int64_t budget = int64_t(args.seconds) * 1'000'000'000;
    const int window = int(std::thread::hardware_concurrency());
    Metrics m;

    double setup_s = 0;
    auto deployment = timedCreate(workload, setup_s);
    m["base.threads"] = double(threadCount());
    std::cout << "set-up " << setup_s << " s, " << threadCount() << " threads\n";

    workload.attach(*deployment);
    Driver driver(workload, *deployment);
    PhaseResult warm = driver.closed(window, budget / 20, false);
    record("warm-up", window, warm, tally);
    PhaseResult unloaded = driver.closed(1, budget / 4, true);
    record("unloaded", 1, unloaded, tally);
    // Plain and traced closed windows, interleaved.
    std::vector<PhaseResult> plain, traced;
    for (int k = 0; k < 2; ++k) {
        plain.push_back(driver.closed(window, budget * 3 / 40, false));
        record("closed", window, plain.back(), tally);
        traced.push_back(driver.closed(window, budget * 3 / 40, true));
        record("closed+span", window, traced.back(), tally);
    }
    PhaseResult open = driver.open(workload.openLoopQps(), budget * 3 / 20, args.seed);
    record("open-loop", 0, open, tally);
    m["rpc.retries_per_req"] = double(tally.anomalies) / double(tally.attempted);

    // Switches, futexes and syscalls per request, one request in flight.
    const double n = double(unloaded.attempted);
    m["rpc.vcsw_per_req"] = double(unloaded.os.voluntary) / n;
    m["rpc.ivcsw_per_req"] = double(unloaded.os.involuntary) / n;
    m["rpc.futex_waits_per_req"] = double(unloaded.os.futexWaits) / n;
    m["rpc.futex_wakes_per_req"] = double(unloaded.os.futexWakes) / n;
    m["net.sendmsg_per_req"] = double(unloaded.os.sys(musuite::Sys::Sendmsg)) / n;
    m["net.recvmsg_per_req"] = double(unloaded.os.sys(musuite::Sys::Recvmsg)) / n;
    m["net.epoll_wait_per_req"] = double(unloaded.os.sys(musuite::Sys::EpollPwait)) / n;

    // Run-queue wait, fan-out width and throughput in the closed windows.
    double runq_ns = 0, legs = 0, requests = 0;
    std::vector<double> plain_qps, traced_qps;
    for (const PhaseResult &phase : traced) {
        runq_ns += double(phase.os.runDelayNs);
        legs += double(phase.legs);
        requests += double(phase.attempted);
        traced_qps.push_back(phase.qps());
    }
    for (const PhaseResult &phase : plain)
        plain_qps.push_back(phase.qps());
    m["base.runq_wait_us_per_req"] = runq_ns / 1e3 / requests;
    m["services.legs_per_req"] = legs / requests;
    m["trace.closed_qps"] = median(traced_qps);
    m["trace.untraced_closed_qps"] = median(plain_qps);
    m["trace.overhead_pct"] =
        100.0 * (1.0 - m["trace.closed_qps"] / m["trace.untraced_closed_qps"]);

    // Router gets and sets apart.
    std::vector<double> get_us, set_us;
    if (workload.kind() == musuite::ServiceKind::Router) {
        for (size_t i = 0; i < unloaded.poolIndex.size(); ++i)
            (workload.isGet(unloaded.poolIndex[i]) ? get_us : set_us)
                .push_back(unloaded.latencyUs[i]);
        m["services.get_p50_us"] = summarize(get_us).p50;
        m["services.set_p50_us"] = summarize(set_us).p50;
    }

    const Summary late = summarize(open.latenessUs);
    m["loadgen.lateness_p50_us"] = late.p50;
    m["loadgen.lateness_p99_us"] = late.p99;

    double req_bytes = 0, resp_bytes = 0;
    for (size_t i = 0; i < workload.poolSize(); ++i) {
        req_bytes += double(workload.body(i).size());
        resp_bytes += double(driver.responses()[i].size());
    }
    m["serde.req_bytes"] = req_bytes / double(workload.poolSize());
    m["serde.resp_bytes"] = resp_bytes / double(workload.poolSize());

    probeTransport(workload, *deployment, budget * 3 / 20, m);
    m["services.midtier_self_us"] =
        summarize(unloaded.latencyUs).p50 - m["services.fanout_us"];
    workload.probeLayers(driver.responses(), m);

    std::cout << "per-layer:\n";
    for (const auto &[name, value] : m)
        std::cout << "  " << std::left << std::setw(28) << name << " " << value << "\n";
    std::cout << "tracing overhead on closed_qps: " << m["trace.overhead_pct"]
              << "% (" << m["trace.closed_qps"] << " traced vs "
              << m["trace.untraced_closed_qps"] << " untraced)\n";
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    std::string log;
    const int broken = runCheckerSelfTest(log);
    if (args.selftest || broken) {
        std::cout << "checker self-test:\n" << log;
        std::cout << (broken ? "checker self-test FAILED\n" : "checker self-test passed\n");
        return broken ? 1 : 0;
    }

    std::unique_ptr<Workload> workload = Workload::make(args.workload);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    printProvenance(std::cout, args.gitSha, args.seed);
    std::cout << "workload " << args.workload << ", " << args.seconds
              << " s measured, trace " << args.trace << "\n";
    const int64_t t0 = musuite::nowNanos();
    workload->prepare(args.seed);
    std::cout << "pool and expected answers built in "
              << double(musuite::nowNanos() - t0) / 1e9 << " s\n";

    Tally tally;
    const Metrics metrics = args.trace ? runTraced(*workload, args, tally)
                                       : runEndToEnd(*workload, args, tally);
    if (tally.wrong > 0) {
        std::cout << tally.wrong << " wrong answers; first: " << tally.firstWrong
                  << "\n";
    }
    std::cout << "attempted " << tally.attempted << ", failed " << tally.failed
              << " (" << 100.0 * double(tally.failed) / double(tally.attempted)
              << "%)\n";
    if (args.trace)
        printResult(tally.wrong == 0, tally, metrics, kPerLayer, std::size(kPerLayer));
    else
        printResult(tally.wrong == 0, tally, metrics, kEndToEnd, std::size(kEndToEnd));
    return 0;
}
