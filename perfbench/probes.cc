/**
 * @file
 * OS counter snapshots, sample summaries and provenance.
 */

#include "probes.h"

#include <algorithm>
#include <dirent.h>
#include <fstream>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <thread>

#include "base/time_util.h"
#include "ostrace/sync.h"
#include "stats/counters.h"

namespace perfbench {

namespace {

/** Second field of a task's schedstat: ns spent runnable, waiting. */
uint64_t
sumRunDelay()
{
    uint64_t total = 0;
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return 0;
    while (dirent *entry = readdir(dir)) {
        if (entry->d_name[0] == '.')
            continue;
        std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                         "/schedstat");
        uint64_t on_cpu = 0, waiting = 0;
        if (in >> on_cpu >> waiting)
            total += waiting;
    }
    closedir(dir);
    return total;
}

/** Total and steal ticks from the first line of /proc/stat. */
void
readHostTicks(uint64_t &total, uint64_t &steal)
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    total = steal = 0;
    for (int field = 0; field < 8; ++field) {
        uint64_t ticks = 0;
        if (!(in >> ticks))
            break;
        total += ticks;
        if (field == 7)
            steal = ticks;
    }
}

const char *const kAnomalyCounters[] = {
    "rpc.retry.scheduled",        "rpc.hedge.fired",
    "overload.queue_rejected",    "overload.admission_rejected",
    "rpc.client.late_response",   "rpc.call.late_response",
    "fanout.degraded",            "fanout.abandoned_leg",
};

} // namespace

OsSnapshot
OsSnapshot::take()
{
    OsSnapshot s;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ns = [](const timeval &tv) {
        return int64_t(tv.tv_sec) * 1'000'000'000 + int64_t(tv.tv_usec) * 1000;
    };
    s.cpuNs = ns(usage.ru_utime) + ns(usage.ru_stime);
    s.voluntary = uint64_t(usage.ru_nvcsw);
    s.involuntary = uint64_t(usage.ru_nivcsw);
    s.runDelayNs = sumRunDelay();
    s.futexWaits = musuite::contentionStats().futexWaits.load();
    s.futexWakes = musuite::contentionStats().futexWakes.load();
    for (const char *name : kAnomalyCounters)
        s.anomalies += musuite::globalCounters().counter(name).get();
    s.syscalls = musuite::snapshotSyscalls();
    readHostTicks(s.hostTicks, s.stealTicks);
    s.wallNs = musuite::nowNanos();
    return s;
}

OsSnapshot
OsSnapshot::operator-(const OsSnapshot &before) const
{
    OsSnapshot d;
    d.wallNs = wallNs - before.wallNs;
    d.cpuNs = cpuNs - before.cpuNs;
    d.voluntary = voluntary - before.voluntary;
    d.involuntary = involuntary - before.involuntary;
    // Threads that exited inside the window take their delay with
    // them, so the sum can shrink; clamp rather than wrap.
    d.runDelayNs = runDelayNs > before.runDelayNs
                       ? runDelayNs - before.runDelayNs
                       : 0;
    d.futexWaits = futexWaits - before.futexWaits;
    d.futexWakes = futexWakes - before.futexWakes;
    d.anomalies = anomalies - before.anomalies;
    d.hostTicks = hostTicks - before.hostTicks;
    d.stealTicks = stealTicks - before.stealTicks;
    d.syscalls = musuite::diffSyscalls(before.syscalls, syscalls);
    return d;
}

size_t
threadCount()
{
    size_t count = 0;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (dirent *entry = readdir(dir))
            count += entry->d_name[0] != '.';
        closedir(dir);
    }
    return count;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    auto at = [&](double q) {
        const size_t i = std::min(samples.size() - 1,
                                  size_t(q * double(samples.size())));
        std::nth_element(samples.begin(), samples.begin() + i, samples.end());
        return samples[i];
    };
    s.p50 = at(0.50);
    s.p99 = at(0.99);
    return s;
}

double
median(std::vector<double> values)
{
    return summarize(std::move(values)).p50;
}

void
printProvenance(std::ostream &out, const std::string &git_sha, uint64_t seed)
{
    utsname names{};
    uname(&names);
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    out << "provenance:\n"
        << "  nproc       " << std::thread::hardware_concurrency() << "\n"
        << "  cpu         " << model << "\n"
        << "  kernel      " << names.sysname << " " << names.release << "\n"
        << "  compiler    "
#if defined(__clang__)
        << "clang " << __clang_version__ << "\n"
#else
        << "gcc " << __VERSION__ << "\n"
#endif
        << "  build type  " << PERFBENCH_BUILD_TYPE << "\n"
        << "  git sha     " << git_sha << "\n"
        << "  seed        " << seed << "\n";
}

} // namespace perfbench
