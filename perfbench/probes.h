/**
 * @file
 * Process-wide counters read around a timed window, sample summaries
 * and the provenance block every run prints.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ostrace/syscalls.h"

namespace perfbench {

/**
 * Counters read from outside the services: getrusage, per-thread
 * schedstat, the ostrace syscall and futex tallies and the process
 * retry / shed / late / degraded counters. Subtract two snapshots to
 * get a window's deltas.
 */
struct OsSnapshot
{
    int64_t wallNs = 0;
    int64_t cpuNs = 0;           //!< User + system, whole process.
    uint64_t voluntary = 0;      //!< Context switches (getrusage).
    uint64_t involuntary = 0;
    uint64_t runDelayNs = 0;     //!< Sum over /proc/self/task/*/schedstat.
    uint64_t futexWaits = 0;     //!< ostrace contentionStats().
    uint64_t futexWakes = 0;
    uint64_t anomalies = 0;      //!< Retries, hedges, sheds, late, degraded.
    uint64_t hostTicks = 0;      //!< All CPU ticks of the machine (/proc/stat).
    uint64_t stealTicks = 0;     //!< Ticks the hypervisor gave to others.
    musuite::SyscallSnapshot syscalls{};

    static OsSnapshot take();
    OsSnapshot operator-(const OsSnapshot &before) const;
    uint64_t sys(musuite::Sys which) const
    {
        return syscalls[size_t(which)];
    }
    /** Share of the machine's CPU time stolen by the hypervisor, %. */
    double stealPct() const
    {
        return hostTicks ? 100.0 * double(stealTicks) / double(hostTicks) : 0.0;
    }
};

/** Number of threads in this process. */
size_t threadCount();

/** Median, p99 and count of a set of samples (any unit). */
struct Summary
{
    double p50 = 0.0;
    double p99 = 0.0;
    size_t n = 0;
};

/** Exact order statistics of a copy of `samples`. */
Summary summarize(std::vector<double> samples);

double median(std::vector<double> values);

/** nproc, CPU model, kernel, compiler, build type, git sha and seed. */
void printProvenance(std::ostream &out, const std::string &git_sha,
                     uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
