/**
 * @file
 * Echo, direct-leaf and fan-out round trips.
 */

#include "layers.h"

#include <future>
#include <iostream>
#include <map>

#include "base/time_util.h"
#include "probes.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "services/common/fanout.h"

namespace perfbench {

using namespace musuite;

namespace {

constexpr uint32_t kEchoMethod = 1;

rpc::ClientOptions
probeClient(const char *name)
{
    rpc::ClientOptions options;
    options.name = name;
    return options;
}

/** Run `once` until `budget_ns` is spent; p50 of its wall time in µs. */
double
p50Of(int64_t budget_ns, const std::function<bool()> &once)
{
    std::vector<double> us;
    const int64_t end = nowNanos() + budget_ns;
    while (nowNanos() < end) {
        const int64_t t0 = nowNanos();
        if (once())
            us.push_back(double(nowNanos() - t0) / 1e3);
    }
    return summarize(us).p50;
}

} // namespace

void
probeTransport(Workload &workload, ServiceDeployment &deployment,
               int64_t budget_ns, Metrics &out)
{
    // Every leg of every pool entry, in round order.
    std::vector<Leg> legs;
    std::vector<std::vector<Leg>> fanouts;
    double leg_bytes = 0;
    for (uint32_t index : workload.order()) {
        fanouts.push_back(workload.legs(index));
        for (const Leg &leg : fanouts.back()) {
            legs.push_back(leg);
            leg_bytes += double(leg.body.size());
        }
    }
    const size_t mean_leg = legs.empty() ? 0 : size_t(leg_bytes / double(legs.size()));
    out["serde.leaf_req_bytes"] = legs.empty() ? 0.0 : leg_bytes / double(legs.size());
    const int64_t slice = budget_ns / 3;

    // A no-op handler on a server configured like a leaf.
    {
        rpc::ServerOptions options = workload.options().leafServer;
        options.name = "echo";
        rpc::Server server(options);
        server.registerHandler(kEchoMethod, [](rpc::ServerCallPtr call) {
            call->respondOk("");
        });
        server.start();
        rpc::RpcClient client(server.port(), probeClient("echo"));
        const std::string payload(mean_leg, 'x');
        out["rpc.echo_rtt_us"] = p50Of(slice, [&] {
            return client.callSync(kEchoMethod, payload).isOk();
        });
        server.stop();
    }

    // Real leaf requests straight to the leaf servers.
    {
        std::map<uint32_t, std::unique_ptr<rpc::RpcClient>> clients;
        for (const Leg &leg : legs) {
            if (!clients.count(leg.leaf)) {
                clients[leg.leaf] = std::make_unique<rpc::RpcClient>(
                    deployment.leafServer(leg.leaf).port(), probeClient("leafprobe"));
            }
        }
        size_t next = 0;
        out["rpc.leaf_rtt_us"] = legs.empty() ? 0.0 : p50Of(slice, [&] {
            const Leg &leg = legs[next++ % legs.size()];
            return clients[leg.leaf]->callSync(workload.leafMethod(), leg.body).isOk();
        });
    }

    // The mid-tier's fan-out, issued over the deployment's own channels.
    size_t next = 0;
    out["services.fanout_us"] = p50Of(slice, [&] {
        const std::vector<Leg> &legs_of = fanouts[next++ % fanouts.size()];
        if (legs_of.empty())
            return false;
        std::vector<FanoutRequest> requests;
        for (const Leg &leg : legs_of) {
            FanoutRequest request;
            request.channel = deployment.leafChannel(leg.leaf).get();
            request.body = leg.body;
            request.tag = leg.leaf;
            requests.push_back(std::move(request));
        }
        auto done = std::make_shared<std::promise<uint32_t>>();
        std::future<uint32_t> ok_legs = done->get_future();
        fanoutCall(workload.leafMethod(), std::move(requests), FanoutOptions{},
                   [done](FanoutOutcome outcome) { done->set_value(outcome.okLegs); });
        return ok_legs.get() == legs_of.size();
    });
}

} // namespace perfbench
