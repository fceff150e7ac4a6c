#include "serve/replay.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "util/result.hpp"

namespace chaos::serve {

TraceReplayer::TraceReplayer(const Dataset &data)
{
    raiseIf(data.numRows() == 0, "replay: empty dataset");

    std::map<int, std::size_t> byMachine;  // Sorted by machine id.
    for (std::size_t r = 0; r < data.numRows(); ++r) {
        const int machine = data.machineIds()[r];
        const auto [it, inserted] =
            byMachine.try_emplace(machine, machines.size());
        if (inserted) {
            MachineTrace trace;
            trace.id = "machine" + std::to_string(machine);
            machines.push_back(std::move(trace));
        }
        MachineTrace &trace = machines[it->second];
        trace.rows.push_back(data.features().row(r));
        trace.meteredW.push_back(data.powerW()[r]);
        ticks = std::max(ticks, trace.rows.size());
    }
    for (const MachineTrace &trace : machines)
        ids.push_back(trace.id);
    // byMachine is ordered, and machines were appended in first-seen
    // order; re-sort so ids/machines are ordered by id string.
    std::sort(machines.begin(), machines.end(),
              [](const MachineTrace &a, const MachineTrace &b) {
                  return a.id < b.id;
              });
    std::sort(ids.begin(), ids.end());
}

std::size_t
TraceReplayer::numSamples() const
{
    std::size_t total = 0;
    for (const MachineTrace &trace : machines)
        total += trace.rows.size();
    return total;
}

ReplayStats
TraceReplayer::replayInto(FleetServer &server,
                          const ReplayConfig &config,
                          const std::atomic<bool> *stopFlag) const
{
    // Resolve every entry once up front; this also validates that the
    // fleet covers the trace before the first sample is submitted.
    std::vector<MachineEntry *> entries;
    entries.reserve(machines.size());
    for (const MachineTrace &trace : machines) {
        MachineEntry *entry = server.machine(trace.id);
        raiseIf(entry == nullptr,
                "replay: trace machine '" + trace.id +
                    "' is not registered with the server");
        entries.push_back(entry);
    }

    using clock = std::chrono::steady_clock;
    const bool paced = config.speed > 0.0;
    const auto tickPeriod = std::chrono::duration<double>(
        paced ? 1.0 / config.speed : 0.0);
    const auto epoch = clock::now();

    ReplayStats stats;
    for (std::size_t t = 0; t < ticks; ++t) {
        if (stopFlag != nullptr && stopFlag->load())
            break;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const MachineTrace &trace = machines[m];
            if (t >= trace.rows.size())
                continue;
            server.submitTo(*entries[m], trace.rows[t],
                            trace.meteredW[t]);
            ++stats.submitted;
        }
        ++stats.ticks;
        if (config.onTick)
            config.onTick(t);
        if (paced) {
            const auto next =
                epoch + std::chrono::duration_cast<clock::duration>(
                            tickPeriod * static_cast<double>(t + 1));
            std::this_thread::sleep_until(next);
        }
    }
    return stats;
}

} // namespace chaos::serve
