#include "bench_support.hpp"

#include <cstdlib>
#include <iostream>
#include <thread>

#include "stats/descriptive.hpp"
#include "util/string_utils.hpp"

namespace chaos {
namespace bench {

bool
fastMode()
{
    const char *value = std::getenv("CHAOS_BENCH_FAST");
    return value != nullptr && std::string(value) == "1";
}

std::string
hostJsonFields()
{
    return "  \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\n  \"build_type\": \"" + std::string(CHAOS_BUILD_TYPE) +
           "\",\n";
}

CampaignConfig
paperCampaignConfig(uint64_t seed)
{
    CampaignConfig config;
    config.seed = seed;
    if (fastMode()) {
        config.numMachines = 3;
        config.runsPerWorkload = 2;
        config.run.durationScale = 0.3;
        config.evaluation.folds = 2;
    } else {
        config.numMachines = 5;
        config.runsPerWorkload = 5;
        config.evaluation.folds = 5;
    }
    return config;
}

ClusterCampaign
campaignFor(MachineClass mc, const CampaignConfig &config)
{
    std::cerr << "[bench] collecting " << machineClassName(mc)
              << " cluster (" << config.numMachines << " machines x 4 "
              << "workloads x " << config.runsPerWorkload
              << " runs)..." << std::endl;
    return runClusterCampaign(mc, config);
}

void
dropRawRuns(ClusterCampaign &campaign)
{
    campaign.runs.clear();
    campaign.runs.shrink_to_fit();
}

std::string
pct(double fraction, int decimals)
{
    return formatPercent(fraction, decimals);
}

std::string
sparkline(const std::vector<double> &series, size_t width)
{
    static const char *levels[] = {" ", ".", ":", "-", "=", "+",
                                   "*", "#"};
    if (series.empty() || width == 0)
        return "";
    const double lo = minValue(series);
    const double hi = maxValue(series);
    const double span = hi > lo ? hi - lo : 1.0;

    std::string out;
    for (size_t i = 0; i < width; ++i) {
        const size_t idx = i * series.size() / width;
        const double norm = (series[idx] - lo) / span;
        const int level = std::min(7, static_cast<int>(norm * 8.0));
        out += levels[level];
    }
    return out;
}

} // namespace bench
} // namespace chaos
