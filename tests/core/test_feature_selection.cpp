/**
 * @file
 * Tests for Algorithm 1: the six-step feature reduction pipeline.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "campaign_fixture.hpp"
#include "oscounters/counter_catalog.hpp"
#include "stats/correlation.hpp"

namespace chaos {
namespace {

using testing_support::atomCampaign;
using testing_support::core2Campaign;

TEST(FeatureSelection, FunnelShrinksMonotonically)
{
    const auto &selection = core2Campaign().selection;
    EXPECT_GT(selection.catalogSize, 150u);
    EXPECT_LT(selection.afterConstantDrop, selection.catalogSize);
    EXPECT_LE(selection.afterCorrelation, selection.afterConstantDrop);
    EXPECT_LE(selection.afterCoDependency, selection.afterCorrelation);
    EXPECT_LE(selection.selected.size(), selection.afterCoDependency);
    // Paper: 250 -> ~50 -> ~order-10 features.
    EXPECT_GE(selection.selected.size(), 3u);
    EXPECT_LE(selection.selected.size(), 25u);
}

TEST(FeatureSelection, SelectsUtilizationAsCoreSignal)
{
    // "Processor utilization was the most commonly identified
    // feature" (paper Fig. 2 discussion).
    const auto &selection = core2Campaign().selection;
    const auto &selected = selection.selected;
    EXPECT_NE(std::find(selected.begin(), selected.end(),
                        counters::kCpuUtilization),
              selected.end());
}

TEST(FeatureSelection, Core2SelectsFrequency)
{
    // On a DVFS platform the frequency counter is a dominant feature
    // (paper Table II: every DVFS platform selects Processor_0
    // Frequency).
    const auto &selected = core2Campaign().selection.selected;
    EXPECT_NE(std::find(selected.begin(), selected.end(),
                        counters::kCore0Frequency),
              selected.end());
}

TEST(FeatureSelection, ExcludedCountersNeverSelected)
{
    const auto &selected = core2Campaign().selection.selected;
    for (const auto &name : selected) {
        EXPECT_NE(name, counters::kCore0FrequencyLag);
        EXPECT_NE(name, "System\\System Up Time");
    }
}

TEST(FeatureSelection, SelectedFeaturesAreDecorrelated)
{
    // Step 1's contract: no surviving pair correlates above the
    // threshold on the screening data.
    const auto &campaign = core2Campaign();
    const auto &selected = campaign.selection.selected;
    const Dataset sub =
        campaign.data.selectFeaturesByName(selected);
    const Matrix corr = correlationMatrix(sub.features());
    for (size_t i = 0; i < selected.size(); ++i) {
        for (size_t j = i + 1; j < selected.size(); ++j) {
            EXPECT_LE(std::fabs(corr(i, j)), 0.97)
                << selected[i] << " vs " << selected[j];
        }
    }
}

TEST(FeatureSelection, HistogramCoversSelectedFeatures)
{
    const auto &selection = core2Campaign().selection;
    for (const auto &name : selection.selected) {
        const auto it = selection.histogram.find(name);
        ASSERT_NE(it, selection.histogram.end()) << name;
        EXPECT_GE(it->second, selection.finalThreshold) << name;
    }
}

TEST(FeatureSelection, ThresholdStartsAtConfiguredValue)
{
    // The paper starts at 5; stepwise may push it up (to 7 there).
    const auto &selection = core2Campaign().selection;
    EXPECT_GE(selection.finalThreshold, 5.0);
    EXPECT_LE(selection.finalThreshold, 20.0);
}

TEST(FeatureSelection, PerMachineRecordsCoverMachinesAndWorkloads)
{
    const auto &campaign = core2Campaign();
    const auto &records = campaign.selection.perMachine;
    ASSERT_FALSE(records.empty());

    std::set<int> machines;
    std::set<std::string> workloads;
    for (const auto &record : records) {
        machines.insert(record.machineId);
        workloads.insert(record.workload);
        // Step 4 output is a subset of step 3 output.
        for (const auto &name : record.significant) {
            EXPECT_NE(std::find(record.lassoSelected.begin(),
                                record.lassoSelected.end(), name),
                      record.lassoSelected.end());
        }
    }
    EXPECT_EQ(machines.size(), 3u);
    EXPECT_EQ(workloads.size(), 4u);
}

TEST(FeatureSelection, ScreeningDropsCoDependentSums)
{
    // After step 2, a derived counter and its addend cannot both
    // survive alongside each other.
    const auto &campaign = core2Campaign();
    FeatureSelectionConfig config;
    Rng rng(3);
    FeatureSelectionResult funnel;
    const auto survivors =
        screenCounters(campaign.data, config, rng, &funnel);

    std::set<std::string> names;
    for (size_t idx : survivors)
        names.insert(campaign.data.featureNames()[idx]);

    for (const auto &dep : CounterCatalog::instance().coDependencies()) {
        if (!names.count(dep.sum))
            continue;
        // If the sum survived, no addend may have survived.
        for (const auto &part : dep.parts)
            EXPECT_FALSE(names.count(part))
                << dep.sum << " and " << part << " both survived";
    }
}

TEST(FeatureSelection, ScreeningDropsConstantCounters)
{
    // Core2 has 2 cores: core 5's utilization is constant zero and
    // must not survive screening.
    const auto &campaign = core2Campaign();
    FeatureSelectionConfig config;
    Rng rng(4);
    const auto survivors =
        screenCounters(campaign.data, config, rng, nullptr);
    for (size_t idx : survivors) {
        EXPECT_NE(campaign.data.featureNames()[idx],
                  "Processor(5)\\% Processor Time");
    }
}

TEST(FeatureSelection, TighterCorrelationThresholdKeepsMore)
{
    // Sensitivity knob from the paper: |r| > 0.95 with diminishing
    // returns below. A looser threshold (0.999) must keep at least
    // as many counters as 0.95.
    const auto &campaign = core2Campaign();
    Rng rng_a(5), rng_b(5);

    FeatureSelectionConfig strict;
    strict.correlationThreshold = 0.95;
    FeatureSelectionConfig loose;
    loose.correlationThreshold = 0.999;

    const auto kept_strict =
        screenCounters(campaign.data, strict, rng_a, nullptr);
    const auto kept_loose =
        screenCounters(campaign.data, loose, rng_b, nullptr);
    EXPECT_GE(kept_loose.size(), kept_strict.size());
}

/** Join names with " | ". */
std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (size_t i = 0; i < names.size(); ++i)
        out += (i ? " | " : "") + names[i];
    return out;
}

/**
 * Every output of Algorithm 1 that a later stage reads, one fact a
 * line, numbers at full precision.
 */
std::string
serializeSelection(const FeatureSelectionResult &result)
{
    char number[64];
    std::string out = "selected: " + joinNames(result.selected) + "\n";
    std::snprintf(number, sizeof number, "%.17g", result.finalThreshold);
    out += "threshold: " + std::string(number) + "\n";
    for (const auto &[name, weight] : result.histogram) {
        std::snprintf(number, sizeof number, "%.17g", weight);
        out += "histogram: " + name + " = " + number + "\n";
    }
    for (const PerMachineSelection &record : result.perMachine) {
        out += "slice: machine " + std::to_string(record.machineId) +
               " " + record.workload + "\n";
        out += "  lasso: " + joinNames(record.lassoSelected) + "\n";
        out += "  significant: " + joinNames(record.significant) + "\n";
    }
    return out;
}

// Captured from the residual-form solver with serial slices; the
// covariance-form solver and the parallel slice loop must reproduce
// it exactly.
const char *const kCore2Golden = R"golden(selected: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | System\Processor Queue Length
threshold: 6
histogram: Cache\Copy Read Hits % = 0.5
histogram: Cache\Data Map Pins/sec = 1.25
histogram: Cache\Fast Reads Not Possible/sec = 3.25
histogram: Cache\Lazy Write Flushes/sec = 2.25
histogram: Cache\Pin Read Hits % = 1
histogram: IPv4\Datagrams Received/sec = 1.25
histogram: Job Object Details(_Total)\Page File Bytes Peak = 3.5
histogram: Memory\Cache Faults/sec = 1
histogram: Memory\Committed Bytes = 7
histogram: Memory\Free System Page Table Entries = 2
histogram: Memory\Pages/sec = 4
histogram: Memory\Pool Nonpaged Allocs = 1.5
histogram: Memory\System Code Resident Bytes = 0.25
histogram: Memory\Write Copies/sec = 0.5
histogram: Objects\Events = 0.5
histogram: Objects\Mutexes = 0.5
histogram: Objects\Sections = 1.25
histogram: Objects\Semaphores = 0.75
histogram: Process(_Total)\Handle Count = 1
histogram: Process(_Total)\IO Data Bytes/sec = 0.5
histogram: Process(_Total)\IO Other Bytes/sec = 0.75
histogram: Processor Performance\Processor_0 Frequency = 12
histogram: Processor(_Total)\% DPC Time = 2.5
histogram: Processor(_Total)\% Privileged Time = 2.75
histogram: Processor(_Total)\% Processor Time = 12
histogram: System\Context Switches/sec = 5.25
histogram: System\Processes = 2
histogram: System\Processor Queue Length = 6.25
histogram: System\Threads = 0.25
histogram: TCPv6\Segments/sec = 0.5
histogram: UDPv6\Datagrams/sec = 0.75
slice: machine 0 Sort
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Memory\Write Copies/sec | Memory\Free System Page Table Entries | TCPv6\Segments/sec | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Data Bytes/sec | System\Context Switches/sec | System\Processes | Objects\Events | Objects\Sections
  significant: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Objects\Sections
slice: machine 0 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Committed Bytes | Memory\Free System Page Table Entries | UDPv6\Datagrams/sec | Cache\Fast Reads Not Possible/sec | Process(_Total)\Handle Count | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | System\Processes | System\Processor Queue Length
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Committed Bytes | Cache\Fast Reads Not Possible/sec | System\Context Switches/sec
slice: machine 0 Prime
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Memory\Pool Nonpaged Allocs | Cache\Data Map Pins/sec | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | System\Processor Queue Length | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | System\Processor Queue Length
slice: machine 0 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Free System Page Table Entries | IPv4\Datagrams Received/sec | TCPv6\Segments/sec | Cache\Pin Read Hits % | Cache\Fast Reads Not Possible/sec | Cache\Lazy Write Flushes/sec | Process(_Total)\Handle Count | Job Object Details(_Total)\Page File Bytes Peak
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | IPv4\Datagrams Received/sec
slice: machine 1 Sort
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor Performance\Processor_0 Frequency | Memory\Pool Nonpaged Allocs | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Data Bytes/sec | System\Context Switches/sec | Objects\Mutexes
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | System\Context Switches/sec
slice: machine 1 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Committed Bytes | Memory\Pool Nonpaged Allocs | Cache\Data Map Pins/sec | Cache\Copy Read Hits % | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | System\Processor Queue Length | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Committed Bytes | Cache\Data Map Pins/sec | System\Context Switches/sec | System\Processor Queue Length
slice: machine 1 Prime
  lasso: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Memory\System Code Resident Bytes | UDPv6\Datagrams/sec | Cache\Pin Read Hits % | Process(_Total)\IO Other Bytes/sec | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | System\Processor Queue Length | Objects\Mutexes
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | System\Processor Queue Length
slice: machine 1 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Cache\Pin Read Hits % | Cache\Copy Read Hits % | Cache\Fast Reads Not Possible/sec | Process(_Total)\Handle Count | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | System\Processes | System\Processor Queue Length
  significant: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Cache\Fast Reads Not Possible/sec | System\Processes | System\Processor Queue Length
slice: machine 2 Sort
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Memory\Free System Page Table Entries | Cache\Pin Read Hits % | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Other Bytes/sec | System\Processes | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Memory\Committed Bytes | Cache\Lazy Write Flushes/sec
slice: machine 2 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Cache Faults/sec | Memory\Committed Bytes | Memory\Pool Nonpaged Allocs | Process(_Total)\IO Other Bytes/sec | System\Context Switches/sec | System\Processes | System\Processor Queue Length
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pages/sec | Memory\Cache Faults/sec | Memory\Committed Bytes | System\Context Switches/sec | System\Processor Queue Length
slice: machine 2 Prime
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Processor Performance\Processor_0 Frequency | Memory\Pool Nonpaged Allocs | Memory\Write Copies/sec | Cache\Lazy Write Flushes/sec | Job Object Details(_Total)\Page File Bytes Peak | System\Threads | System\Processor Queue Length | Objects\Sections
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Job Object Details(_Total)\Page File Bytes Peak | System\Processor Queue Length
slice: machine 2 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Pool Nonpaged Allocs | Memory\Free System Page Table Entries | IPv4\Datagrams Received/sec | UDPv6\Datagrams/sec | Cache\Fast Reads Not Possible/sec | Cache\Lazy Write Flushes/sec | Process(_Total)\Handle Count | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | Objects\Events
  significant: Processor(_Total)\% Processor Time | Processor Performance\Processor_0 Frequency | Memory\Free System Page Table Entries | Cache\Fast Reads Not Possible/sec | Job Object Details(_Total)\Page File Bytes Peak
)golden";
const char *const kAtomGolden = R"golden(selected: Processor(_Total)\% Processor Time
threshold: 5
histogram: Cache\Copy Read Hits % = 2
histogram: Cache\Data Map Pins/sec = 0.5
histogram: Cache\Fast Reads Not Possible/sec = 1.75
histogram: Cache\Lazy Write Flushes/sec = 2
histogram: Job Object Details(_Total)\Page File Bytes Peak = 2
histogram: Memory\Cache Faults/sec = 2.5
histogram: Memory\Committed Bytes = 0.5
histogram: Memory\Free System Page Table Entries = 3
histogram: Memory\Page Faults/sec = 1.25
histogram: Memory\Pages/sec = 2.25
histogram: Memory\Pool Nonpaged Allocs = 1
histogram: Memory\System Code Resident Bytes = 0.25
histogram: Memory\Write Copies/sec = 1.75
histogram: Objects\Events = 1.5
histogram: Objects\Mutexes = 1.5
histogram: Objects\Sections = 0.5
histogram: Objects\Semaphores = 1
histogram: PhysicalDisk(0)\Avg. Disk Queue Length = 0.25
histogram: PhysicalDisk(_Total)\% Disk Time = 0.5
histogram: Process(_Total)\Handle Count = 1.5
histogram: Process(_Total)\IO Data Bytes/sec = 2.25
histogram: Process(_Total)\IO Other Bytes/sec = 1.5
histogram: Processor(_Total)\% DPC Time = 2.75
histogram: Processor(_Total)\% Privileged Time = 1.75
histogram: Processor(_Total)\% Processor Time = 12
histogram: Processor(_Total)\Interrupts/sec = 0.5
histogram: System\Context Switches/sec = 3
histogram: System\Processes = 2.25
histogram: System\Processor Queue Length = 0.75
histogram: System\Threads = 1.5
histogram: TCPv6\Segments/sec = 4.25
histogram: UDPv6\Datagrams/sec = 1
slice: machine 0 Sort
  lasso: Processor(_Total)\% Processor Time | Memory\Page Faults/sec | Memory\Write Copies/sec | Memory\System Code Resident Bytes | UDPv6\Datagrams/sec | TCPv6\Segments/sec | Cache\Fast Reads Not Possible/sec | Process(_Total)\IO Other Bytes/sec | System\Context Switches/sec | System\Processes | System\Threads | Objects\Events
  significant: Processor(_Total)\% Processor Time | System\Context Switches/sec
slice: machine 0 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Memory\Pages/sec | Memory\Page Faults/sec | Memory\Free System Page Table Entries | Cache\Lazy Write Flushes/sec | Process(_Total)\Handle Count | System\Context Switches/sec | System\Processes | System\Threads | System\Processor Queue Length | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time | Memory\Pages/sec | Memory\Free System Page Table Entries | Cache\Lazy Write Flushes/sec | Process(_Total)\Handle Count | System\Context Switches/sec
slice: machine 0 Prime
  lasso: Processor(_Total)\% Processor Time | Memory\Pages/sec | Cache\Data Map Pins/sec | Cache\Copy Read Hits % | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Other Bytes/sec | System\Context Switches/sec | System\Processes | System\Threads
  significant: Processor(_Total)\% Processor Time | Cache\Copy Read Hits %
slice: machine 0 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor(_Total)\% DPC Time | Memory\Page Faults/sec | Memory\Free System Page Table Entries | TCPv6\Segments/sec | Cache\Copy Read Hits % | Cache\Fast Reads Not Possible/sec | Cache\Lazy Write Flushes/sec | Process(_Total)\Handle Count | System\Context Switches/sec | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time | TCPv6\Segments/sec
slice: machine 1 Sort
  lasso: Processor(_Total)\% Processor Time | Memory\Cache Faults/sec | Memory\Write Copies/sec | UDPv6\Datagrams/sec | TCPv6\Segments/sec | Cache\Fast Reads Not Possible/sec | Process(_Total)\IO Data Bytes/sec | Process(_Total)\Handle Count | System\Context Switches/sec | System\Processes | System\Threads | Objects\Mutexes
  significant: Processor(_Total)\% Processor Time | TCPv6\Segments/sec | Cache\Fast Reads Not Possible/sec | Process(_Total)\IO Data Bytes/sec
slice: machine 1 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Memory\Pages/sec | Memory\Pool Nonpaged Allocs | Memory\Write Copies/sec | Memory\Free System Page Table Entries | UDPv6\Datagrams/sec | TCPv6\Segments/sec | Process(_Total)\IO Other Bytes/sec | System\Processes | System\Threads | Objects\Mutexes
  significant: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Memory\Pages/sec
slice: machine 1 Prime
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor(_Total)\Interrupts/sec | Processor(_Total)\% DPC Time | Memory\Write Copies/sec | TCPv6\Segments/sec | Cache\Copy Read Hits % | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Data Bytes/sec | Job Object Details(_Total)\Page File Bytes Peak | System\Processes | System\Processor Queue Length
  significant: Processor(_Total)\% Processor Time | Memory\Write Copies/sec | Job Object Details(_Total)\Page File Bytes Peak
slice: machine 1 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\Interrupts/sec | Processor(_Total)\% DPC Time | Memory\Pool Nonpaged Allocs | Memory\Free System Page Table Entries | PhysicalDisk(0)\Avg. Disk Queue Length | Cache\Copy Read Hits % | Objects\Events | Objects\Semaphores | Objects\Sections
  significant: Processor(_Total)\% Processor Time | Memory\Free System Page Table Entries | Objects\Events
slice: machine 2 Sort
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Memory\Cache Faults/sec | Memory\Committed Bytes | Memory\Pool Nonpaged Allocs | Memory\Free System Page Table Entries | PhysicalDisk(_Total)\% Disk Time | TCPv6\Segments/sec | Cache\Data Map Pins/sec | Cache\Copy Read Hits % | System\Processes | Objects\Mutexes
  significant: Processor(_Total)\% Processor Time | Memory\Cache Faults/sec | TCPv6\Segments/sec | Objects\Mutexes
slice: machine 2 PageRank
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Processor(_Total)\% DPC Time | Memory\Cache Faults/sec | PhysicalDisk(_Total)\% Disk Time | UDPv6\Datagrams/sec | TCPv6\Segments/sec | Process(_Total)\IO Other Bytes/sec | System\Processes | Objects\Sections
  significant: Processor(_Total)\% Processor Time | Processor(_Total)\% DPC Time | Memory\Cache Faults/sec
slice: machine 2 Prime
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Memory\Page Faults/sec | Memory\Cache Faults/sec | Memory\Committed Bytes | Memory\Pool Nonpaged Allocs | Process(_Total)\IO Data Bytes/sec | Process(_Total)\IO Other Bytes/sec | Job Object Details(_Total)\Page File Bytes Peak | System\Context Switches/sec | Objects\Events
  significant: Processor(_Total)\% Processor Time | Process(_Total)\IO Data Bytes/sec | Job Object Details(_Total)\Page File Bytes Peak
slice: machine 2 WordCount
  lasso: Processor(_Total)\% Processor Time | Processor(_Total)\% Privileged Time | Memory\Page Faults/sec | Memory\Free System Page Table Entries | TCPv6\Segments/sec | Cache\Fast Reads Not Possible/sec | Cache\Lazy Write Flushes/sec | Process(_Total)\IO Other Bytes/sec | System\Processes | System\Threads | System\Processor Queue Length | Objects\Semaphores
  significant: Processor(_Total)\% Processor Time
)golden";

TEST(FeatureSelection, OutputUnchangedFromParent)
{
    const std::string core2 =
        serializeSelection(core2Campaign().selection);
    EXPECT_EQ(core2, kCore2Golden) << "Core2 selection:\n" << core2;
    const std::string atom = serializeSelection(atomCampaign().selection);
    EXPECT_EQ(atom, kAtomGolden) << "Atom selection:\n" << atom;
}

} // namespace
} // namespace chaos
