/**
 * @file
 * Benchmark entry point:
 *
 *   chaos_perfbench --workload {dc_fleet|rack_wire}
 *                   --seed N --seconds S --trace {0|1} [--tiny]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (see perfbench/README.md). The last stdout line is the JSON
 * summary; the exit code is 0 only when every correctness check held.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: chaos_perfbench --workload "
                 "{dc_fleet|rack_wire} --seed N "
                 "--seconds S --trace {0|1} [--tiny]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--workload" && hasValue) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            options.trace = std::string(argv[++i]) == "1";
        } else {
            return usage();
        }
    }
    if (options.seconds <= 0.0)
        return usage();

    // Campaign progress is advisory; keep stderr to warnings.
    chaos::setLogLevel(chaos::LogLevel::Warn);

    Report report;
    recordHostFacts(report, options);
    const StealSample stealStart = readSteal();
    try {
        if (options.workload == "dc_fleet")
            runDcFleet(options, report);
        else if (options.workload == "rack_wire")
            runRackWire(options, report);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    const double steal = stealPct(stealStart, readSteal());
    report.fact("steal_pct", std::to_string(steal));
    if (options.trace)
        report.metric("host.steal_pct", steal, "%");
    report.print();
    return report.correct() ? 0 : 1;
}
