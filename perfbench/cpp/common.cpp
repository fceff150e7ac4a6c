#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <sched.h>
#include <sstream>
#include <unistd.h>

namespace perfbench {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

namespace {

double
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

double
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::size_t
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::set<int>
threadIds()
{
    std::set<int> ids;
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return ids;
    while (dirent *entry = readdir(dir)) {
        if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9')
            ids.insert(std::atoi(entry->d_name));
    }
    closedir(dir);
    return ids;
}

std::vector<int>
newThreads(const std::set<int> &before, const std::set<int> &after)
{
    std::vector<int> out;
    for (int tid : after) {
        if (before.count(tid) == 0)
            out.push_back(tid);
    }
    return out;
}

double
threadsCpuSec(const std::vector<int> &tids)
{
    static const double ticksPerSec =
        static_cast<double>(sysconf(_SC_CLK_TCK));
    double total = 0.0;
    for (int tid : tids) {
        std::ifstream in("/proc/self/task/" + std::to_string(tid) +
                         "/stat");
        std::string line;
        if (!std::getline(in, line))
            continue;
        // The command name may hold spaces; fields resume after ')'.
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream fields(line.substr(close + 2));
        std::string field;
        // Fields 3.. follow; utime and stime are fields 14 and 15.
        unsigned long long utime = 0, stime = 0;
        for (int i = 3; i <= 15 && (fields >> field); ++i) {
            if (i == 14)
                utime = std::stoull(field);
            else if (i == 15)
                stime = std::stoull(field);
        }
        total += static_cast<double>(utime + stime) / ticksPerSec;
    }
    return total;
}

StealSample
readSteal()
{
    StealSample s;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return s;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && (in >> v); ++i) {
        s.total += v;
        if (i == 7)
            s.steal = v;
    }
    return s;
}

double
stealPct(const StealSample &a, const StealSample &b)
{
    if (b.total <= a.total)
        return 0.0;
    return 100.0 * static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check("finite " + name, false, "value is not finite");
        value = 0.0;
    }
    if (metrics_.count(name) == 0)
        order_.push_back(name);
    metrics_[name] = Metric{value, unit};
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    if (!ok)
        correct_ = false;
    checkLines_.push_back(std::string(ok ? "ok   " : "FAIL ") + name +
                          (detail.empty() ? "" : ": " + detail));
}

void
Report::phase(const std::string &name, std::uint64_t attempted,
              std::uint64_t failed, const std::string &detail)
{
    phaseLines_.push_back("phase=" + name +
                          " attempted=" + std::to_string(attempted) +
                          " failed=" + std::to_string(failed) + " " + detail);
}

void
Report::fact(const std::string &name, const std::string &value)
{
    facts_.emplace_back(name, value);
}

void
Report::print() const
{
    for (const std::string &line : checkLines_)
        std::cout << "check  " << line << "\n";
    std::cout << "host  ";
    for (const auto &[name, value] : facts_)
        std::cout << " " << name << "=" << value;
    std::cout << "\n";
    for (const std::string &name : order_) {
        const Metric &m = metrics_.at(name);
        std::cout << "metric " << name << " " << jsonNumber(m.value)
                  << " " << m.unit << "\n";
    }
    for (const std::string &line : phaseLines_)
        std::cout << "ops    " << line << "\n";
    std::cout << "ops    attempted=" << attempted_
              << " failed=" << failed_ << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : order_) {
        const Metric &m = metrics_.at(name);
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << jsonNumber(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

void
recordHostFacts(Report &report, const Options &options)
{
    report.fact("workload", options.workload);
    report.fact("seed", std::to_string(options.seed));
    report.fact("seconds", jsonNumber(options.seconds));
    report.fact("trace", options.trace ? "1" : "0");
    report.fact("nproc", std::to_string(hostCpus()));
    report.fact("build_type", PERFBENCH_BUILD_TYPE);
    std::string compiler = __VERSION__;
    std::replace(compiler.begin(), compiler.end(), ' ', '_');
    report.fact("compiler", compiler);
}

} // namespace perfbench
