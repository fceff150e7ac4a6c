/**
 * @file
 * Shared pieces of the benchmark program: options, clocks, per-thread
 * CPU accounting from /proc, host facts, order statistics, and the
 * result report whose last line is the one-object JSON summary.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/framework.hpp"

namespace perfbench {

/**
 * Seed of the recorded campaigns every workload is built from. The
 * campaigns, and the models fitted on them, are the system's fixed
 * configuration, so each run does the same amount of work; --seed
 * drives the inputs fed to that system (see each workload).
 */
inline constexpr std::uint64_t kCampaignSeed = 2012;

/** Command-line options (see run.py --help). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrink every workload to a few seconds (self-test only). */
    bool tiny = false;
};

/** Monotonic clock, nanoseconds. */
std::uint64_t nowNs();
/** Monotonic clock, seconds. */
double nowSec();
/** CPU time of the whole process, nanoseconds. */
double processCpuNs();
/** CPU time of the calling thread, nanoseconds. */
double threadCpuNs();

/** Logical CPUs this process may run on (what `nproc` prints). */
std::size_t hostCpus();

/** Thread ids of this process, from /proc/self/task. */
std::set<int> threadIds();

/** Ids in @p after that are not in @p before. */
std::vector<int> newThreads(const std::set<int> &before,
                            const std::set<int> &after);

/**
 * User + system CPU seconds of the given threads, read from
 * /proc/self/task/<tid>/stat (clock-tick resolution). Threads that
 * have exited contribute 0.
 */
double threadsCpuSec(const std::vector<int> &tids);

/** Cumulative host CPU jiffies from /proc/stat: steal and total. */
struct StealSample
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
StealSample readSteal();
/** Steal share between two samples, percent. */
double stealPct(const StealSample &a, const StealSample &b);

/** Peak resident set size of this process (VmHWM), MiB. */
double peakRssMb();

/**
 * Collects metrics and correctness checks of one run and prints them:
 * one human-readable line per metric and check, a host-facts line,
 * and finally the JSON summary as the last line of stdout.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a check; a false @p ok fails the run. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
    /** Count attempted operations (samples sent, fits run). */
    void attempt(std::uint64_t n) { attempted_ += n; }
    /** Count failed operations (dropped, rejected, missing, bad). */
    void fail(std::uint64_t n) { failed_ += n; }
    /**
     * Record one phase's attempted and failed operations, printed as
     * an `ops` line; the run's totals come from attempt() and fail().
     */
    void phase(const std::string &name, std::uint64_t attempted,
               std::uint64_t failed, const std::string &detail);
    /** Record a host or run fact (printed, never used to filter). */
    void fact(const std::string &name, const std::string &value);

    bool correct() const { return correct_ && failed_ == 0; }

    /** Print everything; the JSON summary goes last. */
    void print() const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> order_;
    std::vector<std::string> checkLines_;
    std::vector<std::string> phaseLines_;
    std::vector<std::pair<std::string, std::string>> facts_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/** Record the facts every result carries: nproc, build, compiler. */
void recordHostFacts(Report &report, const Options &options);

struct TrainRep;

/**
 * The training stage (training.cpp): per campaign, Algorithm 1, the
 * Table IV sweep and the deployable quadratic fit with its
 * cross-validated DRE. Each repeat() is one repetition. The first is
 * a warm-up: its first-touch allocations make it the slowest, so its
 * times are dropped; its models are the ones deployed.
 */
class Training
{
  public:
    Training(const chaos::CampaignConfig &config, bool traced);
    ~Training();

    void repeat(std::vector<chaos::ClusterCampaign> &campaigns);

    /** The deployable model of each campaign. */
    const std::vector<chaos::MachinePowerModel> &models() const;

    /**
     * Record the checks and fits in @p report, and the metrics:
     * train_s and cv_dre_pct untraced, the per-layer training metrics
     * traced.
     */
    void report(Report &report) const;

  private:
    chaos::CampaignConfig config_;
    bool traced_;
    std::vector<TrainRep> reps_;
};

/** Workload entry points (serving.cpp). */
void runDcFleet(const Options &options, Report &report);
void runRackWire(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
