/**
 * @file
 * The training stage every workload runs before it serves: per
 * platform campaign, Algorithm 1 (selectClusterFeatures), the Table IV
 * sweep (4 techniques x 3 feature sets) and the deployable quadratic
 * fit with its cross-validated DRE, once per repetition. The models
 * the first repetition fits are the ones the workload deploys.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>

#include "common.hpp"
#include "core/chaos.hpp"
#include "obs/trace.hpp"
#include "stats/descriptive.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

/** The paper's upper bound on a deployed model's DRE. */
constexpr double kPaperDreBound = 0.12;

const char *const kTrainSpans[] = {
    "select.correlation_prune", "select.per_machine_slices",
    "stepwise.eliminate",       "mars.forward",
    "mars.backward",            "cv.fold",
};

/**
 * Self time per span name, seconds: each span's duration minus the
 * spans nested directly inside it on the same thread.
 */
std::map<std::string, double>
spanSelfSeconds(const std::vector<chaos::obs::TraceEvent> &events)
{
    std::map<int, std::vector<const chaos::obs::TraceEvent *>> byTid;
    for (const chaos::obs::TraceEvent &e : events)
        byTid[e.tid].push_back(&e);
    std::map<std::string, double> self;
    for (auto &[tid, list] : byTid) {
        std::sort(list.begin(), list.end(),
                  [](const auto *a, const auto *b) {
                      return a->startNs != b->startNs
                                 ? a->startNs < b->startNs
                                 : a->depth < b->depth;
                  });
        struct Open
        {
            const chaos::obs::TraceEvent *event;
            std::uint64_t childNs;
        };
        std::vector<Open> stack;
        auto close = [&](const Open &open) {
            const double selfNs =
                static_cast<double>(open.event->durNs) -
                static_cast<double>(open.childNs);
            self[open.event->name] += std::max(0.0, selfNs) * 1e-9;
        };
        for (const auto *e : list) {
            while (!stack.empty() &&
                   stack.back().event->startNs +
                           stack.back().event->durNs <=
                       e->startNs) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty() &&
                stack.back().event->depth + 1 == e->depth)
                stack.back().childNs += e->durNs;
            stack.push_back(Open{e, 0});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return self;
}

} // namespace

/** What one repetition produced. */
struct TrainRep
{
    double selectS = 0.0;
    double sweepS = 0.0;
    double fitS = 0.0;
    double cpuPerWall = 0.0;
    double cvDre = 0.0;  ///< Mean over the clusters, fraction.
    std::vector<double> clusterDre;
    std::vector<std::vector<std::string>> selected;
    std::size_t afterCorrelation = 0;
    std::size_t fits = 0;
    std::size_t failedFits = 0;
    std::map<std::string, double> spanSelfS;
    std::vector<chaos::MachinePowerModel> models; ///< Per campaign.
};

namespace {

TrainRep
trainOnce(std::vector<chaos::ClusterCampaign> &campaigns,
          const chaos::CampaignConfig &config, bool traced)
{
    using namespace chaos;
    TrainRep rep;
    if (traced) {
        obs::clearTrace();
        obs::setTraceEnabled(true);
    }
    const double cpu0 = processCpuNs();
    const double t0 = nowSec();
    for (ClusterCampaign &campaign : campaigns) {
        Rng rng(config.seed ^ 0xfeedfaceULL); // As runClusterCampaign.
        campaign.selection = selectClusterFeatures(
            campaign.data, config.featureSelection, rng);
    }
    const double t1 = nowSec();
    for (const ClusterCampaign &campaign : campaigns) {
        const std::vector<FeatureSet> sets = {
            cpuOnlyFeatureSet(), clusterFeatureSet(campaign.selection),
            clusterPlusLagFeatureSet(campaign.selection)};
        const std::vector<WorkloadSweep> sweeps =
            sweepWorkloads(campaign.data, sets, allModelTypes(),
                           campaign.envelopes, config.evaluation);
        rep.fits += totalModelsFitted(sweeps);
        for (const WorkloadSweep &sweep : sweeps) {
            if (sweep.best() == nullptr)
                ++rep.failedFits;
        }
    }
    const double t2 = nowSec();
    for (const ClusterCampaign &campaign : campaigns) {
        const MachinePowerModel &model =
            rep.models.emplace_back(fitDefaultModel(campaign, config));
        const EvaluationOutcome outcome = evaluateTechnique(
            campaign.data, clusterFeatureSet(campaign.selection),
            ModelType::Quadratic, campaign.envelopes, config.evaluation);
        ++rep.fits;
        const std::vector<double> firstRow =
            campaign.data.features().row(0);
        if (!outcome.valid || model.numFeatures() == 0 ||
            !std::isfinite(model.predictFromCatalogRow(firstRow)))
            ++rep.failedFits;
        rep.clusterDre.push_back(outcome.avgDre);
    }
    const double t3 = nowSec();
    const double cpu1 = processCpuNs();
    if (traced) {
        obs::setTraceEnabled(false);
        rep.spanSelfS = spanSelfSeconds(obs::collectTrace());
        obs::clearTrace();
    }

    rep.selectS = t1 - t0;
    rep.sweepS = t2 - t1;
    rep.fitS = t3 - t2;
    rep.cpuPerWall = (cpu1 - cpu0) * 1e-9 / (t3 - t0);
    for (double dre : rep.clusterDre)
        rep.cvDre += dre / static_cast<double>(rep.clusterDre.size());
    for (const ClusterCampaign &campaign : campaigns) {
        rep.selected.push_back(campaign.selection.selected);
        rep.afterCorrelation += campaign.selection.afterCorrelation;
    }
    return rep;
}

} // namespace

Training::Training(const chaos::CampaignConfig &config, bool traced)
    : config_(config), traced_(traced)
{}

Training::~Training() = default;

void
Training::repeat(std::vector<chaos::ClusterCampaign> &campaigns)
{
    reps_.push_back(trainOnce(campaigns, config_, traced_));
    const TrainRep &r = reps_.back();
    std::cerr << "[perfbench] training "
              << (reps_.size() == 1
                      ? std::string("warm-up")
                      : "repetition " + std::to_string(reps_.size() - 1))
              << ": select " << r.selectS << " s, sweep " << r.sweepS
              << " s, fit " << r.fitS << " s, cpu/wall " << r.cpuPerWall
              << "\n";
}

const std::vector<chaos::MachinePowerModel> &
Training::models() const
{
    return reps_.front().models;
}

void
Training::report(Report &report) const
{
    std::vector<double> trainS, cvPct;
    std::uint64_t failedFits = 0, fits = 0;
    bool sameSelection = true, sameDre = true, underBound = true;
    for (const TrainRep &rep : reps_) {
        if (&rep != &reps_.front())
            trainS.push_back(rep.selectS + rep.sweepS + rep.fitS);
        cvPct.push_back(rep.cvDre * 100.0);
        fits += rep.fits;
        failedFits += rep.failedFits;
        sameSelection = sameSelection &&
                        rep.selected == reps_.front().selected;
        sameDre = sameDre &&
                  std::memcmp(&rep.cvDre, &reps_.front().cvDre,
                              sizeof rep.cvDre) == 0;
        for (double dre : rep.clusterDre)
            underBound = underBound && dre < kPaperDreBound;
    }
    report.attempt(fits);
    report.fail(failedFits);
    report.phase("train", fits, failedFits,
                 "repetitions=" + std::to_string(reps_.size()) +
                     " warmup=1");
    report.check("train: every fit and sweep cell succeeded",
                 failedFits == 0,
                 std::to_string(failedFits) + " of " +
                     std::to_string(fits) + " failed");
    report.check("train: same selected features in every repetition",
                 sameSelection);
    report.check("train: bitwise-identical cv DRE in every repetition",
                 sameDre);
    report.check("train: deployed DRE under the paper's 12%",
                 underBound,
                 "cv_dre_pct " + std::to_string(cvPct.front()));

    if (!traced_) {
        report.metric("train_s", chaos::median(trainS), "s");
        report.metric("cv_dre_pct", cvPct.front(), "%");
        return;
    }

    auto med = [&](auto field) {
        std::vector<double> v;
        for (std::size_t i = 1; i < reps_.size(); ++i)
            v.push_back(field(reps_[i]));
        return chaos::median(v);
    };
    report.metric("train.select_s",
                  med([](const TrainRep &r) { return r.selectS; }), "s");
    report.metric("train.sweep_s",
                  med([](const TrainRep &r) { return r.sweepS; }), "s");
    report.metric("train.fit_s",
                  med([](const TrainRep &r) { return r.fitS; }), "s");
    for (const char *span : kTrainSpans) {
        report.metric(
            std::string("span.") + span + ".self_s",
            med([&](const TrainRep &r) {
                const auto it = r.spanSelfS.find(span);
                return it == r.spanSelfS.end() ? 0.0 : it->second;
            }),
            "s");
    }
    report.metric("train.cpu_per_wall",
                  med([](const TrainRep &r) { return r.cpuPerWall; }),
                  "ratio");
    std::size_t selected = 0;
    for (const auto &names : reps_.front().selected)
        selected += names.size();
    report.metric("select.after_correlation",
                  static_cast<double>(reps_.front().afterCorrelation),
                  "count");
    report.metric("select.selected", static_cast<double>(selected),
                  "count");
    report.metric("sweep.fits", static_cast<double>(reps_.front().fits),
                  "count");
}

} // namespace perfbench
