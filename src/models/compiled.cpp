#include "models/compiled.hpp"

#include <algorithm>
#include <cmath>

#include "models/linear.hpp"
#include "models/mars.hpp"
#include "models/switching.hpp"
#include "util/logging.hpp"

namespace chaos {

namespace {

/**
 * Stack buffer for the standardized MARS row; batches fall back to a
 * heap buffer (allocated once per batch, never per row) only for
 * implausibly wide feature sets.
 */
constexpr std::size_t kStackWidth = 64;

/** Lower one fitted LinearModel into a dense plan. */
DensePlan
lowerLinear(const LinearModel &model)
{
    DensePlan plan;
    plan.coef = model.rawCoefficients();
    plan.mu = model.means();
    plan.sigma = model.scales();
    panicIf(plan.coef.empty(), "CompiledPredictor: linear before fit");
    return plan;
}

} // namespace

double
MarsPlan::evaluate(const double *row, double *zscratch) const
{
    const std::size_t p = mu.size();
    // Same standardize-then-clamp arithmetic as the scalar path:
    // division first, then std::clamp to the training box.
    for (std::size_t c = 0; c < p; ++c) {
        const double value = (row[c] - mu[c]) / sigma[c];
        zscratch[c] = std::clamp(value, zmin[c], zmax[c]);
    }
    double acc = 0.0;
    const std::size_t terms = coef.size();
    for (std::size_t t = 0; t < terms; ++t) {
        double value = 1.0;
        const std::uint32_t begin = termStart[t];
        const std::uint32_t end = termStart[t + 1];
        for (std::uint32_t h = begin; h < end; ++h) {
            const PlanHinge &hinge = hinges[h];
            const double x = zscratch[hinge.feature];
            const double v =
                hinge.sign > 0.0 ? x - hinge.knot : hinge.knot - x;
            value *= v > 0.0 ? v : 0.0;
            if (value == 0.0)
                break;
        }
        acc += coef[t] * value;
    }
    return acc;
}

double
SwitchingPlan::evaluate(const double *row) const
{
    // Nearest-state scan, operation for operation the scalar
    // SwitchingModel::nearestState (strict < keeps the first of two
    // equidistant states, matching the scalar tie-break).
    const double freq = row[frequencyFeature];
    std::size_t best = 0;
    double best_dist = std::fabs(states[0] - freq);
    for (std::size_t s = 1; s < states.size(); ++s) {
        const double dist = std::fabs(states[s] - freq);
        if (dist < best_dist) {
            best_dist = dist;
            best = s;
        }
    }
    const std::int32_t branch = branchOf[best];
    return branch >= 0
               ? branches[static_cast<std::size_t>(branch)].evaluate(row)
               : fallback.evaluate(row);
}

CompiledPredictor
CompiledPredictor::compile(const PowerModel &model)
{
    CompiledPredictor plan;
    plan.type = model.type();
    switch (plan.type) {
      case ModelType::Linear: {
        const auto &linear = dynamic_cast<const LinearModel &>(model);
        plan.kind = Kind::Dense;
        plan.dense = lowerLinear(linear);
        plan.width = plan.dense.mu.size();
        break;
      }
      case ModelType::PiecewiseLinear:
      case ModelType::Quadratic: {
        const auto &marsModel = dynamic_cast<const MarsModel &>(model);
        panicIf(marsModel.coefficients().empty(),
                "CompiledPredictor: MARS before fit");
        plan.kind = Kind::Mars;
        MarsPlan &mp = plan.mars;
        mp.mu = marsModel.means();
        mp.sigma = marsModel.scales();
        mp.zmin = marsModel.clampMin();
        mp.zmax = marsModel.clampMax();
        mp.coef = marsModel.coefficients();
        const auto &terms = marsModel.terms();
        mp.termStart.reserve(terms.size() + 1);
        mp.termStart.push_back(0);
        for (const BasisTerm &term : terms) {
            for (const Hinge &hinge : term.hinges) {
                PlanHinge ph;
                ph.feature = static_cast<std::uint32_t>(hinge.feature);
                ph.knot = hinge.knot;
                ph.sign = hinge.direction > 0 ? 1.0 : -1.0;
                mp.hinges.push_back(ph);
            }
            mp.termStart.push_back(
                static_cast<std::uint32_t>(mp.hinges.size()));
        }
        plan.width = mp.mu.size();
        break;
      }
      case ModelType::Switching: {
        const auto &sw = dynamic_cast<const SwitchingModel &>(model);
        panicIf(sw.numStates() == 0,
                "CompiledPredictor: switching before fit");
        plan.kind = Kind::Switching;
        SwitchingPlan &sp = plan.switching;
        sp.frequencyFeature = sw.configuration().frequencyFeature;
        sp.states = sw.stateFrequencies();
        sp.branchOf.assign(sp.states.size(), -1);
        for (std::size_t s = 0; s < sp.states.size(); ++s) {
            if (sw.stateHasOwnModel(s)) {
                sp.branchOf[s] =
                    static_cast<std::int32_t>(sp.branches.size());
                sp.branches.push_back(lowerLinear(sw.stateModel(s)));
            }
        }
        sp.fallback = lowerLinear(sw.fallbackModel());
        plan.width = sp.fallback.mu.size();
        break;
      }
    }
    panicIf(plan.kind == Kind::None,
            "CompiledPredictor: unknown model type");
    plan.compiled = true;
    return plan;
}

void
CompiledPredictor::predictBatch(const double *rows, std::size_t n,
                                std::size_t stride, double *out) const
{
    panicIf(!compiled, "CompiledPredictor used before compile");
    panicIf(n > 0 && stride < width,
            "CompiledPredictor: stride narrower than the plan");
    switch (kind) {
      case Kind::Dense:
        for (std::size_t r = 0; r < n; ++r)
            out[r] = dense.evaluate(rows + r * stride);
        break;
      case Kind::Mars: {
        double stack[kStackWidth];
        std::vector<double> heap;
        double *z = stack;
        if (width > kStackWidth) {
            heap.resize(width);
            z = heap.data();
        }
        for (std::size_t r = 0; r < n; ++r)
            out[r] = mars.evaluate(rows + r * stride, z);
        break;
      }
      case Kind::Switching:
        for (std::size_t r = 0; r < n; ++r)
            out[r] = switching.evaluate(rows + r * stride);
        break;
      case Kind::None:
        panic("CompiledPredictor: empty plan");
    }
}

} // namespace chaos
