#include "cli/cli.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "autopilot/autopilot.hpp"
#include "cli/args.hpp"
#include "core/chaos.hpp"
#include "core/pooling.hpp"
#include "faults/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "core/model_store.hpp"
#include "linalg/matrix.hpp"
#include "models/linear.hpp"
#include "monitor/exporter.hpp"
#include "net/ingest_server.hpp"
#include "net/socket.hpp"
#include "monitor/fleet_monitor.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "rollup/feed.hpp"
#include "rollup/synthetic.hpp"
#include "sim/fleet_topology.hpp"
#include "oscounters/counter_catalog.hpp"
#include "oscounters/etw_session.hpp"
#include "serve/fleet_store.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "trace/trace_io.hpp"
#include "util/result.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace chaos::cli {

void
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    raiseIf(!file, "cannot write " + path);
    file << content;
    file.flush();
    raiseIf(!file.good(), "failed writing " + path);
}

/** The `chaos help` text; usageError() reuses its entries. */
const char *const kHelpText =
    "chaos — OS-counter power models (CHAOS, IISWC 2012)\n\n"
    "subcommands:\n"
    "  list-platforms                     supported machine "
        "classes\n"
    "  list-counters [--category C]       the counter catalog\n"
    "  probe <platform>                   idle/max power of "
        "one machine\n"
    "  collect <platform> --out F.csv     run the workload "
        "campaign, save dataset\n"
    "      [--machines N] [--runs N] [--seed S] [--scale F]\n"
    "  select <data.csv>                  run Algorithm 1 "
        "feature selection\n"
    "  train <data.csv> --out model.txt   fit a deployable "
        "model\n"
    "      [--type T] [--features \"a;b\"] [--seed S]\n"
    "  evaluate <data.csv>                cross-validated "
        "accuracy\n"
    "      [--type T] [--folds K] [--seed S]\n"
    "  predict <model.txt> <data.csv>     apply a saved model\n"
    "  serve --replay <data.csv>          stream a recorded "
        "trace through the fleet server\n"
    "      (--model M.txt | --fleet manifest.txt) [--speed X] "
        "[--platform P]\n"
    "      [--shards N] [--queue-capacity N] "
        "[--snapshot-every N] [--snapshots-out F]\n"
    "      [--monitor 1 [--window N] [--warmup N] "
        "[--drift-lambda L] [--drift-delta D]]\n"
    "      [--autopilot 1 [--substitute pooled|lastgood] "
        "[--retrain-type T] [--canary-samples N]\n"
    "          [--cooldown N] [--max-retrains N] "
        "[--reference-window N] [--min-retrain-samples N]]\n"
    "      [--inject-stuck \"id;id\"] [--inject-at T] "
        "[--inject-stagger N]\n"
    "      [--telemetry-out F.jsonl|tcp://h:p] [--telemetry-every N] "
        "[--dashboard-every N]\n"
    "      (lockstep: each tick drains before the next; "
        "--autopilot implies --monitor)\n"
    "  serve --listen PORT                accept wire-protocol "
        "samples over TCP (0 = ephemeral)\n"
    "      [--machines N] [--model M.txt | --fleet F] "
        "[--platform P] [--port-file F]\n"
    "      [--ingest-max-samples N] [--ingest-idle-ms MS] "
        "[--credit-batch N] [--stats-out F]\n"
    "      [--monitor 1 [--window N] [--warmup N] "
        "[--drift-lambda L] [--drift-delta D]]\n"
    "      [--flight-dir DIR [--flight-window-ms MS] "
        "[--flight-rate-limit-ms MS]]\n"
    "  loadgen --target host:port         drive an ingest "
        "server with concurrent connections\n"
    "      [--connections N] [--samples N] [--machines N] "
        "[--rate R]\n"
    "      [--window N] [--workers N] [--metered-every N] "
        "[--report-json F]\n"
    "      [--replay data.csv [--inject-stuck \"id;id\"] "
        "[--inject-at T] [--inject-stagger N]]\n"
    "  top --target host:port             live dashboard over "
        "a serving `chaos serve --listen`\n"
    "      [--json 1] [--interval-ms MS] [--count N] "
        "[--timeout-ms MS]\n"
    "  fleetview                          hierarchical "
        "quality roll-up dashboard\n"
    "      (--synthetic N | --telemetry F.jsonl | --replay "
        "data.csv (--model M | --fleet F))\n"
    "      [--ticks N] [--seed S] [--worst N] [--path "
        "dc0/row1] [--rollup-out F.jsonl]\n"
    "      [--group-size N] [--platform P]\n"
    "  report <data.csv>                  markdown dataset "
        "summary\n"
    "\nglobal flags (any subcommand):\n"
    "  --log-level L      debug|info|warn|error|silent\n"
    "  --trace-out F      write a Chrome trace-event JSON "
        "(chrome://tracing)\n"
    "  --trace-summary F  write the human-readable phase-tree "
        "summary\n"
    "  --metrics-out F    write the metrics registry snapshot "
        "as JSON\n";

int
usageError(const std::string &command, std::ostream &err)
{
    std::istringstream help(kHelpText);
    bool inEntry = false;
    err << "usage:\n";
    for (std::string line; std::getline(help, line);) {
        const bool continuation = startsWith(line, "      ");
        if (!continuation)
            inEntry = startsWith(line, "  " + command + " ");
        if (inEntry)
            err << (continuation ? line : "  chaos " + line.substr(2))
                << "\n";
    }
    return 2;
}

// Ids are replay-style ("machine<N>"); rows keep their recorded
// order, with a per-machine tick counter driving the storm.
Dataset
withInjectedFaults(const ParsedArgs &args, const Dataset &data)
{
    if (!args.has("inject-stuck"))
        return data;
    std::vector<std::string> targets;
    for (const std::string &part :
         split(args.flagOr("inject-stuck", ""), ';')) {
        const std::string id = trim(part);
        if (!id.empty())
            targets.push_back(id);
    }
    DriftStormConfig stormConfig;
    stormConfig.machines = targets.size();
    stormConfig.onsetTick = args.number<std::size_t>("inject-at", 0);
    stormConfig.staggerTicks =
        args.number<std::size_t>("inject-stagger", 0);
    stormConfig.seed = args.number<std::uint64_t>("seed", 2012);
    DriftStorm storm(stormConfig);

    Dataset faulted(data.featureNames());
    std::map<int, std::size_t> tickOf;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const int machine = data.machineIds()[r];
        const std::size_t tick = tickOf[machine]++;
        std::vector<double> row = data.features().row(r);
        const auto target =
            std::find(targets.begin(), targets.end(),
                      "machine" + std::to_string(machine));
        if (target != targets.end()) {
            row = storm.apply(
                static_cast<std::size_t>(target - targets.begin()),
                tick, std::move(row));
        }
        faulted.addRow(
            row, data.powerW()[r], data.runIds()[r], machine,
            data.workloadNames()[data.workloadIds()[r]]);
    }
    return faulted;
}

namespace {

/** Split args into positionals and --key value flags. */
std::optional<ParsedArgs>
parseArgs(const std::vector<std::string> &args, std::ostream &err)
{
    ParsedArgs parsed;
    for (size_t i = 0; i < args.size(); ++i) {
        if (startsWith(args[i], "--")) {
            if (i + 1 >= args.size()) {
                err << "error: flag " << args[i]
                    << " needs a value\n";
                return std::nullopt;
            }
            parsed.flags[args[i].substr(2)] = args[i + 1];
            ++i;
        } else {
            parsed.positional.push_back(args[i]);
        }
    }
    return parsed;
}

/** Parse a --type name; raises RecoverableError on an unknown one. */
ModelType
modelTypeFromString(const std::string &name)
{
    if (name == "linear")
        return ModelType::Linear;
    if (name == "piecewise")
        return ModelType::PiecewiseLinear;
    if (name == "quadratic")
        return ModelType::Quadratic;
    if (name == "switching")
        return ModelType::Switching;
    raise("unknown model type '" + name +
          "' (linear|piecewise|quadratic|switching)");
}

int
cmdListPlatforms(const ParsedArgs &, std::ostream &out, std::ostream &)
{
    TextTable table({"Platform", "Cores", "P-states", "Disks",
                     "Power range (W)"});
    for (MachineClass mc : extendedMachineClasses()) {
        const MachineSpec spec = machineSpecFor(mc);
        table.addRow({spec.name, std::to_string(spec.numCores),
                      std::to_string(spec.pStatesMhz.size()),
                      std::to_string(spec.numDisks),
                      formatDouble(spec.idlePowerW, 0) + "-" +
                          formatDouble(spec.maxPowerW, 0)});
    }
    out << table.render();
    return 0;
}

int
cmdListCounters(const ParsedArgs &args, std::ostream &out,
                std::ostream &err)
{
    const std::string wanted = args.flagOr("category", "");
    const auto &catalog = CounterCatalog::instance();
    size_t shown = 0;
    for (const auto &def : catalog.all()) {
        const std::string category =
            counterCategoryName(def.category);
        if (!wanted.empty() && toLower(category) != toLower(wanted))
            continue;
        out << category << "\t" << def.name << "\n";
        ++shown;
    }
    if (shown == 0) {
        err << "error: no counters in category '" << wanted << "'\n";
        return 2;
    }
    out << "(" << shown << " counters)\n";
    return 0;
}

int
cmdProbe(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2)
        return usageError("probe", err);
    const MachineClass mc = machineClassFromName(args.positional[1]);
    const MachineSpec spec = machineSpecFor(mc);

    Machine machine(spec, 0, 12345);
    PowerMeter meter{Rng(54321)};
    EtwSession session(machine, meter, 99);

    RunningStats idle;
    for (int t = 0; t < 30; ++t) {
        const auto &record = session.tick(ActivityDemand{});
        if (t >= 10)
            idle.add(record.measuredPowerW);
    }
    ActivityDemand full;
    full.cpuCoreSeconds = static_cast<double>(spec.numCores);
    full.diskReadBytes = spec.numDisks * spec.diskBandwidthMBs * 1e6;
    full.netRxBytes = 125e6;
    full.netTxBytes = 125e6;
    full.memIntensity = 1.0;
    RunningStats busy;
    for (int t = 0; t < 30; ++t) {
        const auto &record = session.tick(full);
        if (t >= 10)
            busy.add(record.measuredPowerW);
    }
    out << spec.name << ": idle " << formatDouble(idle.mean(), 1)
        << " W, max " << formatDouble(busy.mean(), 1)
        << " W (spec " << formatDouble(spec.idlePowerW, 0) << "-"
        << formatDouble(spec.maxPowerW, 0) << " W)\n";
    return 0;
}

int
cmdCollect(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    if (args.positional.size() != 2 || !args.flags.count("out"))
        return usageError("collect", err);
    CampaignConfig config;
    config.numMachines = args.number("machines", config.numMachines);
    config.runsPerWorkload = args.number("runs", config.runsPerWorkload);
    config.seed = args.number("seed", config.seed);
    config.run.durationScale =
        args.number("scale", config.run.durationScale);

    const MachineClass mc = machineClassFromName(args.positional[1]);
    out << "collecting " << machineClassName(mc) << " x"
        << config.numMachines << ", 4 workloads x "
        << config.runsPerWorkload << " runs...\n";
    const ClusterCampaign campaign = collectClusterData(mc, config);
    saveDataset(args.flags.at("out"), campaign.data);
    out << "wrote " << campaign.data.numRows() << " machine-seconds x "
        << campaign.data.numFeatures() << " counters to "
        << args.flags.at("out") << "\n";
    return 0;
}

int
cmdSelect(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2)
        return usageError("select", err);
    const Dataset data = loadDataset(args.positional[1]);
    FeatureSelectionConfig config;
    Rng rng(args.number<std::uint64_t>("seed", 1));
    const FeatureSelectionResult selection =
        selectClusterFeatures(data, config, rng);

    out << "funnel: " << selection.catalogSize << " -> "
        << selection.afterConstantDrop << " -> "
        << selection.afterCorrelation << " -> "
        << selection.afterCoDependency << " -> "
        << selection.selected.size() << " (threshold "
        << selection.finalThreshold << ")\n";
    for (const auto &name : selection.selected)
        out << "  " << name << "\n";
    return 0;
}

/** Resolve the feature set for train/evaluate. */
FeatureSet
featureSetFor(const ParsedArgs &args, const Dataset &data,
              std::ostream &out)
{
    const std::string explicit_features =
        args.flagOr("features", "");
    if (!explicit_features.empty()) {
        FeatureSet set{"custom", {}};
        for (const auto &name : split(explicit_features, ';')) {
            const std::string trimmed = trim(name);
            if (!trimmed.empty())
                set.counters.push_back(trimmed);
        }
        return set;
    }
    out << "running Algorithm 1 feature selection...\n";
    FeatureSelectionConfig config;
    Rng rng(args.number<std::uint64_t>("seed", 1));
    return clusterFeatureSet(selectClusterFeatures(data, config, rng));
}

int
cmdTrain(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2 || !args.flags.count("out"))
        return usageError("train", err);
    const ModelType type =
        modelTypeFromString(args.flagOr("type", "quadratic"));

    const Dataset data = loadDataset(args.positional[1]);
    const FeatureSet features = featureSetFor(args, data, out);
    const MachinePowerModel model =
        MachinePowerModel::fit(data, features, type, MarsConfig());
    saveMachineModelFile(args.flags.at("out"), model);
    out << "trained " << modelTypeName(type) << " model on "
        << features.counters.size() << " counters ("
        << model.model().numParameters() << " parameters) -> "
        << args.flags.at("out") << "\n";
    return 0;
}

int
cmdEvaluate(const ParsedArgs &args, std::ostream &out,
            std::ostream &err)
{
    if (args.positional.size() != 2)
        return usageError("evaluate", err);
    const ModelType type =
        modelTypeFromString(args.flagOr("type", "quadratic"));

    const Dataset data = loadDataset(args.positional[1]);
    const FeatureSet features = featureSetFor(args, data, out);

    // DRE denominators from the observed per-machine power range.
    EnvelopeMap envelopes;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const double w = data.powerW()[r];
        MachineEnvelope &range =
            envelopes.try_emplace(data.machineIds()[r], w, w)
                .first->second;
        range.idlePowerW = std::min(range.idlePowerW, w);
        range.maxPowerW = std::max(range.maxPowerW, w);
    }

    EvaluationConfig config;
    config.folds = args.number("folds", config.folds);
    config.seed = args.number("seed", config.seed);
    const EvaluationOutcome outcome =
        evaluateTechnique(data, features, type, envelopes, config);
    if (!outcome.valid) {
        err << "error: model/feature combination is undefined for "
               "this dataset\n";
        return 2;
    }
    out << modelTypeName(type) << " on "
        << features.counters.size() << " counters, "
        << outcome.foldsRun << " folds:\n"
        << "  avg machine DRE (observed range): "
        << formatPercent(outcome.avgDre, 1) << "\n"
        << "  avg rMSE: " << formatDouble(outcome.avgRmse, 2)
        << " W\n"
        << "  median relative error: "
        << formatPercent(outcome.medianRelErr, 2) << "\n"
        << "  R^2: " << formatDouble(outcome.r2, 3) << "\n";
    return 0;
}

int
cmdPredict(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    if (args.positional.size() != 3)
        return usageError("predict", err);
    const MachinePowerModel model =
        loadMachineModelFile(args.positional[1]);
    const Dataset data = loadDataset(args.positional[2]);

    std::vector<double> estimates;
    estimates.reserve(data.numRows());
    for (size_t r = 0; r < data.numRows(); ++r) {
        estimates.push_back(
            model.predictFromCatalogRow(data.features().row(r)));
    }
    const auto &metered = data.powerW();
    out << "predicted " << estimates.size() << " samples\n";
    out << "  mean estimate: "
        << formatDouble(mean(estimates), 2) << " W (metered "
        << formatDouble(mean(metered), 2) << " W)\n";
    out << "  rMSE vs meter: "
        << formatDouble(rootMeanSquaredError(estimates, metered), 2)
        << " W\n";
    out << "  median relative error: "
        << formatPercent(medianRelativeError(estimates, metered), 2)
        << "\n";
    return 0;
}

/**
 * Surface the serving path's silent loss at summary time: drop-oldest
 * keeps the fleet live under overload, but an operator reading only
 * the final table would never know which machines paid for it.
 */
void
warnDroppedMachines(const serve::FleetSnapshot &snapshot,
                    std::ostream &err)
{
    for (const serve::MachineSnapshot &machine : snapshot.machines) {
        if (machine.dropped == 0)
            continue;
        err << "warning: machine '" << machine.id << "' dropped "
            << machine.dropped
            << " queued samples under backpressure (drop-oldest); "
               "raise --queue-capacity or --shards, or feed it over "
               "the network ingest path for explicit NACKs\n";
    }
}

/**
 * Fit the same cheap two-counter linear model the serving tests use
 * (~ baseW + 0.1*u0 + 0.08*u1 W over the processor-time counters), so
 * listen mode can register machines without shipping a dataset.
 */
MachinePowerModel
syntheticServeModel(uint64_t seed, double baseW)
{
    Rng rng(seed);
    const size_t n = 200;
    Matrix x(n, 2);
    std::vector<double> y(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 100.0);
        x(i, 1) = rng.uniform(0.0, 100.0);
        y[i] = baseW + 0.1 * x(i, 0) + 0.08 * x(i, 1) +
               rng.normal(0.0, 0.05);
    }
    auto model = std::make_shared<LinearModel>();
    model->fit(x, y);
    return MachinePowerModel::fromParts(
        FeatureSet{"serve-listen",
                   {"Processor(0)\\% Processor Time",
                    "Processor(1)\\% Processor Time"}},
        std::move(model));
}

/** FleetServerConfig from --shards/--queue-capacity/--snapshot-every. */
serve::FleetServerConfig
serverConfigFrom(const ParsedArgs &args)
{
    serve::FleetServerConfig config;
    config.numShards = args.number("shards", config.numShards);
    config.queueCapacity =
        args.number("queue-capacity", config.queueCapacity);
    config.snapshotEverySamples =
        args.number("snapshot-every", config.snapshotEverySamples);
    return config;
}

/**
 * The serving pipeline of one CLI run (paper Eq. 5 as a service): a
 * FleetServer with its machines plus the optional layers the flags
 * ask for — quality monitor, self-healing autopilot, telemetry
 * export, and flight recorder. `serve --replay`, `serve --listen`,
 * and `fleetview --replay` all build it here, so a flag means the
 * same thing everywhere and defaults to its config struct's value.
 */
class Pipeline
{
  public:
    /**
     * @param ids Machines sharing one --model (listen mode falls back
     *        to a synthetic model); a --fleet manifest names its own.
     * @param recording Clean trace the autopilot's pooled substitute
     *        is fit on (null when there is none).
     * @param withMonitor Attach the quality monitor even without
     *        --monitor 1 (--autopilot 1 always attaches it).
     */
    Pipeline(const ParsedArgs &args,
             const std::vector<std::string> &ids,
             const Dataset *recording, bool withMonitor);

    ~Pipeline()
    {
        if (flightArmed)
            obs::FlightRecorder::instance().setEnabled(false);
    }
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Flush telemetry and disarm the flight recorder, reporting both. */
    void finish(std::ostream &out);

    serve::FleetServer server;
    std::optional<monitor::FleetMonitor> quality;
    std::optional<autopilot::AutopilotController> pilot;
    std::optional<monitor::TelemetryExporter> telemetry;
    double speed = serve::ReplayConfig{}.speed; ///< Replay --speed.
    std::size_t telemetryEvery = 10; ///< Ticks between records.
    std::size_t dashboardEvery = 0;  ///< Ticks between lines (0 off).
    bool flightArmed = false;
};

Pipeline::Pipeline(const ParsedArgs &args,
                   const std::vector<std::string> &ids,
                   const Dataset *recording, bool withMonitor)
    : server(serverConfigFrom(args))
{
    OnlineEstimatorConfig estimatorConfig;
    const std::string platform = args.flagOr("platform", "");
    if (!platform.empty()) {
        estimatorConfig = OnlineEstimatorConfig::forSpec(
            machineSpecFor(machineClassFromName(platform)));
    }

    FeatureSet substituteFeatures;
    const std::string fleetPath = args.flagOr("fleet", "");
    if (!fleetPath.empty()) {
        std::vector<serve::FleetMachine> fleet =
            serve::loadFleetModels(fleetPath);
        raiseIf(fleet.empty(), "empty fleet manifest " + fleetPath);
        substituteFeatures = fleet.front().model.featureSet();
        for (serve::FleetMachine &machine : fleet) {
            server.addMachine(machine.id, std::move(machine.model),
                              estimatorConfig);
        }
    } else {
        const std::string modelPath = args.flagOr("model", "");
        const MachinePowerModel model =
            modelPath.empty() ? syntheticServeModel(7, 25.0)
                              : loadMachineModelFile(modelPath);
        substituteFeatures = model.featureSet();
        for (const std::string &id : ids)
            server.addMachine(id, model, estimatorConfig);
    }

    const bool autopilotOn = args.enabled("autopilot");
    if (withMonitor || autopilotOn || args.enabled("monitor")) {
        monitor::QualityMonitorConfig config;
        config.windowSamples = args.number("window", config.windowSamples);
        config.warmupSamples = args.number("warmup", config.warmupSamples);
        config.driftLambda = args.number("drift-lambda", config.driftLambda);
        config.driftDelta = args.number("drift-delta", config.driftDelta);
        quality.emplace(config);
        quality->attach(server);
    }

    if (autopilotOn) {
        autopilot::AutopilotConfig config;
        config.backgroundRetrain = false; // Deterministic replay.
        // A replayed trace spans minutes, not days: halve the
        // library's reference window and cooldown.
        config.referenceWindowSamples /= 2;
        config.cooldownTicks /= 2;
        config.maxConcurrentRetrains =
            args.number("max-retrains", config.maxConcurrentRetrains);
        config.referenceWindowSamples = args.number(
            "reference-window", config.referenceWindowSamples);
        config.retrainMinSamples =
            args.number("min-retrain-samples", config.retrainMinSamples);
        config.canaryMinSamples =
            args.number("canary-samples", config.canaryMinSamples);
        config.cooldownTicks = args.number("cooldown", config.cooldownTicks);
        if (args.has("retrain-type")) {
            config.fallbackRetrainType =
                modelTypeFromString(args.flagOr("retrain-type", ""));
        }
        const std::string substitute = args.flagOr("substitute", "pooled");
        raiseIf(substitute != "pooled" && substitute != "lastgood",
                "--substitute must be pooled or lastgood");
        pilot.emplace(server, *quality, config);
        if (substitute == "pooled" && recording != nullptr) {
            pilot->setSubstituteModel(
                fitPooledSubstitute(*recording, substituteFeatures));
        }
        pilot->start();
    }

    const std::string telemetryOut = args.flagOr("telemetry-out", "");
    if (!telemetryOut.empty()) {
        raiseIf(!quality, "--telemetry-out needs --monitor 1");
        // "tcp://host:port" streams records to a live collector over
        // a socket; anything else is a JSONL file path.
        telemetry.emplace(
            net::isSocketTarget(telemetryOut)
                ? net::connectLineSink(telemetryOut)
                : std::make_unique<std::ofstream>(telemetryOut),
            telemetryOut);
    }
    telemetryEvery = args.number("telemetry-every", telemetryEvery);
    dashboardEvery = args.number("dashboard-every", dashboardEvery);
    speed = args.number("speed", speed);

    // Flight recorder: keep rings of recent spans / events / metric
    // deltas and dump a diagnostic bundle when an anomaly
    // (ModelDrift, Backpressure, ConnectionDrop, Rollback) fires.
    if (args.has("flight-dir")) {
        obs::FlightConfig flightConfig;
        flightConfig.outDir = args.flagOr("flight-dir", "");
        flightConfig.windowMs =
            args.number("flight-window-ms", flightConfig.windowMs);
        flightConfig.rateLimitMs =
            args.number("flight-rate-limit-ms", flightConfig.rateLimitMs);
        auto &flight = obs::FlightRecorder::instance();
        flight.configure(flightConfig);
        flight.setEnabled(true);
        flightArmed = true;
    }
}

void
Pipeline::finish(std::ostream &out)
{
    if (telemetry) {
        telemetry->flush();
        out << "wrote " << telemetry->records()
            << " telemetry records to " << telemetry->path() << "\n";
    }
    if (flightArmed) {
        auto &flight = obs::FlightRecorder::instance();
        flight.setEnabled(false);
        flightArmed = false;
        out << "flight: " << flight.bundlesWritten()
            << " bundles written";
        if (!flight.lastBundlePath().empty())
            out << ", last " << flight.lastBundlePath();
        out << "\n";
    }
}

/** True every @p every ticks and on the last one (never for 0). */
bool
due(std::size_t every, std::size_t tick, std::size_t numTicks)
{
    return every != 0 && (tick % every == 0 || tick + 1 == numTicks);
}

/** One dashboard line: cluster power plus each attached layer. */
void
printDashboardLine(const Pipeline &p, std::size_t tick,
                   std::ostream &out)
{
    const serve::FleetSnapshot snap = p.server.snapshot();
    out << "tick " << tick << ": cluster "
        << formatDouble(snap.clusterW, 1) << " W";
    if (p.quality) {
        const monitor::QualitySnapshot quality = p.quality->snapshot();
        double worstDre = 0.0;
        for (const auto &machine : quality.machines) {
            if (std::isfinite(machine.rollingDre))
                worstDre = std::max(worstDre, machine.rollingDre);
        }
        out << ", worst rolling DRE " << formatPercent(worstDre, 1)
            << ", drifting " << quality.driftingCount() << "/"
            << quality.machines.size();
    }
    if (p.pilot) {
        size_t remediating = 0;
        for (const autopilot::MachineRemediation &machine :
             p.pilot->status()) {
            if (machine.state != autopilot::RemediationState::Serving)
                ++remediating;
        }
        out << ", quarantined " << snap.quarantined << "/"
            << snap.machines.size() << ", remediating " << remediating;
    }
    out << "\n";
}

/**
 * Replay @p replayer through @p p in lockstep: after each tick's
 * samples were submitted, drain them on this thread, advance the
 * autopilot, write due telemetry and dashboard lines, then run
 * @p onTick. No background drainer runs, so every line and record
 * is in step with the trace, and a fixed trace and seed reproduce
 * the same output (remediation story included).
 */
serve::ReplayStats
replayLockstep(Pipeline &p, const serve::TraceReplayer &replayer,
               std::ostream &out,
               const std::function<void(std::size_t)> &onTick = {})
{
    serve::ReplayConfig config;
    config.speed = p.speed;
    config.onTick = [&](std::size_t tick) {
        while (p.server.processed() + p.server.dropped() <
               p.server.submitted())
            p.server.drainOnce();
        if (p.pilot)
            p.pilot->tick();
        const std::size_t ticks = replayer.numTicks();
        if (p.telemetry && due(p.telemetryEvery, tick, ticks)) {
            const monitor::QualitySnapshot quality =
                p.quality->publishMetrics();
            p.telemetry->writeFleet(p.server.snapshot(), tick);
            p.telemetry->writeQuality(quality, tick);
            p.telemetry->writeMetrics(tick);
        }
        if (due(p.dashboardEvery, tick, ticks))
            printDashboardLine(p, tick, out);
        if (onTick)
            onTick(tick);
    };
    return replayer.replayInto(p.server, config);
}

/**
 * `chaos serve --listen`: run the fleet server as a real network
 * server — a ChaosIngestServer accepting wire-protocol connections
 * and feeding the shard queues from a background drainer, until a
 * sample budget or an idle window ends the run. `chaos loadgen` is
 * the matching client.
 */
int
cmdServeListen(const ParsedArgs &args, std::ostream &out,
               std::ostream &err)
{
    if (args.enabled("autopilot") || args.has("telemetry-out")) {
        err << "error: --autopilot and --telemetry-out need --replay "
               "(they run in lockstep with a trace)\n";
        return 2;
    }
    std::vector<std::string> ids;
    const size_t machines = args.number<size_t>("machines", 8);
    for (size_t i = 0; i < machines; ++i)
        ids.push_back("machine" + std::to_string(i));
    Pipeline pipeline(args, ids, nullptr, false);
    serve::FleetServer &server = pipeline.server;

    net::IngestServerConfig ingestConfig;
    ingestConfig.port = args.number("listen", ingestConfig.port);
    ingestConfig.creditBatch =
        args.number("credit-batch", ingestConfig.creditBatch);
    net::ChaosIngestServer ingest(server, ingestConfig);

    server.start();
    ingest.start();
    out << "listening on " << ingest.config().bindAddress << ":"
        << ingest.port() << " (" << server.numMachines()
        << " machines, " << server.config().numShards << " shards)"
        << std::endl;

    // Scripts poll this file instead of parsing stdout (the port is
    // ephemeral when --listen 0).
    const std::string portFile = args.flagOr("port-file", "");
    if (!portFile.empty())
        writeTextFile(portFile, std::to_string(ingest.port()) + "\n");

    // Run until the sample budget is met or ingest goes idle (both
    // optional; with neither, serve until the process is killed).
    const auto maxSamples =
        args.number<std::uint64_t>("ingest-max-samples", 0);
    const auto idleMs = args.number<std::uint64_t>("ingest-idle-ms", 0);
    auto lastChange = std::chrono::steady_clock::now();
    uint64_t lastSeen = 0;
    while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const uint64_t processed = server.processed();
        const auto now = std::chrono::steady_clock::now();
        if (processed != lastSeen) {
            lastSeen = processed;
            lastChange = now;
        }
        if (maxSamples > 0 && processed >= maxSamples)
            break;
        if (idleMs > 0 &&
            now - lastChange >= std::chrono::milliseconds(idleMs))
            break;
    }
    ingest.stop();
    server.stop();

    const net::IngestStats stats = ingest.stats();
    out << "ingest: " << stats.connectionsAccepted << " connections ("
        << stats.connectionsDropped << " dropped), "
        << stats.samplesAccepted << " samples accepted, "
        << stats.rejectedBackpressure << " rejected (backpressure), "
        << stats.rejectedUnknown << " rejected (unknown machine), "
        << stats.badFrames << " bad frames\n";

    const serve::FleetSnapshot snapshot = server.snapshot();
    out << "cluster power: " << formatDouble(snapshot.clusterW, 1)
        << " W over " << snapshot.samplesProcessed
        << " processed samples\n";
    warnDroppedMachines(snapshot, err);

    if (pipeline.quality) {
        out << "monitor: " << pipeline.quality->driftEvents()
            << " drift events\n";
    }
    pipeline.finish(out);

    const std::string statsOut = args.flagOr("stats-out", "");
    if (!statsOut.empty()) {
        writeTextFile(statsOut, "{\"ingest\": " + stats.toJson() +
                                    ", \"fleet\": " +
                                    snapshot.toJson() + "}\n");
        out << "wrote ingest stats to " << statsOut << "\n";
    }
    return 0;
}

/** The autopilot's per-machine remediation table and summary line. */
void
printRemediation(const autopilot::AutopilotController &pilot,
                 const monitor::QualitySnapshot &quality,
                 std::ostream &out)
{
    std::map<std::string, const monitor::MachineQualityReport *>
        reportById;
    for (const monitor::MachineQualityReport &machine :
         quality.machines)
        reportById[machine.id] = &machine;
    TextTable table({"Machine", "State", "Quality", "Quar", "Promo",
                     "Rollb", "Canary rMSE (W)"});
    for (const autopilot::MachineRemediation &machine :
         pilot.status()) {
        const auto report = reportById.find(machine.id);
        const std::string qualityName =
            report != reportById.end()
                ? modelQualityName(report->second->quality)
                : "n/a";
        const std::string canary =
            machine.promotions + machine.rollbacks > 0
                ? formatDouble(machine.lastCandidateRmseW, 2) +
                      " vs " +
                      formatDouble(machine.lastIncumbentRmseW, 2)
                : "n/a";
        table.addRow({machine.id,
                      autopilot::remediationStateName(machine.state),
                      qualityName, std::to_string(machine.quarantines),
                      std::to_string(machine.promotions),
                      std::to_string(machine.rollbacks), canary});
    }
    out << table.render();

    const autopilot::AutopilotStats pilotStats = pilot.stats();
    out << "autopilot summary: quarantines=" << pilotStats.quarantines
        << " retrains=" << pilotStats.retrainsStarted
        << " promotions=" << pilotStats.promotions
        << " rollbacks=" << pilotStats.rollbacks
        << " failures=" << pilotStats.retrainFailures << "\n";
}

/**
 * Replay a recorded counter trace through the fleet server (paper
 * Eq. 5 as a service): every machine in the trace gets an online
 * estimator, and samples are submitted tick by tick at the chosen
 * speed and drained in lockstep. --monitor 1 adds the per-machine
 * model-quality statistics and drift detector, --autopilot 1 the
 * self-healing loop on top (drift quarantines the machine behind a
 * substitute, a retrain produces a candidate, a canary promotes or
 * rolls it back), and --inject-stuck fault-injects the trace so the
 * loop can be shown from a clean recording.
 */
int
cmdServe(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.has("listen"))
        return cmdServeListen(args, out, err);
    const std::string replayPath = args.flagOr("replay", "");
    if (replayPath.empty() || args.has("model") == args.has("fleet"))
        return usageError("serve", err);

    const Dataset recording = loadDataset(replayPath);
    const serve::TraceReplayer replayer(
        withInjectedFaults(args, recording));
    Pipeline pipeline(args, replayer.machineIds(), &recording, false);
    const serve::FleetServer &server = pipeline.server;

    // Periodic snapshots stream to --snapshots-out as they are
    // emitted: the server itself keeps only the latest few.
    const std::string snapshotsOut = args.flagOr("snapshots-out", "");
    std::ofstream snapshotsFile;
    std::size_t snapshotsWritten = 0;
    if (!snapshotsOut.empty()) {
        snapshotsFile.open(snapshotsOut);
        raiseIf(!snapshotsFile, "cannot write " + snapshotsOut);
        snapshotsFile << "[\n";
        pipeline.server.onSnapshot([&](const serve::FleetSnapshot &snap) {
            snapshotsFile << "  " << snap.toJson() << ",\n";
            ++snapshotsWritten;
        });
    }
    const serve::ReplayStats stats =
        replayLockstep(pipeline, replayer, out);

    const serve::FleetSnapshot final_snapshot = server.snapshot();
    out << "replayed " << stats.ticks << " ticks x "
        << server.numMachines() << " machines: " << stats.submitted
        << " samples submitted, " << server.processed()
        << " processed, " << server.dropped() << " dropped\n";
    out << "cluster power: "
        << formatDouble(final_snapshot.clusterW, 1) << " W (healthy "
        << final_snapshot.healthy << ", degraded "
        << final_snapshot.degraded << ", stale "
        << final_snapshot.stale << ", lost " << final_snapshot.lost
        << ")\n";
    TextTable table({"Machine", "Watts", "Health", "Samples"});
    for (const serve::MachineSnapshot &machine :
         final_snapshot.machines) {
        table.addRow({machine.id, formatDouble(machine.watts, 1),
                      machineHealthName(machine.health),
                      std::to_string(machine.samples)});
    }
    out << table.render();
    warnDroppedMachines(final_snapshot, err);

    if (pipeline.quality) {
        const monitor::QualitySnapshot quality =
            pipeline.quality->publishMetrics();
        out << "model quality, monitored over " << stats.ticks
            << " ticks:\n";
        TextTable qualityTable({"Machine", "Quality", "rMSE (W)", "DRE",
                                "Bias (W)", "Drift stat"});
        for (const monitor::MachineQualityReport &machine :
             quality.machines) {
            qualityTable.addRow(
                {machine.id, modelQualityName(machine.quality),
                 formatDouble(machine.windowRmseW, 2),
                 std::isfinite(machine.rollingDre)
                     ? formatPercent(machine.rollingDre, 1)
                     : "n/a",
                 formatDouble(machine.biasW, 2),
                 formatDouble(machine.driftStatistic, 1)});
        }
        out << qualityTable.render();
        if (pipeline.pilot)
            printRemediation(*pipeline.pilot, quality, out);
        out << "drift events: " << pipeline.quality->driftEvents()
            << "\n";
    }

    if (!snapshotsOut.empty()) {
        snapshotsFile << "  " << final_snapshot.toJson() << "\n]\n";
        snapshotsFile.flush();
        raiseIf(!snapshotsFile.good(), "failed writing " + snapshotsOut);
        out << "wrote " << snapshotsWritten + 1 << " snapshots to "
            << snapshotsOut << "\n";
    }
    pipeline.finish(out);
    return 0;
}

/** "12.3%" for finite ratios, "n/a" otherwise (empty sketches). */
std::string
formatRatioCell(double ratio)
{
    return std::isfinite(ratio) ? formatPercent(ratio, 1) : "n/a";
}

/** "3.21" for finite watts, "n/a" otherwise. */
std::string
formatWattsCell(double watts, int decimals)
{
    return std::isfinite(watts) ? formatDouble(watts, decimals)
                                : "n/a";
}

/** Render one roll-up node: children, platforms, worst machines. */
void
renderFleetview(const rollup::NodeSummary &node, std::ostream &out)
{
    const rollup::RollupStats &s = node.stats;
    out << "fleetview "
        << (node.path.empty() ? std::string("(root)") : node.path)
        << ": " << s.machines << " machines (" << s.metered
        << " metered), " << formatDouble(s.watts, 1) << " W, drifting "
        << s.qualityDrifting << " (" << formatPercent(s.driftRate(), 1)
        << " of metered), quarantined " << s.quarantined << "\n";

    if (!node.children.empty()) {
        TextTable groups({"Group", "Machines", "Metered", "Watts",
                          "Healthy", "Drifting", "Drift rate",
                          "DRE p50", "DRE p99", "rMSE p99 (W)"});
        for (const rollup::NodeSummary &child : node.children) {
            const rollup::RollupStats &c = child.stats;
            groups.addRow(
                {child.name, std::to_string(c.machines),
                 std::to_string(c.metered), formatDouble(c.watts, 1),
                 std::to_string(c.healthy),
                 std::to_string(c.qualityDrifting),
                 formatRatioCell(c.driftRate()),
                 formatRatioCell(c.dre.quantile(0.5)),
                 formatRatioCell(c.dre.quantile(0.99)),
                 formatWattsCell(c.rmseW.quantile(0.99), 2)});
        }
        out << groups.render();
    }

    if (!s.platforms.empty()) {
        TextTable platforms({"Platform", "Machines", "Metered",
                             "Drifting", "Drift rate", "Watts"});
        for (const auto &[name, p] : s.platforms) {
            platforms.addRow({name, std::to_string(p.machines),
                              std::to_string(p.metered),
                              std::to_string(p.drifting),
                              formatRatioCell(p.driftRate()),
                              formatDouble(p.watts, 1)});
        }
        out << platforms.render();
    }

    if (!s.worst.empty()) {
        TextTable worst({"Worst machine", "Group", "DRE", "rMSE (W)",
                         "Drifted"});
        for (const rollup::MachineRank &r : s.worst) {
            worst.addRow({r.id, r.path,
                          formatRatioCell(r.rollingDre),
                          formatWattsCell(r.windowRmseW, 2),
                          r.drifted ? "yes" : "no"});
        }
        out << worst.render();
    }
}

/** Pre-order JSONL dump of a summary tree (one node per line). */
void
appendRollupLines(const rollup::NodeSummary &node, std::string &out)
{
    out += node.toJson();
    out += "\n";
    for (const rollup::NodeSummary &child : node.children)
        appendRollupLines(child, out);
}

/**
 * Place sorted machine ids into synthetic "fleet<K>" groups of
 * @p groupSize. Telemetry and replay streams carry no topology, so
 * the fleetview groups them deterministically by id order; real
 * deployments would feed real placement metadata instead.
 */
template <typename Feed>
void
placeSequentially(Feed &feed, const std::vector<std::string> &ids,
                  std::size_t groupSize, const std::string &platform)
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        feed.place(ids[i],
                   "fleet" + std::to_string(i / groupSize),
                   platform);
    }
}

/**
 * The datacenter-scale observability dashboard: aggregate per-machine
 * quality into the hierarchical roll-up tree and render any level of
 * it. Three feeds — a synthetic topology (scale demos), an offline
 * telemetry JSONL replay (post-hoc analysis of a monitor/autopilot
 * run), and a live lockstep trace replay through a real FleetServer +
 * FleetMonitor — all land in the same RollupTree, so the rendering
 * and the JSONL roll-up export are identical across them.
 */
int
cmdFleetview(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    const std::string syntheticCount = args.flagOr("synthetic", "");
    const std::string telemetryPath = args.flagOr("telemetry", "");
    const std::string replayPath = args.flagOr("replay", "");
    const int modes = (syntheticCount.empty() ? 0 : 1) +
                      (telemetryPath.empty() ? 0 : 1) +
                      (replayPath.empty() ? 0 : 1);
    if (modes != 1)
        return usageError("fleetview", err);

    rollup::RollupConfig rollupConfig;
    rollupConfig.worstN = args.number<std::size_t>("worst", 5);
    rollup::RollupTree tree(rollupConfig);

    const auto groupSize = args.number<std::size_t>("group-size", 8);
    const std::string platform = args.flagOr("platform", "");

    if (!syntheticCount.empty()) {
        FleetTopologyConfig topoConfig;
        topoConfig.machines =
            args.number("synthetic", topoConfig.machines);
        topoConfig.seed = args.number("seed", topoConfig.seed);
        const FleetTopology topology(topoConfig);
        rollup::SyntheticRollupFeed feed(tree, topology);
        const auto ticks = args.number<std::uint64_t>("ticks", 30);
        for (std::uint64_t t = 0; t < ticks; ++t)
            feed.tick(t);
        out << "synthetic fleet: " << topology.size()
            << " machines, " << ticks << " ticks, ground-truth "
            << "drifting " << topology.driftTruthTotal() << "\n";
    } else if (!telemetryPath.empty()) {
        // Pass 1: discover machine ids so grouping covers everyone.
        std::vector<std::string> ids;
        {
            std::set<std::string> seen;
            std::ifstream in(telemetryPath);
            raiseIf(!in.is_open(),
                    "cannot open telemetry: " + telemetryPath);
            std::string line;
            while (std::getline(in, line)) {
                if (line.empty())
                    continue;
                obs::JsonValue record;
                if (!obs::jsonParse(line, record))
                    continue; // Replay will report the bad line.
                const obs::JsonValue *payload = record.find("fleet");
                if (!payload)
                    payload = record.find("quality");
                if (!payload || !payload->isObject())
                    continue;
                const obs::JsonValue *machines =
                    payload->find("machines");
                if (!machines || !machines->isArray())
                    continue;
                for (const obs::JsonValue &m : machines->items()) {
                    const std::string id = m.stringOr("id", "");
                    if (!id.empty())
                        seen.insert(id);
                }
            }
            ids.assign(seen.begin(), seen.end());
        }
        rollup::JsonlRollupFeed feed(tree);
        placeSequentially(feed, ids, groupSize,
                          platform.empty() ? "unknown" : platform);
        const rollup::JsonlReplayStats stats =
            feed.replayFile(telemetryPath);
        out << "telemetry replay: " << stats.lines << " lines, "
            << stats.fleetRecords << " fleet + "
            << stats.qualityRecords << " quality records ("
            << stats.skipped << " skipped), last tick "
            << stats.lastTick << "\n";
    } else {
        const std::string modelPath = args.flagOr("model", "");
        const std::string fleetPath = args.flagOr("fleet", "");
        if (modelPath.empty() == fleetPath.empty()) {
            err << "error: fleetview --replay needs exactly one of "
                   "--model or --fleet\n";
            return 2;
        }
        const Dataset data = loadDataset(replayPath);
        const serve::TraceReplayer replayer(data);
        Pipeline pipeline(args, replayer.machineIds(), &data, true);

        rollup::LiveRollupFeed feed(tree);
        placeSequentially(feed, pipeline.server.machineIds(), groupSize,
                          platform.empty() ? "unknown" : platform);
        const auto observeEvery = args.number<std::size_t>("ticks", 10);
        const serve::ReplayStats stats = replayLockstep(
            pipeline, replayer, out, [&](std::size_t tick) {
                if (due(observeEvery, tick, replayer.numTicks())) {
                    feed.observe(pipeline.server.snapshot(),
                                 pipeline.quality->snapshot());
                }
            });
        out << "live replay: " << stats.ticks << " ticks x "
            << pipeline.server.numMachines() << " machines, "
            << feed.observed() << " roll-up joins\n";
    }

    const rollup::NodeSummary summary = tree.aggregate();
    const std::string drillPath = args.flagOr("path", "");
    const rollup::NodeSummary *node = summary.find(drillPath);
    if (!node) {
        err << "error: no roll-up group '" << drillPath << "'\n";
        return 2;
    }
    renderFleetview(*node, out);

    const std::string rollupOut = args.flagOr("rollup-out", "");
    if (!rollupOut.empty()) {
        std::string lines;
        appendRollupLines(summary, lines);
        writeTextFile(rollupOut, lines);
        out << "wrote " << tree.numNodes() << " roll-up nodes to "
            << rollupOut << "\n";
    }
    return 0;
}

int
cmdReport(const ParsedArgs &args, std::ostream &out,
          std::ostream &err)
{
    if (args.positional.size() != 2)
        return usageError("report", err);
    const Dataset data = loadDataset(args.positional[1]);
    if (data.numRows() == 0) {
        err << "error: empty dataset\n";
        return 2;
    }

    out << "# CHAOS dataset report\n\n";
    out << "- samples: " << data.numRows() << " machine-seconds\n";
    out << "- counters: " << data.numFeatures() << "\n";
    std::set<int> machines(data.machineIds().begin(),
                           data.machineIds().end());
    std::set<int> runs(data.runIds().begin(), data.runIds().end());
    out << "- machines: " << machines.size() << ", runs: "
        << runs.size() << "\n\n";

    out << "| workload | samples | min W | mean W | max W | "
           "energy/run (kJ) |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const auto &workload : data.workloadNames()) {
        std::vector<double> watts;
        std::set<int> workload_runs;
        for (size_t r = 0; r < data.numRows(); ++r) {
            if (data.workloadNames()[data.workloadIds()[r]] ==
                workload) {
                watts.push_back(data.powerW()[r]);
                workload_runs.insert(data.runIds()[r]);
            }
        }
        if (watts.empty())
            continue;
        const double total =
            std::accumulate(watts.begin(), watts.end(), 0.0);
        out << "| " << workload << " | " << watts.size() << " | "
            << formatDouble(minValue(watts), 1) << " | "
            << formatDouble(total / watts.size(), 1) << " | "
            << formatDouble(maxValue(watts), 1) << " | "
            << formatDouble(total / 1000.0 / workload_runs.size(), 1)
            << " |\n";
    }
    return 0;
}

/** Dispatch one parsed subcommand; may raise RecoverableError. */
int
dispatch(const std::string &command, const ParsedArgs &parsed,
         std::ostream &out, std::ostream &err)
{
    using Command =
        int (*)(const ParsedArgs &, std::ostream &, std::ostream &);
    static const std::map<std::string, Command> commands = {
        {"list-platforms", cmdListPlatforms},
        {"list-counters", cmdListCounters}, {"probe", cmdProbe},
        {"collect", cmdCollect}, {"select", cmdSelect},
        {"train", cmdTrain}, {"evaluate", cmdEvaluate},
        {"predict", cmdPredict}, {"serve", cmdServe},
        {"loadgen", cmdLoadgen}, {"top", cmdTop},
        {"fleetview", cmdFleetview}, {"report", cmdReport}};
    const auto it = commands.find(command);
    if (it != commands.end())
        return it->second(parsed, out, err);
    err << "error: unknown subcommand '" << command
        << "' (try 'chaos help')\n";
    return 2;
}

/**
 * Observability flags shared by every subcommand. Tracing is enabled
 * only when a trace output was requested; the export itself happens
 * after the subcommand ran.
 */
struct ObsOptions
{
    std::string traceOutPath;
    std::string traceSummaryPath;
    std::string metricsOutPath;

    static std::optional<ObsOptions> fromArgs(const ParsedArgs &args,
                                              std::ostream &err)
    {
        const std::string level_name = args.flagOr("log-level", "");
        if (!level_name.empty()) {
            LogLevel level;
            if (!logLevelFromName(level_name, level)) {
                err << "error: unknown log level '" << level_name
                    << "' (debug|info|warn|error|silent)\n";
                return std::nullopt;
            }
            setLogLevel(level);
        }
        ObsOptions options;
        options.traceOutPath = args.flagOr("trace-out", "");
        options.traceSummaryPath = args.flagOr("trace-summary", "");
        options.metricsOutPath = args.flagOr("metrics-out", "");
        if (!options.traceOutPath.empty() ||
            !options.traceSummaryPath.empty())
            obs::setTraceEnabled(true);
        return options;
    }

    /** Export whatever was requested; raises on unwritable paths. */
    void exportAll() const
    {
        if (!traceOutPath.empty())
            writeTextFile(traceOutPath, obs::chromeTraceJson());
        if (!traceSummaryPath.empty())
            writeTextFile(traceSummaryPath, obs::phaseSummary());
        if (!metricsOutPath.empty()) {
            writeTextFile(metricsOutPath,
                          obs::Registry::instance().snapshotJson(
                              /*includeScheduling=*/true));
        }
    }
};

} // namespace
} // namespace chaos::cli

namespace chaos {

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        out << cli::kHelpText;
        return 0;
    }

    const auto parsed = cli::parseArgs(args, err);
    if (!parsed)
        return 2;

    const auto obs_options = cli::ObsOptions::fromArgs(*parsed, err);
    if (!obs_options)
        return 2;

    const std::string &command = parsed->positional.empty()
                                     ? args[0]
                                     : parsed->positional[0];
    // The library raises RecoverableError on malformed user data
    // (bad dataset CSV, corrupt model file, unknown names); the CLI
    // is the process boundary where that becomes an error message
    // and a nonzero exit code.
    int code;
    try {
        code = cli::dispatch(command, *parsed, out, err);
    } catch (const RecoverableError &e) {
        err << "error: " << e.message() << "\n";
        code = 2;
    }
    // Trace/metrics exports also cover failed runs: observability is
    // most valuable exactly when a run went wrong.
    try {
        obs_options->exportAll();
    } catch (const RecoverableError &e) {
        err << "error: " << e.message() << "\n";
        return 2;
    }
    return code;
}

} // namespace chaos
