/**
 * @file
 * Tests for the `chaos` CLI, driving runCli() directly and exercising
 * the full collect -> select -> train -> evaluate -> predict flow on
 * a miniature dataset.
 */
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cli/cli.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace chaos {
namespace {

struct CliResult
{
    int code = 0;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &args)
{
    std::ostringstream out, err;
    CliResult result;
    result.code = runCli(args, out, err);
    result.out = out.str();
    result.err = err.str();
    return result;
}

/** Collect a tiny dataset once for the pipeline tests. */
const std::string &
tinyDatasetPath()
{
    static const std::string path = [] {
        // Process-unique name: ctest runs each test in its own
        // process, concurrently, and a shared file would race.
        const std::string csv = ::testing::TempDir() + "cli_data_" +
                                std::to_string(::getpid()) + ".csv";
        const CliResult result =
            run({"collect", "Core2", "--out", csv, "--machines", "2",
                 "--runs", "2", "--scale", "0.15", "--seed", "77"});
        EXPECT_EQ(result.code, 0) << result.err;
        return csv;
    }();
    return path;
}

TEST(Cli, HelpListsSubcommands)
{
    const CliResult result = run({"help"});
    EXPECT_EQ(result.code, 0);
    for (const char *cmd : {"collect", "select", "train", "evaluate",
                            "predict", "probe", "--monitor 1",
                            "--autopilot 1"}) {
        EXPECT_NE(result.out.find(cmd), std::string::npos) << cmd;
    }
}

TEST(Cli, NoArgsShowsHelp)
{
    const CliResult result = run({});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("subcommands"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    const CliResult result = run({"frobnicate"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("unknown subcommand"),
              std::string::npos);
}

TEST(Cli, FlagWithoutValueFails)
{
    const CliResult result = run({"collect", "Core2", "--out"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("needs a value"), std::string::npos);
}

TEST(Cli, ListPlatformsIncludesPaperSixAndFuture)
{
    const CliResult result = run({"list-platforms"});
    EXPECT_EQ(result.code, 0);
    for (const char *name : {"Atom", "Core2", "Athlon", "Opteron",
                             "XeonSATA", "XeonSAS", "FutureServer"}) {
        EXPECT_NE(result.out.find(name), std::string::npos) << name;
    }
}

TEST(Cli, ListCountersFiltersByCategory)
{
    const CliResult all = run({"list-counters"});
    EXPECT_EQ(all.code, 0);
    EXPECT_NE(all.out.find("% Processor Time"), std::string::npos);

    const CliResult memory =
        run({"list-counters", "--category", "memory"});
    EXPECT_EQ(memory.code, 0);
    EXPECT_NE(memory.out.find("Pages/sec"), std::string::npos);
    EXPECT_EQ(memory.out.find("PhysicalDisk"), std::string::npos);

    const CliResult none =
        run({"list-counters", "--category", "nosuch"});
    EXPECT_EQ(none.code, 2);
}

TEST(Cli, ProbeReportsEnvelope)
{
    const CliResult result = run({"probe", "Atom"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("idle"), std::string::npos);
    EXPECT_NE(result.out.find("spec 22-26"), std::string::npos);
}

TEST(Cli, ProbeWithoutPlatformFails)
{
    EXPECT_EQ(run({"probe"}).code, 2);
}

TEST(Cli, CollectWritesDataset)
{
    const CliResult result =
        run({"select", tinyDatasetPath()});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("funnel:"), std::string::npos);
    EXPECT_NE(result.out.find("% Processor Time"),
              std::string::npos);
}

TEST(Cli, TrainEvaluatePredictPipeline)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_model.txt";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "piecewise"});
    ASSERT_EQ(trained.code, 0) << trained.err;
    EXPECT_NE(trained.out.find("trained piecewise-linear"),
              std::string::npos);

    const CliResult evaluated =
        run({"evaluate", tinyDatasetPath(), "--type", "piecewise",
             "--folds", "2"});
    ASSERT_EQ(evaluated.code, 0) << evaluated.err;
    EXPECT_NE(evaluated.out.find("avg machine DRE"),
              std::string::npos);

    const CliResult predicted =
        run({"predict", model_path, tinyDatasetPath()});
    ASSERT_EQ(predicted.code, 0) << predicted.err;
    EXPECT_NE(predicted.out.find("rMSE vs meter"),
              std::string::npos);

    std::remove(model_path.c_str());
}

TEST(Cli, TrainWithExplicitFeatures)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_model2.txt";
    const CliResult result = run(
        {"train", tinyDatasetPath(), "--out", model_path, "--type",
         "linear", "--features",
         "Processor(_Total)\\% Processor Time;"
         "Processor Performance\\Processor_0 Frequency"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("2 counters"), std::string::npos);
    std::remove(model_path.c_str());
}

TEST(Cli, TrainRejectsUnknownType)
{
    const CliResult result =
        run({"train", tinyDatasetPath(), "--out", "/tmp/x.txt",
             "--type", "neural"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("unknown model type"),
              std::string::npos);
}

/** Train a model on the tiny dataset into a process-unique path. */
std::string
trainTinyModel(const std::string &tag, const std::string &type)
{
    const std::string path = ::testing::TempDir() + "cli_" + tag +
                             "_model_" + std::to_string(::getpid()) +
                             ".txt";
    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", path, "--type", type});
    EXPECT_EQ(trained.code, 0) << trained.err;
    return path;
}

TEST(Cli, MonitorReplayReportsQualityAndWritesTelemetry)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_monitor_model_" +
        std::to_string(::getpid()) + ".txt";
    const std::string telemetry_path =
        ::testing::TempDir() + "cli_monitor_tel_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "quadratic"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const CliResult monitored =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--monitor", "1",
             "--telemetry-out", telemetry_path, "--dashboard-every",
             "100"});
    ASSERT_EQ(monitored.code, 0) << monitored.err;
    EXPECT_NE(monitored.out.find("monitored"), std::string::npos);
    EXPECT_NE(monitored.out.find("drift events:"), std::string::npos);
    EXPECT_NE(monitored.out.find("telemetry records"),
              std::string::npos);
    // The dashboard printed at least one per-tick line.
    EXPECT_NE(monitored.out.find("tick 0:"), std::string::npos);

    std::ifstream telemetry(telemetry_path);
    ASSERT_TRUE(telemetry.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(telemetry, line))
        ++lines;
    EXPECT_GT(lines, 0u);

    std::remove(model_path.c_str());
    std::remove(telemetry_path.c_str());
}

TEST(Cli, MonitorWithoutReplayOrModelFails)
{
    EXPECT_EQ(run({"serve", "--monitor", "1"}).code, 2);
    EXPECT_EQ(run({"serve", "--replay", "x.csv", "--monitor", "1"}).code,
              2);
}

/**
 * The self-healing replay end to end through the CLI: a clean replay
 * reports zero remediations, and the same trace with an injected
 * stuck-counter fault drives machine0 through quarantine, retrain,
 * and a canary-gated promotion.
 */
TEST(Cli, AutopilotReplayHealsInjectedStuckCounterFault)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_autopilot_model_" +
        std::to_string(::getpid()) + ".txt";
    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const std::vector<std::string> common = {
        "serve", "--replay", tinyDatasetPath(), "--model", model_path,
        "--autopilot", "1", "--warmup", "40", "--window", "30",
        "--min-retrain-samples", "32", "--canary-samples", "16",
        "--cooldown", "30"};

    CliResult clean = run(common);
    ASSERT_EQ(clean.code, 0) << clean.err;
    EXPECT_NE(clean.out.find("autopilot summary: quarantines=0 "
                             "retrains=0 promotions=0 rollbacks=0 "
                             "failures=0"),
              std::string::npos)
        << clean.out;
    EXPECT_NE(clean.out.find("drift events: 0"), std::string::npos);

    std::vector<std::string> faulted = common;
    for (const char *arg :
         {"--inject-stuck", "machine0", "--inject-at", "60"})
        faulted.push_back(arg);
    CliResult healed = run(faulted);
    ASSERT_EQ(healed.code, 0) << healed.err;
    // At least one full quarantine -> retrain -> promote cycle ran
    // (a long trace may legitimately remediate more than once as new
    // workload phases re-drift the frozen counters).
    EXPECT_NE(healed.out.find("autopilot summary:"),
              std::string::npos);
    EXPECT_EQ(healed.out.find("quarantines=0"), std::string::npos)
        << healed.out;
    EXPECT_EQ(healed.out.find("promotions=0"), std::string::npos)
        << healed.out;
    EXPECT_NE(healed.out.find("rollbacks=0"), std::string::npos)
        << healed.out;
    // The remediated machine finished the replay serving again.
    EXPECT_NE(healed.out.find("| machine0 | serving"),
              std::string::npos)
        << healed.out;

    std::remove(model_path.c_str());
}

TEST(Cli, AutopilotWithoutReplayOrModelFails)
{
    EXPECT_EQ(run({"serve", "--autopilot", "1"}).code, 2);
    EXPECT_EQ(run({"serve", "--autopilot", "1", "--replay", "x.csv",
                   "--substitute", "bogus"})
                  .code,
              2);
}

TEST(Cli, AutopilotRejectsBadSubstituteMode)
{
    const std::string model_path = trainTinyModel("substitute", "linear");
    const CliResult result =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             model_path, "--autopilot", "1", "--substitute", "bogus"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("--substitute"), std::string::npos)
        << result.err;
    std::remove(model_path.c_str());
}

/** Replay is lockstep: the same trace prints the same bytes. */
TEST(Cli, ServeReplayStdoutIsByteIdenticalAcrossRuns)
{
    const std::string model_path = trainTinyModel("determinism", "linear");
    const std::vector<std::string> args = {
        "serve", "--replay", tinyDatasetPath(), "--model", model_path,
        "--platform", "Core2", "--monitor", "1", "--autopilot", "1",
        "--warmup", "40", "--window", "30", "--inject-stuck",
        "machine0", "--inject-at", "60", "--dashboard-every", "50"};
    const CliResult first = run(args);
    ASSERT_EQ(first.code, 0) << first.err;
    const CliResult second = run(args);
    ASSERT_EQ(second.code, 0) << second.err;
    EXPECT_EQ(first.out, second.out);
    EXPECT_NE(first.out.find("tick 50:"), std::string::npos);
    std::remove(model_path.c_str());
}

TEST(Cli, ServeReplayMonitorPrintsQualityTableAndNoDrift)
{
    const std::string model_path = trainTinyModel("quality", "linear");
    const CliResult result =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--monitor", "1"});
    ASSERT_EQ(result.code, 0) << result.err;
    // The serving summary, then the quality table after it.
    const std::size_t summary = result.out.find("cluster power:");
    const std::size_t table = result.out.find(
        "| Machine  | Quality | rMSE (W) | DRE");
    ASSERT_NE(summary, std::string::npos) << result.out;
    ASSERT_NE(table, std::string::npos) << result.out;
    EXPECT_LT(summary, table);
    EXPECT_NE(result.out.find("| machine0 |", table), std::string::npos);
    EXPECT_NE(result.out.find("| machine1 |", table), std::string::npos);
    // A model replayed over its own training trace does not drift.
    EXPECT_NE(result.out.find("\ndrift events: 0\n"), std::string::npos)
        << result.out;
    EXPECT_EQ(result.out.find("autopilot summary"), std::string::npos);
    std::remove(model_path.c_str());
}

/**
 * --snapshots-out holds every periodic snapshot, not just the ones
 * the server's bounded ring still retains at exit, then the final one.
 */
TEST(Cli, ServeReplaySnapshotsOutKeepsEveryPeriodicSnapshot)
{
    const std::string model_path = trainTinyModel("snapshots", "linear");
    const std::string snaps_path = ::testing::TempDir() +
                                   "cli_snapshots_" +
                                   std::to_string(::getpid()) + ".json";
    const std::size_t every = 4;
    const CliResult result =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--snapshot-every",
             std::to_string(every), "--snapshots-out", snaps_path});
    ASSERT_EQ(result.code, 0) << result.err;

    std::ifstream file(snaps_path);
    std::stringstream text;
    text << file.rdbuf();
    const std::string json = text.str();
    ASSERT_EQ(json.rfind("[\n  {", 0), 0u);
    ASSERT_GE(json.size(), 4u);
    EXPECT_EQ(json.substr(json.size() - 4), "}\n]\n");
    obs::JsonValue parsed;
    ASSERT_TRUE(obs::jsonParse(json, parsed));
    const std::vector<obs::JsonValue> &snaps = parsed.items();
    ASSERT_FALSE(snaps.empty());

    // N periodic snapshots (seq 1..N), one per `every` processed
    // samples, plus the final one.
    const std::size_t periodic = static_cast<std::size_t>(
        snaps.back().numberOr("processed", 0)) / every;
    EXPECT_GT(periodic, serve::FleetServer::kRetainedSnapshots);
    ASSERT_EQ(snaps.size(), periodic + 1);
    for (std::size_t i = 0; i < periodic; ++i)
        EXPECT_EQ(snaps[i].numberOr("seq", 0), i + 1.0) << i;
    EXPECT_NE(result.out.find("wrote " + std::to_string(periodic + 1) +
                              " snapshots to "),
              std::string::npos)
        << result.out;
    std::remove(model_path.c_str());
    std::remove(snaps_path.c_str());
}

TEST(Cli, AutopilotNeedsReplayNotListen)
{
    const CliResult result =
        run({"serve", "--listen", "0", "--autopilot", "1"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("--autopilot"), std::string::npos)
        << result.err;
}

TEST(Cli, MonitorAndAutopilotSubcommandsAreGone)
{
    for (const char *command : {"monitor", "autopilot"}) {
        const CliResult result =
            run({command, "--replay", tinyDatasetPath()});
        EXPECT_EQ(result.code, 2) << command;
        EXPECT_NE(result.err.find("unknown subcommand"),
                  std::string::npos)
            << command;
    }
}

/**
 * Malformed numeric flags are user errors: exit 2 with the flag named,
 * never an uncaught exception, a wrapped negative, or a silently
 * truncated value.
 */
TEST(Cli, MalformedNumericFlagsExitTwoNamingTheFlag)
{
    const struct
    {
        std::vector<std::string> args;
        const char *flag;
    } cases[] = {
        {{"serve", "--listen", "0", "--shards", "abc"}, "--shards"},
        {{"fleetview", "--synthetic", "-5", "--ticks", "1"},
         "--synthetic"},
        {{"fleetview", "--synthetic", "10x", "--ticks", "1"},
         "--synthetic"},
        {{"fleetview", "--synthetic", "10", "--ticks", " 1"},
         "--ticks"},
        {{"serve", "--listen", "70000"}, "--listen"},
        {{"collect", "Core2", "--out", "x.csv", "--scale", "fast"},
         "--scale"},
        {{"collect", "Core2", "--out", "x.csv", "--machines",
          "99999999999999999999999"},
         "--machines"},
    };
    for (const auto &c : cases) {
        const CliResult result = run(c.args);
        EXPECT_EQ(result.code, 2) << c.flag;
        EXPECT_NE(result.err.find(c.flag), std::string::npos)
            << result.err;
    }
}

TEST(Cli, FleetviewSyntheticRendersTablesAndRollupExport)
{
    const std::string rollup_path =
        ::testing::TempDir() + "cli_fleetview_rollup_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult result =
        run({"fleetview", "--synthetic", "200", "--ticks", "20",
             "--seed", "7", "--worst", "3", "--rollup-out",
             rollup_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("synthetic fleet: 200 machines"),
              std::string::npos);
    EXPECT_NE(result.out.find("fleetview (root):"),
              std::string::npos);
    // Drill-down, platform, and worst-N tables all rendered.
    EXPECT_NE(result.out.find("Drift rate"), std::string::npos);
    EXPECT_NE(result.out.find("Platform"), std::string::npos);
    EXPECT_NE(result.out.find("Worst machine"), std::string::npos);
    EXPECT_NE(result.out.find("DRE p99"), std::string::npos);

    // Every exported roll-up line is well-formed JSON; the count
    // matches what the CLI reported.
    std::ifstream rollup(rollup_path);
    ASSERT_TRUE(rollup.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(rollup, line)) {
        ++lines;
        EXPECT_TRUE(obs::jsonWellFormed(line)) << "line " << lines;
    }
    EXPECT_GT(lines, 1u);  // Root plus at least one group.
    EXPECT_NE(result.out.find("wrote " + std::to_string(lines) +
                              " roll-up nodes"),
              std::string::npos)
        << result.out;
    std::remove(rollup_path.c_str());
}

TEST(Cli, FleetviewDrillsDownToANamedGroup)
{
    const CliResult root =
        run({"fleetview", "--synthetic", "100", "--ticks", "10"});
    ASSERT_EQ(root.code, 0) << root.err;

    const CliResult drilled =
        run({"fleetview", "--synthetic", "100", "--ticks", "10",
             "--path", "dc0/row0"});
    ASSERT_EQ(drilled.code, 0) << drilled.err;
    EXPECT_NE(drilled.out.find("fleetview dc0/row0:"),
              std::string::npos)
        << drilled.out;

    const CliResult missing =
        run({"fleetview", "--synthetic", "100", "--ticks", "10",
             "--path", "dc9/nope"});
    EXPECT_EQ(missing.code, 2);
    EXPECT_NE(missing.err.find("no roll-up group"),
              std::string::npos);
}

TEST(Cli, FleetviewLiveReplayAggregatesTheFleet)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_fleetview_model_" +
        std::to_string(::getpid()) + ".txt";
    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const CliResult viewed =
        run({"fleetview", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--group-size", "1",
             "--ticks", "5"});
    ASSERT_EQ(viewed.code, 0) << viewed.err;
    EXPECT_NE(viewed.out.find("live replay:"), std::string::npos);
    EXPECT_NE(viewed.out.find("fleetview (root):"),
              std::string::npos);
    // group-size 1 puts each machine in its own fleet<K> group.
    EXPECT_NE(viewed.out.find("fleet0"), std::string::npos);
    EXPECT_NE(viewed.out.find("fleet1"), std::string::npos);
    EXPECT_NE(viewed.out.find("Core2"), std::string::npos);
    std::remove(model_path.c_str());
}

TEST(Cli, FleetviewTelemetryReplayRendersTheSameDashboard)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_fleetview_tel_model_" +
        std::to_string(::getpid()) + ".txt";
    const std::string telemetry_path =
        ::testing::TempDir() + "cli_fleetview_tel_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;
    const CliResult monitored =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--monitor", "1",
             "--telemetry-out", telemetry_path});
    ASSERT_EQ(monitored.code, 0) << monitored.err;

    // The offline JSONL path lands in the same tree and renders the
    // same dashboard as the live feed.
    const CliResult viewed =
        run({"fleetview", "--telemetry", telemetry_path,
             "--group-size", "1", "--platform", "Core2"});
    ASSERT_EQ(viewed.code, 0) << viewed.err;
    EXPECT_NE(viewed.out.find("telemetry replay:"),
              std::string::npos);
    EXPECT_NE(viewed.out.find("fleetview (root):"),
              std::string::npos);
    EXPECT_NE(viewed.out.find("Worst machine"), std::string::npos);
    EXPECT_NE(viewed.out.find("Core2"), std::string::npos);

    std::remove(model_path.c_str());
    std::remove(telemetry_path.c_str());
}

TEST(Cli, FleetviewUsageErrors)
{
    // No mode, two modes, and --replay without a model all fail.
    EXPECT_EQ(run({"fleetview"}).code, 2);
    EXPECT_EQ(run({"fleetview", "--synthetic", "10", "--telemetry",
                   "x.jsonl"})
                  .code,
              2);
    EXPECT_EQ(run({"fleetview", "--replay", "x.csv"}).code, 2);
}

TEST(Cli, ReportSummarizesWorkloads)
{
    const CliResult result = run({"report", tinyDatasetPath()});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("# CHAOS dataset report"),
              std::string::npos);
    for (const char *workload :
         {"Sort", "PageRank", "Prime", "WordCount"}) {
        EXPECT_NE(result.out.find(workload), std::string::npos)
            << workload;
    }
    EXPECT_NE(result.out.find("energy/run"), std::string::npos);
}

TEST(Cli, ReportWithoutDatasetFails)
{
    EXPECT_EQ(run({"report"}).code, 2);
}

TEST(Cli, UsageErrorsForMissingArguments)
{
    EXPECT_EQ(run({"collect", "Core2"}).code, 2);
    EXPECT_EQ(run({"select"}).code, 2);
    EXPECT_EQ(run({"train", "data.csv"}).code, 2);
    EXPECT_EQ(run({"evaluate"}).code, 2);
    EXPECT_EQ(run({"predict", "model.txt"}).code, 2);
}

TEST(Cli, TopUsageErrors)
{
    // No target, and a target without a port, are usage errors
    // (exit 2) — never an attempted connection.
    EXPECT_EQ(run({"top"}).code, 2);
    EXPECT_EQ(run({"top", "--target", "localhost"}).code, 2);
    const CliResult help = run({"help"});
    EXPECT_NE(help.out.find("top --target"), std::string::npos);
}

} // namespace
} // namespace chaos
