/**
 * @file
 * Validates every result of Figure 7's job mix: the full 678-loop
 * suite on the six paper configs, replication off and on (8,136
 * jobs), compiled as one CompileService batch. Every job must end Ok
 * with a feasible schedule that passes checkSchedule and simulates
 * equal to the reference interpreter - not a sample - and its graph
 * must hold no dead edge slot (compile() compacts a changed graph;
 * an unchanged one is the input's, which has none).
 *
 * A second batch applies the same check to the replication paths
 * that mix does not reach: the most selection rounds per loop, and
 * MacroNode mode (section 5.2).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "eval/service.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/** Why job @p j of @p batch is not a valid result; empty when it is. */
std::string
invalidResult(const std::vector<CompileService::Job> &jobs,
              const CompileService::BatchResult &batch, std::size_t j)
{
    if (batch.outcomes[j] != JobOutcome::Ok)
        return std::string(toString(batch.outcomes[j])) + ": " +
               batch.errors[j];
    const CompileResult &r = batch.results[j];
    if (!r.ok)
        return "no schedule found";
    if (r.finalDdg.numEdgeSlots() != r.finalDdg.numEdges())
        return std::to_string(r.finalDdg.numEdgeSlots() -
                              r.finalDdg.numEdges()) +
               " dead edge slots";
    const MachineConfig &mach = *jobs[j].mach;
    const auto errs =
        checkSchedule(r.finalDdg, mach, r.partition, r.schedule);
    if (!errs.empty())
        return "checkSchedule: " + errs.front();
    const auto rep = simulate(r.finalDdg, mach, r.partition, r.schedule,
                              *jobs[j].ddg);
    if (!rep.ok)
        return "simulate: " +
               (rep.errors.empty() ? "mismatch" : rep.errors.front());
    return {};
}

/**
 * Compile @p jobs as one batch and expect every result to be valid;
 * the first ten failures are reported, each named by @p label.
 * @return the batch, for further checks
 */
CompileService::BatchResult
expectEveryResultValid(const std::vector<CompileService::Job> &jobs,
                       const std::function<std::string(std::size_t)> &label)
{
    auto batch = CompileService::shared().compileBatch(jobs);
    std::size_t failures = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::string why = invalidResult(jobs, batch, j);
        if (!why.empty() && ++failures <= 10)
            ADD_FAILURE() << label(j) << ": " << why;
    }
    EXPECT_EQ(failures, 0u);
    return batch;
}

TEST(Fig7Validation, EveryResultChecksAndSimulates)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    std::vector<MachineConfig> machs;
    for (const char *cfg : {"2c1b2l64r", "2c2b4l64r", "4c1b2l64r",
                            "4c2b4l64r", "4c2b2l64r", "4c4b4l64r"})
        machs.push_back(MachineConfig::fromString(cfg));
    PipelineOptions base, repl;
    base.replication = false;

    std::vector<CompileService::Job> jobs;
    for (const MachineConfig &mach : machs) {
        for (const PipelineOptions *opts : {&base, &repl}) {
            for (const Loop &loop : suite)
                jobs.push_back(CompileService::Job{&loop.ddg, &mach, opts});
        }
    }
    ASSERT_EQ(jobs.size(), 8136u);

    expectEveryResultValid(jobs, [&](std::size_t j) {
        return suite[j % suite.size()].name() + " on " +
               jobs[j].mach->name() +
               (jobs[j].opts == &repl ? "/repl" : "/base");
    });
}

/**
 * The default mode on 4c1b4l64r, whose one latency-4 bus drives the
 * most selection rounds per loop of any config measured, and
 * MacroNode mode on ablation_macronode's two configs, each over the
 * full suite.
 */
TEST(Fig7Validation, RoundsHeavyAndMacroNodeResultsCheckAndSimulate)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    const MachineConfig machs[] = {
        MachineConfig::fromString("4c1b4l64r"),
        MachineConfig::fromString("4c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
    };
    PipelineOptions min_weight, macro;
    macro.mode = ReplicationMode::MacroNode;
    const PipelineOptions *opts_of[] = {&min_weight, &macro, &macro};

    std::vector<CompileService::Job> jobs;
    for (std::size_t s = 0; s < 3; ++s) {
        for (const Loop &loop : suite)
            jobs.push_back(
                CompileService::Job{&loop.ddg, &machs[s], opts_of[s]});
    }
    ASSERT_EQ(jobs.size(), 2034u);

    const auto batch = expectEveryResultValid(jobs, [&](std::size_t j) {
        return suite[j % suite.size()].name() + " on " +
               jobs[j].mach->name() +
               (jobs[j].opts == &macro ? "/macro" : "/min-weight");
    });

    // Each job set really ran the replication pass.
    for (std::size_t s = 0; s < 3; ++s) {
        std::uint64_t rounds = 0;
        for (std::size_t i = 0; i < suite.size(); ++i)
            rounds += batch.results[s * suite.size() + i]
                          .telemetry.replicationRounds;
        EXPECT_GT(rounds, 0u) << machs[s].name();
    }
}

} // namespace
} // namespace cvliw
