/**
 * @file
 * Validates every result of Figure 7's job mix: the full 678-loop
 * suite on the six paper configs, replication off and on (8,136
 * jobs), compiled as one CompileService batch. Every job must end Ok
 * with a feasible schedule that passes checkSchedule and simulates
 * equal to the reference interpreter - not a sample - and its graph
 * must hold no dead edge slot (compile() compacts a changed graph;
 * an unchanged one is the input's, which has none).
 */

#include <gtest/gtest.h>

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

    const auto batch = CompileService::shared().compileBatch(jobs);
    // Why job @p j is not a valid result; empty when it is.
    const auto invalid = [&](std::size_t j) -> std::string {
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
        const auto rep = simulate(r.finalDdg, mach, r.partition,
                                  r.schedule, *jobs[j].ddg);
        if (!rep.ok)
            return "simulate: " + (rep.errors.empty() ? "mismatch"
                                                      : rep.errors.front());
        return {};
    };
    std::size_t failures = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::string why = invalid(j);
        if (!why.empty() && ++failures <= 10) {
            ADD_FAILURE() << suite[j % suite.size()].name() << " on "
                          << jobs[j].mach->name()
                          << (jobs[j].opts == &repl ? "/repl" : "/base")
                          << ": " << why;
        }
    }
    EXPECT_EQ(failures, 0u);
}

} // namespace
} // namespace cvliw
