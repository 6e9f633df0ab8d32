/**
 * @file
 * Validates every result of Figure 7's job mix: the full 678-loop
 * suite on the six paper configs, replication off and on (8,136
 * jobs), compiled as one CompileService batch. Every job must compile
 * without error to a feasible schedule that passes checkSchedule and
 * simulates equal to the reference interpreter - not a sample - and
 * every dead slot of its graph must be one the compile removed: a
 * result's graph shares its input's records (the suite's inputs hold
 * no dead slot), and of its own it holds only live edges and nodes,
 * or replicas that replication's dead-code sweep removed again.
 *
 * More batches apply the same check to every other option set the
 * figure and ablation harnesses compile with: Figure 12's latency-0
 * bound, whose copies deliver at once (the checker and the simulator
 * take the scheduler's options), section 5.1's schedule-length
 * replication, Figure 1's runs without spill code, the 32- and
 * 128-register files and Figure 8's unified machine; and to the
 * replication paths that mix does not reach: the most selection
 * rounds per loop, and MacroNode mode (section 5.2).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "ddg/ddg.hh"
#include "eval/service.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

/**
 * The first dead slot of @p result that the compile did not remove
 * from its input @p in, empty when there is none. A result owns no
 * dead edge record, and the input's own records are all live. The
 * one dead record a result may own is a replica that replication's
 * dead-code sweep removed again: node ids stay, since the partition
 * and the schedule index them.
 */
std::string
deadSlotNotRemovedInput(const Ddg &result, const Ddg &in)
{
    for (NodeId n = 0; n < result.numNodeSlots(); ++n) {
        const DdgNode &node = result.node(n);
        if (node.alive)
            continue;
        if (n >= in.numNodeSlots()) {
            if (node.isReplica)
                continue;
            return "dead appended node slot n" + std::to_string(n) +
                   " is not a replica";
        }
        if (!in.node(n).alive)
            return "dead input node slot n" + std::to_string(n);
    }
    for (EdgeId e = 0; e < result.numEdgeSlots(); ++e) {
        if (result.edge(e).alive)
            continue;
        if (e >= in.numEdgeSlots())
            return "dead appended edge slot " + std::to_string(e);
        if (!in.edge(e).alive)
            return "dead input edge slot " + std::to_string(e);
    }
    return {};
}

/** Why job @p j of @p batch is not a valid result; empty when it is. */
std::string
invalidResult(const std::vector<CompileService::Job> &jobs,
              const CompileService::BatchResult &batch, std::size_t j)
{
    if (!batch.errors[j].empty())
        return "failed: " + batch.errors[j];
    const CompileResult &r = batch.results[j];
    if (!r.ok)
        return "no schedule found";
    // One conversion each of the result's and the input's records.
    const Ddg result(r.finalDdg);
    const Ddg input(*jobs[j].ddg);
    const std::string dead = deadSlotNotRemovedInput(result, input);
    if (!dead.empty())
        return dead;
    // simulate runs checkSchedule first, with the same options, and
    // returns its errors.
    SchedulerOptions sched;
    sched.zeroBusLatencyForLength = jobs[j].opts->zeroBusLatency;
    const auto rep = simulate(result, *jobs[j].mach, r.partition,
                              r.schedule, input, 8, 1, sched);
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

/** The six paper configs, as Figures 7 and 12 compile them. */
std::vector<MachineConfig>
paperConfigs()
{
    std::vector<MachineConfig> machs;
    for (const char *cfg : {"2c1b2l64r", "2c2b4l64r", "4c1b2l64r",
                            "4c2b4l64r", "4c2b2l64r", "4c4b4l64r"})
        machs.push_back(MachineConfig::fromString(cfg));
    return machs;
}

TEST(Fig7Validation, EveryResultChecksAndSimulates)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    const std::vector<MachineConfig> machs = paperConfigs();
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
 * Figure 12's latency-0 bound: the full suite on the six paper
 * configs with `zeroBusLatency` (4,068 jobs). A copy keeps its bus
 * slots but delivers at once, and the checker and the simulator are
 * told so.
 */
TEST(Fig7Validation, Figure12LatencyZeroResultsCheckAndSimulate)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    const std::vector<MachineConfig> machs = paperConfigs();
    PipelineOptions zero;
    zero.zeroBusLatency = true;

    std::vector<CompileService::Job> jobs;
    for (const MachineConfig &mach : machs) {
        for (const Loop &loop : suite)
            jobs.push_back(CompileService::Job{&loop.ddg, &mach, &zero});
    }
    ASSERT_EQ(jobs.size(), 4068u);

    expectEveryResultValid(jobs, [&](std::size_t j) {
        return suite[j % suite.size()].name() + " on " +
               jobs[j].mach->name() + "/latency-0";
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

/**
 * Section 5.1's schedule-length replication (fig12's heuristic
 * column): the full suite on the six paper configs (4,068 jobs). The
 * one path that freezes a graph rebuilt from copies of the pre-copy
 * graph, so the one whose `comsFinal` must be recounted, and, for the
 * sanitizer jobs, the one that copies a worker's graph several times
 * in one attempt.
 */
TEST(Fig7Validation, Section51LengthReplicationResultsCheckAndSimulate)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);
    const std::vector<MachineConfig> machs = paperConfigs();
    PipelineOptions with51;
    with51.lengthReplication = true;

    std::vector<CompileService::Job> jobs;
    for (const MachineConfig &mach : machs) {
        for (const Loop &loop : suite)
            jobs.push_back(CompileService::Job{&loop.ddg, &mach, &with51});
    }
    ASSERT_EQ(jobs.size(), 4068u);

    const auto batch = expectEveryResultValid(jobs, [&](std::size_t j) {
        return suite[j % suite.size()].name() + " on " +
               jobs[j].mach->name() + "/5.1";
    });

    // Each config's results really shortened some schedules, and
    // every result, rebuilt by section 5.1 or not, holds exactly
    // comsFinal live copies.
    for (std::size_t m = 0; m < machs.size(); ++m) {
        int saved = 0, miscounted = 0;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const CompileResult &r = batch.results[m * suite.size() + i];
            saved += r.lengthSaved;
            const Ddg g(r.finalDdg);
            int copies = 0;
            for (NodeId v : g.nodes())
                copies += g.node(v).cls == OpClass::Copy;
            miscounted += copies != r.comsFinal;
        }
        EXPECT_GT(saved, 0) << machs[m].name();
        EXPECT_EQ(miscounted, 0) << machs[m].name();
    }
}

/**
 * The remaining harness option sets (10,170 jobs): Figure 1's runs
 * without spill code, replication off and on; ablation_registers'
 * 32- and 128-register configs, replication off and on; and Figure
 * 8's unified machine.
 */
TEST(Fig7Validation, NoSpillRegisterFileAndUnifiedResultsCheckAndSimulate)
{
    const auto suite = buildSuite(42);
    ASSERT_EQ(suite.size(), 678u);

    PipelineOptions no_spill_base, no_spill_repl, base, repl;
    no_spill_base.replication = false;
    no_spill_base.spilling = false;
    no_spill_repl.spilling = false;
    base.replication = false;
    struct Set
    {
        const char *cfg;
        const PipelineOptions *opts;
        const char *label;
    };
    std::vector<Set> sets;
    for (const char *cfg : {"2c1b2l64r", "4c1b2l64r", "4c2b2l64r"}) {
        sets.push_back({cfg, &no_spill_base, "/no-spill/base"});
        sets.push_back({cfg, &no_spill_repl, "/no-spill/repl"});
    }
    for (const char *cfg :
         {"4c1b2l32r", "4c1b2l128r", "2c1b2l32r", "2c1b2l128r"}) {
        sets.push_back({cfg, &base, "/base"});
        sets.push_back({cfg, &repl, "/repl"});
    }
    sets.push_back({"unified", &repl, ""});
    std::vector<MachineConfig> machs;
    for (const Set &set : sets)
        machs.push_back(MachineConfig::fromString(set.cfg));

    std::vector<CompileService::Job> jobs;
    for (std::size_t k = 0; k < sets.size(); ++k) {
        for (const Loop &loop : suite)
            jobs.push_back(
                CompileService::Job{&loop.ddg, &machs[k], sets[k].opts});
    }
    ASSERT_EQ(jobs.size(), 10170u);

    expectEveryResultValid(jobs, [&](std::size_t j) {
        return suite[j % suite.size()].name() + " on " +
               jobs[j].mach->name() + sets[j / suite.size()].label;
    });
}

} // namespace
} // namespace cvliw
