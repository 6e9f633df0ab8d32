#include "bench_util.hh"

#include <cstdlib>
#include <iostream>

#include "support/strutil.hh"
#include "support/table.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace benchutil
{

const std::vector<Loop> &
suite()
{
    static const std::vector<Loop> loops = loadOrBuildSuite(42);
    return loops;
}

std::vector<Loop>
benchmarkLoops(const std::string &name)
{
    std::vector<Loop> out;
    for (const Loop &l : suite()) {
        if (l.benchmark == name)
            out.push_back(l);
    }
    return out;
}

CompileService &
service()
{
    // The process-wide pool (already sized by CVLIW_THREADS, then
    // core count): per-worker caches survive every sweep the binary
    // runs.
    return CompileService::shared();
}

SuiteResult
run(const std::string &config, const PipelineOptions &opts)
{
    return service().compileSuite(
        suite(), MachineConfig::fromString(config), opts);
}

SuiteResult
run(const std::vector<Loop> &loops, const std::string &config,
    const PipelineOptions &opts)
{
    return service().compileSuite(
        loops, MachineConfig::fromString(config), opts);
}

const std::vector<std::string> &
paperOrder()
{
    static const std::vector<std::string> order{
        "tomcatv", "swim",  "su2cor", "hydro2d", "mgrid",
        "applu",   "turb3d", "apsi",  "fpppp",   "wave5"};
    return order;
}

void
printIpcTable(const std::vector<Loop> &loops,
              const std::vector<std::string> &labels,
              const std::vector<SuiteResult> &results)
{
    TextTable table;
    std::vector<std::string> header{"benchmark"};
    header.insert(header.end(), labels.begin(), labels.end());
    table.addRow(header);

    std::vector<std::vector<double>> ipcs(results.size());
    for (std::size_t r = 0; r < results.size(); ++r) {
        const auto aggs = aggregateByBenchmark(loops, results[r]);
        for (const auto &bench : paperOrder()) {
            auto it = aggs.find(bench);
            ipcs[r].push_back(
                it == aggs.end() ? 0.0 : it->second.ipc());
        }
    }

    for (std::size_t i = 0; i < paperOrder().size(); ++i) {
        const auto &bench = paperOrder()[i];
        bool present = false;
        for (const Loop &l : loops)
            present |= (l.benchmark == bench);
        if (!present)
            continue;
        std::vector<std::string> row{bench};
        for (std::size_t r = 0; r < results.size(); ++r)
            row.push_back(fixed(ipcs[r][i], 3));
        table.addRow(row);
    }

    std::vector<std::string> hrow{"HMEAN"};
    for (std::size_t r = 0; r < results.size(); ++r)
        hrow.push_back(fixed(suiteHmeanIpc(loops, results[r]), 3));
    table.addRow(hrow);
    table.print(std::cout);
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "==================================================="
                 "=========\n"
              << title << "\n"
              << "reproduces: " << paper_ref << "\n"
              << "==================================================="
                 "=========\n";
}

} // namespace benchutil
} // namespace cvliw
