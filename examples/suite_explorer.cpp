/**
 * @file
 * Suite explorer: compile one synthetic SPECfp95 benchmark across
 * machine configurations and print per-benchmark IPC, II
 * distributions and replication statistics.
 *
 * Usage: suite_explorer [benchmark] [config ...]
 *   benchmark defaults to su2cor; configs default to the paper's
 *   six plus "unified". An unknown benchmark or a malformed config
 *   name prints the error and exits 1.
 */

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/runner.hh"
#include "eval/service.hh"
#include "support/strutil.hh"
#include "support/table.hh"

using namespace cvliw;

int
main(int argc, char **argv)
try {
    std::string bench = argc > 1 ? argv[1] : "su2cor";
    std::vector<std::string> configs;
    for (int i = 2; i < argc; ++i)
        configs.push_back(argv[i]);
    if (configs.empty()) {
        configs = {"unified",   "2c1b2l64r", "2c2b4l64r",
                   "4c1b2l64r", "4c2b2l64r", "4c2b4l64r",
                   "4c4b4l64r"};
    }

    const auto loops = buildBenchmark(bench);
    std::cout << bench << ": " << loops.size()
              << " modulo-schedulable inner loops\n\n";

    TextTable table;
    table.addRow({"config", "mode", "IPC", "avg II", "avg MII",
                  "comms", "removed", "replicas", "+insns"});

    for (const auto &cfg : configs) {
        const auto m = MachineConfig::fromString(cfg);
        for (const bool replication : {false, true}) {
            if (m.isUnified() && replication)
                continue;
            PipelineOptions opts;
            opts.replication = replication;
            const auto res =
                CompileService::shared().compileSuite(loops, m, opts);
            const auto aggs = aggregateByBenchmark(loops, res);
            const auto &a = aggs.at(bench);
            table.addRow({
                cfg,
                replication ? "replication" : "baseline",
                fixed(a.ipc(), 3),
                fixed(a.iiSum / a.weight, 2),
                fixed(a.miiSum / a.weight, 2),
                fixed(a.comsInitialDyn / a.weight, 3),
                percent(a.comsRemovedFraction()),
                std::to_string(a.replicasStatic),
                percent(a.addedFraction()),
            });
        }
    }
    table.print(std::cout);

    std::cout << "\ncolumns: IPC = useful instructions/cycle; comms "
                 "= dynamic communications per useful instruction "
                 "before replication;\nremoved = fraction of "
                 "communications eliminated; +insns = dynamic "
                 "instruction increase from replicas.\n";
    return 0;
} catch (const std::invalid_argument &err) {
    std::cerr << "suite_explorer: " << err.what() << "\n";
    return 1;
}
