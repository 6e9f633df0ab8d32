#include "eval/runner.hh"

#include <stdexcept>
#include <string>
#include <unordered_set>

namespace cvliw
{

const BenchmarkAggregate &
BenchmarkAggregates::at(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        throw std::invalid_argument("no aggregate for benchmark " + name);
    return items_[it->second].second;
}

BenchmarkAggregate &
BenchmarkAggregates::operator[](const std::string &name)
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        it = index_.emplace(name, items_.size()).first;
        items_.emplace_back(name, BenchmarkAggregate{});
    }
    return items_[it->second].second;
}

BenchmarkAggregates
aggregateByBenchmark(const std::vector<Loop> &suite,
                     const SuiteResult &results)
{
    if (suite.size() != results.loops.size())
        throw std::invalid_argument(
            "results hold " + std::to_string(results.loops.size()) +
            " loops, the suite " + std::to_string(suite.size()));
    BenchmarkAggregates by_bench;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (!results.loops[i].ok)
            continue;
        auto &agg = by_bench[suite[i].benchmark];
        agg.name = suite[i].benchmark;
        accumulate(agg, results.loops[i], suite[i].profile);
    }
    return by_bench;
}

std::vector<std::pair<std::string, double>>
benchmarkIpcs(const std::vector<Loop> &suite, const SuiteResult &results)
{
    const auto by_bench = aggregateByBenchmark(suite, results);

    // Preserve the paper's benchmark order (first appearance in the
    // suite, including benchmarks whose first loops failed).
    std::vector<std::pair<std::string, double>> out;
    out.reserve(by_bench.size());
    std::unordered_set<std::string> seen;
    for (const Loop &loop : suite) {
        if (!seen.insert(loop.benchmark).second)
            continue;
        auto it = by_bench.find(loop.benchmark);
        if (it != by_bench.end())
            out.emplace_back(loop.benchmark, it->second.ipc());
    }
    return out;
}

double
suiteHmeanIpc(const std::vector<Loop> &suite, const SuiteResult &results)
{
    std::vector<double> ipcs;
    for (const auto &[name, ipc] : benchmarkIpcs(suite, results)) {
        (void)name;
        ipcs.push_back(ipc);
    }
    return hmean(ipcs);
}

} // namespace cvliw
