/**
 * @file
 * Suite results and their per-benchmark aggregates: `SuiteResult`
 * holds one compile result per loop (`CompileService::compileSuite`,
 * eval/service.hh, fills it), and the functions below fold it into
 * the per-benchmark IPCs and the HMEAN the figures report.
 */

#ifndef CVLIW_EVAL_RUNNER_HH
#define CVLIW_EVAL_RUNNER_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/metrics.hh"
#include "workloads/suite.hh"

namespace cvliw
{

/** Per-loop compile results, parallel to the input suite. */
struct SuiteResult
{
    std::vector<CompileResult> loops;
};

/**
 * Per-benchmark aggregates with deterministic iteration order: the
 * order benchmarks first appear in the suite (the paper's order),
 * independent of the names. Lookup by name is O(1) via a side index.
 */
class BenchmarkAggregates
{
  public:
    using value_type = std::pair<std::string, BenchmarkAggregate>;
    using const_iterator = std::vector<value_type>::const_iterator;

    const_iterator begin() const { return items_.begin(); }
    const_iterator end() const { return items_.end(); }
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

    /** Iterator to the named entry, or end(). */
    const_iterator find(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? items_.end()
                                  : items_.begin() + it->second;
    }

    /** Named entry; the benchmark must exist. */
    const BenchmarkAggregate &at(const std::string &name) const;

    /** Named entry, appended in insertion order when absent. */
    BenchmarkAggregate &operator[](const std::string &name);

  private:
    std::vector<value_type> items_;
    std::unordered_map<std::string, std::size_t> index_;
};

/** Aggregate @p results per benchmark (keyed by benchmark name). */
BenchmarkAggregates
aggregateByBenchmark(const std::vector<Loop> &suite,
                     const SuiteResult &results);

/** Benchmark IPCs in suite order (tomcatv first), plus the HMEAN. */
std::vector<std::pair<std::string, double>>
benchmarkIpcs(const std::vector<Loop> &suite, const SuiteResult &results);

/** Harmonic mean over the per-benchmark IPCs. */
double suiteHmeanIpc(const std::vector<Loop> &suite,
                     const SuiteResult &results);

} // namespace cvliw

#endif // CVLIW_EVAL_RUNNER_HH
