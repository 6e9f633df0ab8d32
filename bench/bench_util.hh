/**
 * @file
 * Shared plumbing for the benchmark harness binaries: the cached
 * 678-loop suite, sweep execution and paper-style table printing.
 * Every bench prints (a) the measured numbers and (b) the
 * corresponding claim from the paper, so paper-vs-measured can be
 * read directly from the output.
 *
 * All sweeps are blocking `compileSuite` calls on the process-wide
 * `CompileService` pool (eval/service.hh), whose workers and their
 * per-worker caches live across the many config sweeps a figure
 * bench performs; a loop that does not compile is logged once, with
 * its config and reason, and left out of the aggregates. The suite
 * itself comes from the build-generated cache file when present
 * (workloads/suite_io.hh) instead of being regenerated per process.
 */

#ifndef CVLIW_BENCH_BENCH_UTIL_HH
#define CVLIW_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "eval/runner.hh"
#include "eval/service.hh"

namespace cvliw
{
namespace benchutil
{

/** The full suite (seed 42), loaded from the cache or built once. */
const std::vector<Loop> &suite();

/** Loops of a single benchmark (view into suite()). */
std::vector<Loop> benchmarkLoops(const std::string &name);

/**
 * The compile pool every bench sweep runs on (the process-wide
 * shared service; env CVLIW_THREADS overrides its worker count).
 */
CompileService &service();

/** Run the whole suite on @p config with @p opts. */
SuiteResult run(const std::string &config,
                const PipelineOptions &opts = {});

/** Run a subset of loops. */
SuiteResult run(const std::vector<Loop> &loops,
                const std::string &config,
                const PipelineOptions &opts = {});

/** The paper's benchmark order (tomcatv ... wave5). */
const std::vector<std::string> &paperOrder();

/**
 * Print an IPC table in the layout of Figure 7: one row per
 * benchmark plus HMEAN, one column per labelled result set.
 */
void printIpcTable(const std::vector<Loop> &loops,
                   const std::vector<std::string> &labels,
                   const std::vector<SuiteResult> &results);

/** Print a one-line banner with the binary's purpose. */
void banner(const std::string &title, const std::string &paper_ref);

} // namespace benchutil
} // namespace cvliw

#endif // CVLIW_BENCH_BENCH_UTIL_HH
