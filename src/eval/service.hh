/**
 * @file
 * `CompileService`: the batch compiler every figure harness, the
 * digest tools and the benchmarks reach the worker pool through.
 *
 * ## Pool shape
 *
 * The constructor starts a fixed set of worker threads and the
 * destructor joins them; workers live as long as the service, so
 * a client that changes its own CPU affinity between batches never
 * hands a narrowed mask to a pool thread. The service runs one batch
 * at a time: a mutex serialises concurrent callers, and within a
 * batch the workers claim jobs by atomic index, in job order. Each
 * worker keeps one long-lived `CompileCaches` (core/pipeline.hh) for
 * every job it ever runs: buffers only, each re-armed before it is
 * read, so reuse recycles capacity and nothing else.
 *
 * ## Failed jobs
 *
 * A batch with a job that names no graph or no machine throws
 * `std::invalid_argument` before any job runs. Otherwise a job fails
 * exactly when its compile throws, and its error holds the text of
 * what was thrown, never empty: an `InvalidInput` graph, a
 * `std::invalid_argument` machine that lacks a unit kind the loop
 * needs, or `std::bad_alloc`. A failed job's slot holds a default
 * `CompileResult` (`ok == false`): partial work is discarded. The
 * worker keeps its `CompileCaches`: a throw can leave a buffer
 * half-written, but the next job re-arms every buffer before reading
 * it. A job that throws never disturbs the other jobs of its batch
 * (tests/service_test.cc drives this path with real
 * distance-0-cycle graphs).
 *
 * ## Determinism
 *
 * result[i] depends only on job[i], never on which worker ran it or
 * in what order, so a batch is bit-identical for any worker count
 * (tests/service_test.cc pins 1 == 2 == 8 workers;
 * tests/digest_test.cc pins the combined suite digest at 1, 4 and
 * hardware-concurrency workers).
 *
 * ## Usage
 *
 * ```
 * CompileService svc;                           // one per usable CPU
 * SuiteResult r = svc.compileSuite(suite, mach);
 * auto rs = svc.compileSuite(suite, configs);   // one batch, n configs
 * auto b = svc.compileBatch(jobs);              // results + errors
 * CompileService::shared().compileSuite(...);   // process-wide pool
 * ```
 */

#ifndef CVLIW_EVAL_SERVICE_HH
#define CVLIW_EVAL_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "eval/runner.hh"
#include "workloads/suite.hh"

namespace cvliw
{

class CompileService
{
  public:
    /**
     * One compile job: a loop body and the machine to compile for.
     * The body is records at rest, as a suite loop holds it, and
     * passes to compile() as it is, so a result shares its blocks (see
     * "Graphs at rest" in ddg/ddg.hh). A hand-built graph becomes a
     * job's records through `DdgRecords(const Ddg &)`.
     */
    struct Job
    {
        const DdgRecords *ddg = nullptr;
        const MachineConfig *mach = nullptr;
        const PipelineOptions *opts = nullptr; //!< null = defaults
    };

    /**
     * One batch's per-job results and errors, in job order. Job i
     * failed iff errors[i] is not empty (see "Failed jobs" above).
     */
    struct BatchResult
    {
        std::vector<CompileResult> results; //!< default where failed
        std::vector<std::string> errors;    //!< empty where not failed
    };

    /**
     * Pool size a default-constructed service uses: the CVLIW_THREADS
     * environment variable, else the CPUs the calling thread may run
     * on (support/cpus.hh). An unparsable or out-of-range
     * CVLIW_THREADS (trailing junk, overflow, non-positive) is
     * ignored with a once-per-process warning.
     */
    static int defaultWorkerCount();

    /**
     * Start the worker pool.
     * @param workers thread count; <= 0 picks defaultWorkerCount()
     */
    explicit CompileService(int workers = 0);

    /** Joins the workers; no batch may be running. */
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    int numWorkers() const { return static_cast<int>(workers_.size()); }

    /**
     * Compile @p jobs and block until every job has ended. The
     * pointed-to graphs, configs and options are borrowed for the
     * call. Logs nothing: callers read the errors.
     * @throws std::invalid_argument, naming the job index, before any
     *         job runs, if a job's graph or machine is null
     */
    BatchResult compileBatch(const std::vector<Job> &jobs);

    /**
     * Compile every loop of @p suite for @p mach. Logs one warning
     * per loop whose result is not ok, naming the loop, the config
     * and the job's error, or that no schedule was found.
     */
    SuiteResult compileSuite(const std::vector<Loop> &suite,
                             const MachineConfig &mach,
                             const PipelineOptions &opts = {});

    /**
     * Compile every loop of @p suite for every config of @p machs as
     * one batch (config-major order), so the pool crosses config
     * boundaries without a barrier; the per-config results are
     * returned in @p machs order. Logs like the overload above.
     */
    std::vector<SuiteResult>
    compileSuite(const std::vector<Loop> &suite,
                 const std::vector<MachineConfig> &machs,
                 const PipelineOptions &opts = {});

    /**
     * Process-wide service, created on first use and sized like
     * `CompileService(0)`. Every binary that just wants "compile this
     * suite fast" shares this pool and its warmed-up caches.
     */
    static CompileService &shared();

  private:
    void workerMain();

    /** Serialises compileBatch callers: one batch at a time. */
    std::mutex batchMutex_;

    // The running batch, published to the workers under mutex_.
    std::mutex mutex_;
    std::condition_variable workCv_; //!< workers: new batch or stop
    std::condition_variable doneCv_; //!< caller: every worker checked out
    const std::vector<Job> *jobs_ = nullptr;
    BatchResult *out_ = nullptr;
    std::uint64_t batch_ = 0;    //!< batches started so far
    std::size_t checkedOut_ = 0; //!< workers done with the batch
    bool stopping_ = false;

    /** Next unclaimed job of the running batch. */
    std::atomic<std::size_t> next_{0};

    std::vector<std::thread> workers_;
};

} // namespace cvliw

#endif // CVLIW_EVAL_SERVICE_HH
