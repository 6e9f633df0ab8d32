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
 * every job it ever runs, which is safe because every memo inside is
 * keyed on (`Ddg::generation()`, `MachineConfig::id()`).
 *
 * ## Outcomes
 *
 * Every job ends in exactly one `JobOutcome`. `Failed` carries the
 * text of whatever the compile threw: an `InvalidInput` graph, a
 * `std::invalid_argument` machine that lacks a unit kind the loop
 * needs, or `std::bad_alloc` (a failed `cv_assert` aborts the process
 * and never gets here). A non-Ok slot holds a default `CompileResult`
 * (`ok == false`): partial work is discarded, and the worker that
 * caught the throw rebuilds its `CompileCaches` before its next job
 * (quarantine), so a throw that unwound through a memo mid-update
 * cannot reach a later job. A job that throws never disturbs the
 * other jobs of its batch (tests/service_test.cc drives this path
 * with real distance-0-cycle graphs).
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
 * auto b = svc.compileBatch(jobs);              // results + outcomes
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

/** How one job of a batch ended (see "Outcomes" above). */
enum class JobOutcome : std::uint8_t
{
    Ok,     //!< compile returned; its result is in the slot
    Failed, //!< compile threw; the error holds what()
};

/** Stable lowercase name of @p outcome (for logs and tests). */
const char *toString(JobOutcome outcome);

class CompileService
{
  public:
    /** One compile job: a loop body and the machine to compile for. */
    struct Job
    {
        const Ddg *ddg = nullptr;
        const MachineConfig *mach = nullptr;
        const PipelineOptions *opts = nullptr; //!< null = defaults
    };

    /** One batch's per-job results, outcomes and errors, in job order. */
    struct BatchResult
    {
        std::vector<CompileResult> results; //!< default where not Ok
        std::vector<JobOutcome> outcomes;
        std::vector<std::string> errors; //!< empty where Ok
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
     * call. Logs nothing: callers read the outcomes.
     */
    BatchResult compileBatch(const std::vector<Job> &jobs);

    /**
     * Compile every loop of @p suite for @p mach. Logs one warning
     * per loop whose result is not ok, naming the loop, the config,
     * the outcome and the error.
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
