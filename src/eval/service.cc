#include "eval/service.hh"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>

#include "support/cpus.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace cvliw
{

namespace
{

/** Lvalue defaults for jobs without options. */
const PipelineOptions kDefaultPipelineOptions{};

/**
 * Run one job on a worker's @p caches and store its ending in slot
 * @p i of @p out. Every exception ends here, so one job's failure
 * never reaches the worker, the batch or the caller.
 */
void
runJob(const CompileService::Job &job, std::size_t i,
       CompileCaches &caches, std::uint64_t batch,
       CompileService::BatchResult &out)
{
    trace::TraceSpan span("service", "job");
    span.arg("batch", static_cast<long long>(batch));
    span.arg("job", static_cast<long long>(i));
    std::string error;
    CompileResult res;
    try {
        res = compile(*job.ddg, *job.mach,
                      job.opts ? *job.opts : kDefaultPipelineOptions,
                      &caches);
    } catch (const std::exception &err) {
        error = err.what();
        if (error.empty())
            error = "unknown error";
    } catch (...) {
        error = "non-standard exception";
    }
    // A throw leaves res as it was declared: a failed job's slot
    // holds a default result.
    out.results[i] = std::move(res);
    out.errors[i] = std::move(error);
}

/** One warning per loop of @p suite whose slot in @p batch is not ok. */
void
warnNotOk(const std::vector<Loop> &suite, const MachineConfig &mach,
          const CompileService::BatchResult &batch, std::size_t first)
{
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::size_t k = first + i;
        if (batch.results[k].ok)
            continue;
        const std::string &error = batch.errors[k];
        cv_warn("loop ", suite[i].name(), " failed to compile on ",
                mach.name(), ": ",
                error.empty() ? "no schedule found"
                              : "job failed: " + error);
    }
}

} // namespace

int
CompileService::defaultWorkerCount()
{
    if (const char *env = std::getenv("CVLIW_THREADS")) {
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(env, &end, 10);
        const bool clean = end != env && *end == '\0' &&
                           errno != ERANGE;
        if (clean && n > 0 && n <= 1 << 16)
            return static_cast<int>(n);
        // Garbage must not silently become the CPU-count default: a
        // typo ("4x", "abc", an overflow) would otherwise change the
        // pool size with no trace.
        cv_warn_once("ignoring invalid CVLIW_THREADS='", env,
                     "' (want a positive integer <= 65536); using "
                     "the usable CPU count");
    }
    return static_cast<int>(usableCpuCount());
}

CompileService::CompileService(int workers)
{
    if (workers <= 0)
        workers = defaultWorkerCount();
    workers_.reserve(static_cast<std::size_t>(workers));
    try {
        for (int w = 0; w < workers; ++w)
            workers_.emplace_back([this] { workerMain(); });
    } catch (...) {
        // Thread spawn failed (resource exhaustion): join the threads
        // that did start, then let the caller see the error.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        workCv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
        throw;
    }
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
CompileService::workerMain()
{
    CompileCaches caches;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock, [&] { return stopping_ || batch_ != seen; });
        if (stopping_)
            return;
        seen = batch_;
        const std::vector<Job> &jobs = *jobs_;
        BatchResult &out = *out_;
        lock.unlock();

        // Slots are disjoint per claimed index, so the writes need no
        // lock; the caller reads them only after every worker checked
        // out under mutex_, which orders them before its read.
        for (std::size_t i = next_.fetch_add(1); i < jobs.size();
             i = next_.fetch_add(1))
            runJob(jobs[i], i, caches, seen, out);

        lock.lock();
        if (++checkedOut_ == workers_.size())
            doneCv_.notify_one();
    }
}

CompileService::BatchResult
CompileService::compileBatch(const std::vector<Job> &jobs)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!jobs[i].ddg || !jobs[i].mach)
            throw std::invalid_argument(
                "compile job " + std::to_string(i) + " has a null " +
                (jobs[i].ddg ? "machine" : "graph"));
    }
    BatchResult out;
    out.results.resize(jobs.size());
    out.errors.resize(jobs.size());
    if (jobs.empty())
        return out;

    // Every worker checks out of every batch before the next one
    // starts, so no worker can still be claiming from a batch whose
    // jobs and slots are gone.
    std::lock_guard<std::mutex> serial(batchMutex_);
    std::unique_lock<std::mutex> lock(mutex_);
    jobs_ = &jobs;
    out_ = &out;
    next_.store(0, std::memory_order_relaxed);
    checkedOut_ = 0;
    ++batch_;
    workCv_.notify_all();
    doneCv_.wait(lock, [&] { return checkedOut_ == workers_.size(); });
    jobs_ = nullptr;
    out_ = nullptr;
    return out;
}

SuiteResult
CompileService::compileSuite(const std::vector<Loop> &suite,
                             const MachineConfig &mach,
                             const PipelineOptions &opts)
{
    std::vector<Job> jobs(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        jobs[i] = Job{&suite[i].ddg, &mach, &opts};

    BatchResult batch = compileBatch(jobs);
    warnNotOk(suite, mach, batch, 0);
    SuiteResult result;
    result.loops = std::move(batch.results);
    return result;
}

std::vector<SuiteResult>
CompileService::compileSuite(const std::vector<Loop> &suite,
                             const std::vector<MachineConfig> &machs,
                             const PipelineOptions &opts)
{
    std::vector<Job> jobs;
    jobs.reserve(suite.size() * machs.size());
    for (const MachineConfig &mach : machs) {
        for (const Loop &loop : suite)
            jobs.push_back(Job{&loop.ddg, &mach, &opts});
    }
    BatchResult batch = compileBatch(jobs);

    std::vector<SuiteResult> results(machs.size());
    for (std::size_t m = 0; m < machs.size(); ++m) {
        const std::size_t first = m * suite.size();
        warnNotOk(suite, machs[m], batch, first);
        auto begin = batch.results.begin() +
                     static_cast<std::ptrdiff_t>(first);
        results[m].loops.assign(
            std::make_move_iterator(begin),
            std::make_move_iterator(
                begin + static_cast<std::ptrdiff_t>(suite.size())));
    }
    return results;
}

CompileService &
CompileService::shared()
{
    static CompileService service;
    return service;
}

} // namespace cvliw
