#include "eval/service.hh"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>

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
       std::unique_ptr<CompileCaches> &caches, std::uint64_t batch,
       CompileService::BatchResult &out)
{
    trace::TraceSpan span("service", "job");
    span.arg("batch", static_cast<long long>(batch));
    span.arg("job", static_cast<long long>(i));
    JobOutcome outcome = JobOutcome::Ok;
    std::string error;
    CompileResult res;
    try {
        res = compile(*job.ddg, *job.mach,
                      job.opts ? *job.opts : kDefaultPipelineOptions,
                      caches.get());
    } catch (const std::exception &err) {
        outcome = JobOutcome::Failed;
        error = err.what();
        if (error.empty())
            error = "unknown error";
    } catch (...) {
        outcome = JobOutcome::Failed;
        error = "non-standard exception";
    }
    if (outcome != JobOutcome::Ok) {
        // Quarantine: the throw may have unwound through a memo
        // mid-update. The memo keys make a stale hit impossible, but
        // a half-written buffer is still a liability; failure is the
        // rare path, so the rebuild costs nothing that matters.
        caches = std::make_unique<CompileCaches>();
        res = CompileResult{};
    }
    out.results[i] = std::move(res);
    out.outcomes[i] = outcome;
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
        const JobOutcome outcome = batch.outcomes[k];
        cv_warn("loop ", suite[i].name(), " failed to compile on ",
                mach.name(), ": job ", toString(outcome), ": ",
                outcome == JobOutcome::Ok ? "no schedule found"
                                          : batch.errors[k]);
    }
}

} // namespace

const char *
toString(JobOutcome outcome)
{
    switch (outcome) {
    case JobOutcome::Ok:     return "ok";
    case JobOutcome::Failed: return "failed";
    }
    return "unknown";
}

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
    auto caches = std::make_unique<CompileCaches>();
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
    for (const Job &job : jobs) {
        cv_assert(job.ddg && job.mach,
                  "compile job without a graph or machine");
    }
    BatchResult out;
    out.results.resize(jobs.size());
    out.outcomes.assign(jobs.size(), JobOutcome::Ok);
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
