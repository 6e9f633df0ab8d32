/**
 * @file
 * Closed-loop compile benchmark. One client compiles a fixed job mix
 * - (loop, machine config, pipeline options) triples - pass after
 * pass through the library's public API, validates every result and
 * prints the end-to-end metrics. With `--trace 1` it instead prints
 * the per-layer ledger: each job is driven through the layers'
 * public functions in compile()'s order, with one benchmark-owned
 * span per call, and the spans are written as Chrome-trace JSON.
 * Compile wall time is printed but not reported: the host's speed
 * phases move it more than a bound may allow. README.md beside this
 * file defines every metric and workload.
 *
 *   compile_bench --workload W --seed N --seconds S --trace 0|1
 *                 [--trace-out PATH]
 *   compile_bench --self-test
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is 0 only
 * when every job passed the correctness gate.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "core/spill.hh"
#include "eval/digest.hh"
#include "eval/runner.hh"
#include "eval/service.hh"
#include "machine/config.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite_io.hh"

using namespace cvliw;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

// --- statistics ------------------------------------------------------

/** Median of @p v (mean of the middle pair for an even count). */
double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double upper = v[mid];
    if (v.size() % 2 == 1)
        return upper;
    return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2;
}

/** Samples a reported percentile must leave above itself. */
constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank @p pct percentile of @p v. Refuses (throws
 * std::domain_error) when fewer than kMinBeyond samples lie above
 * the rank: a tail figure resting on a handful of samples is noise.
 */
double
percentile(std::vector<double> v, double pct)
{
    const std::size_t n = v.size();
    if (n == 0 || !(pct > 0.0 && pct <= 100.0))
        throw std::domain_error("percentile out of range");
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::max<std::size_t>(rank, 1);
    if (n - rank < kMinBeyond) {
        throw std::domain_error(
            "p" + std::to_string(pct) + " of " + std::to_string(n) +
            " samples leaves " + std::to_string(n - rank) +
            " beyond it; at least " + std::to_string(kMinBeyond) +
            " are required");
    }
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

// --- metrics ---------------------------------------------------------

/** Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) ||
               ch == '_' || ch == '.' || ch == '-';
    });
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; //!< sample count or base, printed beside it
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Print the metric table and the final JSON line. */
void
report(const std::vector<Metric> &metrics, bool correct,
       std::size_t attempted, std::size_t failed)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        if (!validMetricName(m.name))
            throw std::logic_error("bad metric name '" + m.name + "'");
        std::printf("  %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
        json += first ? "" : ", ";
        json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// --- benchmark-owned spans --------------------------------------------

/** Span names; every one lives in the benchmark's own category. */
enum Layer : int
{
    kJob,
    kMii,
    kPartitionInitial,
    kRefine,
    kDdgCopy,
    kReplicate,
    kComms,
    kCopies,
    kSchedule,
    kSpill,
    kCheck,
    kSimulate,
    kBatch,
    kNumLayers
};

constexpr const char *kLayerNames[kNumLayers] = {
    "job",          "sched.mii",      "partition.initial",
    "partition.refine", "ddg.copy",   "core.replicate",
    "sched.comms",  "sched.copies",   "sched.schedule",
    "core.spill",   "vliw.check",     "vliw.simulate",
    "eval.batch"};

constexpr const char *kTraceCategory = "compile_bench";

struct Span
{
    int layer = kJob;
    int parent = -1;        //!< index of the enclosing span, -1 at top
    std::int64_t job = -1;  //!< job index, -1 outside any job
    double startUs = 0.0;   //!< since the tracer's epoch
    double endUs = 0.0;
};

/** In-memory span log of one thread; written out at the end. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    void setJob(std::int64_t job) { job_ = job; }

    int
    open(int layer)
    {
        spans_.push_back(Span{layer, open_, job_, nowUs(), 0.0});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    close(int index)
    {
        spans_[static_cast<std::size_t>(index)].endUs = nowUs();
        open_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    /** Add a finished span measured elsewhere (no parent). */
    void
    add(int layer, Clock::time_point t0, Clock::time_point t1)
    {
        spans_.push_back(Span{layer, -1, -1, usAt(t0), usAt(t1)});
    }

    const std::vector<Span> &spans() const { return spans_; }

    void
    clear()
    {
        spans_.clear();
        open_ = -1;
        job_ = -1;
    }

  private:
    double usAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }
    double nowUs() const { return usAt(Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int open_ = -1;
    std::int64_t job_ = -1;
};

/** One span around a scope. */
class Scope
{
  public:
    Scope(Tracer &tracer, int layer)
        : tracer_(tracer), index_(tracer.open(layer))
    {
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Run @p f inside one span; its result is returned without a copy. */
template <class F>
auto
traced(Tracer &tracer, int layer, F &&f)
{
    const Scope scope(tracer, layer);
    return f();
}

/**
 * Self time per layer in ms: each span's duration less the part its
 * direct children cover (children never overlap: one thread).
 */
std::vector<double>
selfMs(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endUs - spans[i].startUs;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self.at(static_cast<std::size_t>(s.parent)) -=
                s.endUs - s.startUs;
    }
    std::vector<double> by_layer(kNumLayers, 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_layer[static_cast<std::size_t>(spans[i].layer)] +=
            self[i] / 1000.0;
    return by_layer;
}

/** Total duration of every span of @p layer, in ms. */
double
totalMs(const std::vector<Span> &spans, int layer)
{
    double sum = 0.0;
    for (const Span &s : spans) {
        if (s.layer == layer)
            sum += (s.endUs - s.startUs) / 1000.0;
    }
    return sum;
}

/** Jobs whose spans go to the JSON file, evenly spaced over a pass. */
constexpr std::size_t kTraceJobs = 64;

/**
 * Write @p spans as Chrome-trace JSON (Perfetto loads it): every
 * span outside a job, and every span of kTraceJobs of the @p jobs.
 */
void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 std::size_t jobs)
{
    const auto stride =
        static_cast<std::int64_t>(std::max<std::size_t>(1, jobs / kTraceJobs));
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace '" + path + "'");
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":1,\"args\":{\"name\":\"compile_bench\"}}";
    char buf[256];
    for (const Span &s : spans) {
        if (s.job >= 0 && s.job % stride != 0)
            continue;
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"job\":%lld}}",
                      kLayerNames[s.layer], kTraceCategory, s.startUs,
                      s.endUs - s.startUs,
                      static_cast<long long>(s.job));
        out << buf;
    }
    out << "\n]}\n";
    if (!out.flush())
        throw std::runtime_error("short write to '" + path + "'");
}

// --- CPU rotation ----------------------------------------------------

/**
 * Moves the calling thread round robin over the CPUs it may use, at
 * most every kRotateMs, and restores its CPU mask when destroyed. On
 * the reference host a single thread's speed drifts for minutes at a
 * time on whichever vCPU the scheduler leaves it (README.md, host
 * facts); visiting every vCPU in turn averages each run over all of
 * them.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() { release(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move on when kRotateMs have passed since the last move. */
    void
    tick(Clock::time_point now)
    {
        if (msBetween(last_, now) >= kRotateMs)
            move();
    }

    /** Move to the next CPU now. */
    void
    move()
    {
        if (cpus_.empty())
            return;
        last_ = Clock::now();
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /**
     * Give the thread its whole CPU mask back until the next move, so
     * threads it starts (pool workers) inherit the full mask.
     */
    void
    release()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

  private:
    static constexpr double kRotateMs = 100.0;

    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    Clock::time_point last_;
};

// --- workloads -------------------------------------------------------

const std::vector<std::string> kPaperConfigs = {
    "2c1b2l64r", "2c2b4l64r", "4c1b2l64r",
    "4c2b4l64r", "4c2b2l64r", "4c4b4l64r"};

struct Workload
{
    std::string name;
    std::vector<std::string> configs;
    std::vector<bool> replication; //!< one sweep per (config, value)
    int workers; //!< CompileService workers; 0 = the client compiles
    int suites;  //!< 678-loop suites generated from the seed
};

/**
 * The three job mixes; README.md says why each exists. fig7-batch's
 * pool size is fixed, never taken from nproc or CVLIW_THREADS.
 * unified compiles 16 suites: one suite's unified cost hangs on a
 * dozen spill-heavy loops, so with one suite its time moves ~15 %
 * from seed to seed.
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"suite-repl", kPaperConfigs, {true}, 0, 1},
        {"unified", {"unified", "unified32r"}, {true}, 0, 16},
        {"fig7-batch", kPaperConfigs, {false, true}, 2, 1},
    };
    return all;
}

/**
 * Seed of the @p i-th suite of a run: the run's own seed first (so
 * seed 42 maps the build's suite cache), then steps of the 64-bit
 * golden ratio away from it.
 */
std::uint64_t
suiteSeed(std::uint64_t seed, int i)
{
    return seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
}

/** One (machine config, options) pair, compiled over the whole suite. */
struct Sweep
{
    MachineConfig mach;
    PipelineOptions opts;
    std::string name;
};

struct Setup
{
    std::vector<Loop> suite;   //!< every generated suite, concatenated
    std::size_t suiteLoops = 0; //!< loops per generated suite
    std::vector<Sweep> sweeps;
    std::unique_ptr<CompileService> service; //!< pool workloads only
    double loadMs = 0.0;

    std::size_t jobs() const { return suite.size() * sweeps.size(); }
};

/** Suite load, config parsing and pool start. */
std::unique_ptr<Setup>
setUp(const Workload &w, std::uint64_t seed, CpuRotation &cpus)
{
    auto s = std::make_unique<Setup>();
    const Clock::time_point t0 = Clock::now();
    s->suite = loadOrBuildSuite(seed);
    s->suiteLoops = s->suite.size();
    for (int i = 1; i < w.suites; ++i) {
        std::vector<Loop> more = buildSuite(suiteSeed(seed, i));
        std::move(more.begin(), more.end(), std::back_inserter(s->suite));
    }
    s->loadMs = msSince(t0);
    for (const std::string &cfg : w.configs) {
        for (bool repl : w.replication) {
            PipelineOptions opts;
            opts.replication = repl;
            s->sweeps.push_back(Sweep{MachineConfig::fromString(cfg), opts,
                                      cfg + (repl ? "/repl" : "/base")});
        }
    }
    if (w.workers > 0) {
        cpus.release();
        s->service = std::make_unique<CompileService>(w.workers);
    }
    return s;
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 8;

/**
 * Repeat the set-up, each time on the next CPU, keep the last one and
 * report the median time.
 */
std::unique_ptr<Setup>
repeatedSetUp(const Workload &w, std::uint64_t seed, CpuRotation &cpus,
              double &setup_s, double &load_ms)
{
    std::vector<double> total, load;
    std::unique_ptr<Setup> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset();
        cpus.move();
        const Clock::time_point t0 = Clock::now();
        s = setUp(w, seed, cpus);
        total.push_back(msSince(t0) / 1000.0);
        load.push_back(s->loadMs);
    }
    setup_s = median(total);
    load_ms = median(load);
    return s;
}

// --- timed passes ----------------------------------------------------


struct Interval
{
    Clock::time_point start;
    Clock::time_point end;

    double ms() const { return msBetween(start, end); }
};

struct Pass
{
    std::vector<SuiteResult> results; //!< one per sweep
    std::vector<double> jobMs;        //!< per job (sweep-major)
    std::vector<Interval> batches;    //!< per compileSuite call
    double seconds = 0.0;
};

/**
 * One pass: every job compiled once. The previous pass's results are
 * released before the clock starts, so the run holds one pass's
 * results at a time, as a figure harness holds its SuiteResults.
 */
void
runPass(Setup &s, CompileCaches &caches, CpuRotation &cpus, Pass &p)
{
    // Passes repeat identical jobs, which a harness never does; a new
    // generation stops generation-keyed memos from carrying work over.
    for (Loop &loop : s.suite)
        loop.ddg.bumpGeneration();
    p.results.resize(s.sweeps.size());
    for (SuiteResult &r : p.results) {
        r.loops.clear();
        r.loops.reserve(s.suite.size());
    }
    p.jobMs.assign(s.jobs(), 0.0);
    p.batches.clear();

    const std::size_t n = s.suite.size();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < s.sweeps.size(); ++k) {
        const Sweep &sw = s.sweeps[k];
        if (s.service) {
            const Clock::time_point b0 = Clock::now();
            p.results[k] = s.service->compileSuite(s.suite, sw.mach, sw.opts);
            p.batches.push_back(Interval{b0, Clock::now()});
            continue;
        }
        std::vector<CompileResult> &out = p.results[k].loops;
        for (std::size_t i = 0; i < n; ++i) {
            const Clock::time_point j0 = Clock::now();
            out.push_back(compile(s.suite[i].ddg, sw.mach, sw.opts, &caches));
            const Clock::time_point j1 = Clock::now();
            p.jobMs[k * n + i] = msBetween(j0, j1);
            cpus.tick(j1);
        }
    }
    p.seconds = msSince(t0) / 1000.0;

    if (s.service) {
        // The pool gives no per-job hook from outside: its workers'
        // compile() timings come from the pipeline's own telemetry.
        for (std::size_t k = 0; k < s.sweeps.size(); ++k) {
            for (std::size_t i = 0; i < n; ++i)
                p.jobMs[k * n + i] =
                    p.results[k].loops[i].telemetry.totalMs;
        }
    }
}

const CompileResult &
jobResult(const Setup &s, const Pass &p, std::size_t job)
{
    const std::size_t n = s.suite.size();
    return p.results[job / n].loops[job % n];
}

std::string
jobName(const Setup &s, std::size_t job)
{
    const std::size_t n = s.suite.size();
    const std::size_t loop = job % n;
    return "suite " + std::to_string(loop / s.suiteLoops) + " " +
           s.suite[loop].name() + " on " + s.sweeps[job / n].name;
}

// --- correctness gate ------------------------------------------------

/**
 * Every job of the first pass must compile, pass checkSchedule and
 * simulate equal to the reference interpreter; every later pass must
 * reproduce its result digest. A job that ever fails stays failed.
 */
class Gate
{
  public:
    /** Validate the first pass, one span per check and simulation. */
    void
    validate(const Setup &s, const Pass &p, Tracer &tracer)
    {
        const std::size_t jobs = s.jobs();
        digest_.assign(jobs, 0);
        failure_.assign(jobs, std::string());
        for (std::size_t j = 0; j < jobs; ++j) {
            const CompileResult &r = jobResult(s, p, j);
            const Loop &loop = s.suite[j % s.suite.size()];
            const MachineConfig &mach =
                s.sweeps[j / s.suite.size()].mach;
            ResultDigest d;
            mixCompileResult(d, r);
            digest_[j] = d.h;
            if (!r.ok) {
                failure_[j] = "did not compile";
                continue;
            }
            tracer.setJob(static_cast<std::int64_t>(j));
            const std::vector<std::string> errs = traced(tracer, kCheck, [&] {
                return checkSchedule(r.finalDdg, mach, r.partition,
                                     r.schedule);
            });
            if (!errs.empty()) {
                failure_[j] = "checkSchedule: " + errs.front();
                continue;
            }
            const SimulationReport rep = traced(tracer, kSimulate, [&] {
                return simulate(r.finalDdg, mach, r.partition, r.schedule,
                                loop.ddg);
            });
            valuesChecked_ += rep.valuesChecked;
            if (!rep.ok) {
                failure_[j] = "simulate: " + (rep.errors.empty()
                                                  ? std::string("mismatch")
                                                  : rep.errors.front());
            }
        }
        tracer.setJob(-1);
    }

    /** Compare a later pass's digests with the validated ones. */
    void
    compare(const Setup &s, const Pass &p, int pass_no)
    {
        for (std::size_t j = 0; j < digest_.size(); ++j) {
            ResultDigest d;
            mixCompileResult(d, jobResult(s, p, j));
            if (d.h != digest_[j])
                fail(j, "digest changed in pass " + std::to_string(pass_no));
        }
    }

    /** Mark job @p j failed, unless it already is. */
    void
    fail(std::size_t j, const std::string &why)
    {
        if (failure_[j].empty())
            failure_[j] = why;
    }

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(
            std::count_if(failure_.begin(), failure_.end(),
                          [](const std::string &f) { return !f.empty(); }));
    }

    /** Print every failing job to stderr. */
    void
    printFailures(const Setup &s) const
    {
        for (std::size_t j = 0; j < failure_.size(); ++j) {
            if (!failure_[j].empty()) {
                std::fprintf(stderr, "FAIL %s: %s\n",
                             jobName(s, j).c_str(), failure_[j].c_str());
            }
        }
    }

    long long valuesChecked() const { return valuesChecked_; }

  private:
    std::vector<std::uint64_t> digest_;
    std::vector<std::string> failure_;
    long long valuesChecked_ = 0;
};

// --- deterministic figures -------------------------------------------

struct Quality
{
    double hmeanIpc = 0.0;       //!< geomean over sweeps of Fig-7 HMEAN
    double iiPerMii = 0.0;       //!< dynamic-weighted II / MII
    double insnsPerUseful = 0.0; //!< 1 + Figure 10's added fraction
};

Quality
quality(const Setup &s, const Pass &p)
{
    double log_sum = 0.0;
    BenchmarkAggregate all;
    for (std::size_t k = 0; k < s.sweeps.size(); ++k) {
        log_sum += std::log(suiteHmeanIpc(s.suite, p.results[k]));
        for (std::size_t i = 0; i < s.suite.size(); ++i) {
            const CompileResult &r = p.results[k].loops[i];
            if (r.ok)
                accumulate(all, r, s.suite[i].profile);
        }
    }
    Quality q;
    q.hmeanIpc = std::exp(log_sum / static_cast<double>(s.sweeps.size()));
    q.iiPerMii = all.iiSum / all.miiSum;
    q.insnsPerUseful = 1.0 + all.addedFraction();
    return q;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// --- the timed run ---------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

int
timedRun(const Workload &w, const Args &a)
{
    CpuRotation cpus;
    double setup_s = 0.0, load_ms = 0.0;
    std::unique_ptr<Setup> s =
        repeatedSetUp(w, a.seed, cpus, setup_s, load_ms);
    const std::size_t jobs = s->jobs();

    CompileCaches caches;
    Pass pass;
    Gate gate;
    Quality q;
    std::vector<std::vector<double>> samples(jobs);
    std::vector<double> pass_s;
    double total_s = 0.0;
    int passes = 0;
    // At least two passes, so every digest is compared at least once.
    while (passes < 2 || total_s < a.seconds) {
        runPass(*s, caches, cpus, pass);
        ++passes;
        total_s += pass.seconds;
        pass_s.push_back(pass.seconds);
        for (std::size_t j = 0; j < jobs; ++j)
            samples[j].push_back(pass.jobMs[j]);
        if (passes == 1) {
            Tracer unused(Clock::now());
            gate.validate(*s, pass, unused);
            q = quality(*s, pass);
        } else {
            gate.compare(*s, pass, passes);
        }
    }

    std::vector<double> per_job(jobs);
    for (std::size_t j = 0; j < jobs; ++j)
        per_job[j] = median(samples[j]);
    const std::size_t failed = gate.failed();
    const std::string per_pass =
        std::to_string(jobs) + " jobs/pass, " + std::to_string(passes) +
        " passes";

    std::printf("workload %s seed %llu: %s, %.3f s timed\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                per_pass.c_str(), total_s);
    std::printf("pass seconds:");
    for (double p : pass_s)
        std::printf(" %.3f", p);
    std::printf("\n");
    // Printed, not reported: the host's speed phases move compile wall
    // time between runs by more than any allowed bound (README.md).
    const std::vector<Metric> wall = {
        {"loops_per_s", static_cast<double>(jobs) * passes / total_s, "1/s",
         per_pass},
        {"compile_ms_p50", percentile(per_job, 50), "ms",
         std::to_string(jobs) + " per-job medians"},
        {"compile_ms_p99", percentile(per_job, 99), "ms",
         std::to_string(jobs) + " per-job medians"},
    };
    for (const Metric &m : wall) {
        std::printf("  %-28s %16.6f %-8s %s (not gated)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
    }
    gate.printFailures(*s);
    const std::vector<Metric> metrics = {
        {"setup_s", setup_s, "s",
         "median of " + std::to_string(kSetupReps) + " set-ups"},
        {"peak_rss_mb", peakRssMb(), "MiB", "ru_maxrss"},
        {"hmean_ipc", q.hmeanIpc, "IPC",
         "simulated; geomean of " + std::to_string(s->sweeps.size()) +
             " sweeps"},
        {"ii_per_mii", q.iiPerMii, "ratio", "dynamic-weighted"},
        {"insns_per_useful", q.insnsPerUseful, "ratio", "dynamic"},
        {"ok_frac",
         static_cast<double>(jobs - failed) / static_cast<double>(jobs),
         "fraction", std::to_string(jobs - failed) + "/" +
                         std::to_string(jobs) + " jobs"},
    };
    report(metrics, failed == 0, jobs, failed);
    return failed == 0 ? 0 : 1;
}

// --- the traced run --------------------------------------------------

/** Layer work counted by the replay over one pass. */
struct Counts
{
    std::uint64_t probes = 0;
    std::uint64_t commits = 0;
    std::uint64_t refineCalls = 0;
    std::uint64_t replicateRounds = 0;
    std::uint64_t iiAttempts = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t scheduleFails = 0;
    std::uint64_t copies = 0; //!< copies in the successful attempts
};

/** What the replay reached for one job; compared with compile(). */
struct Replay
{
    bool ok = false;
    int ii = 0;
    int comsFinal = 0;
    int spills = 0;
};

/** compileImpl's capacity check, through Partition::usage. */
bool
capacityOk(const Ddg &ddg, const MachineConfig &mach,
           const Partition &part, int ii)
{
    const auto usage = part.usage(ddg, mach);
    for (std::size_t k = 0; k < usage.size(); ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < mach.numClusters(); ++c) {
            const int used = usage[k][static_cast<std::size_t>(c)];
            if (used != 0 && used > mach.available(kind) * ii)
                return false;
        }
    }
    return true;
}

/**
 * Drive one job through the layers' public functions in compile()'s
 * order, one span per call. This copies the control flow of
 * compileImpl (core/pipeline.cc) for options with lengthReplication
 * off and no deadline; replay_match_frac checks it still agrees.
 */
Replay
replayJob(const Ddg &original, const MachineConfig &mach,
          const PipelineOptions &opts, CompileCaches &caches,
          Tracer &tracer, Counts &counts)
{
    const Scope job_span(tracer, kJob);
    const std::uint64_t probes0 = caches.pseudo.probeCount();
    const std::uint64_t commits0 = caches.pseudo.commitCount();
    Replay out;
    const auto finish = [&] {
        counts.probes += caches.pseudo.probeCount() - probes0;
        counts.commits += caches.pseudo.commitCount() - commits0;
        return out;
    };

    const int mii =
        traced(tracer, kMii, [&] { return minimumIi(original, mach); });
    PartitionResult pr = traced(tracer, kPartitionInitial, [&] {
        return multilevelPartition(original, mach, mii, &caches.pseudo);
    });
    SchedulerOptions sched_opts;
    sched_opts.zeroBusLatencyForLength = opts.zeroBusLatency;
    int reg_stagnation = 0;
    int best_worst_live = INT_MAX;

    for (int ii = mii; ii <= opts.maxIi; ++ii) {
        ++counts.iiAttempts;
        if (ii > mii) {
            ++counts.refineCalls;
            pr.partition = traced(tracer, kRefine, [&] {
                return refinePartition(original, mach, pr.partition, ii,
                                       &caches.pseudo);
            });
        }
        Ddg work = traced(tracer, kDdgCopy, [&] { return Ddg(original); });
        Partition part = pr.partition;
        ReplicationStats rstats;

        if (!mach.isUnified()) {
            bool repl_ok = true;
            if (opts.replication) {
                repl_ok = traced(tracer, kReplicate, [&] {
                    return reduceCommunications(work, part, mach, ii,
                                                &rstats, opts.mode,
                                                &pr.hierarchy,
                                                &caches.subgraph);
                });
                counts.replicateRounds +=
                    static_cast<std::uint64_t>(rstats.roundsConsidered);
            } else {
                rstats.comsInitial = traced(tracer, kComms, [&] {
                    return findCommunications(work, part.vec()).count();
                });
            }
            int coms = 0;
            bool bus_ok = false, cap_ok = false;
            {
                const Scope span(tracer, kComms);
                coms = findCommunications(work, part.vec()).count();
                bus_ok = repl_ok && extraComs(coms, mach, ii) <= 0;
                cap_ok = bus_ok && capacityOk(work, mach, part, ii);
            }
            if (!bus_ok || !cap_ok)
                continue;
            out.comsFinal = coms;
        } else {
            out.comsFinal = 0;
        }

        traced(tracer, kDdgCopy, [&] { work.compact(); });
        // compile() keeps the pre-copy graph for section-5.1
        // replication; the copy is part of its cost either way.
        const Ddg pre_copy =
            traced(tracer, kDdgCopy, [&] { return Ddg(work); });
        const Partition pre_copy_part = part;

        const CopyInsertion copies = traced(
            tracer, kCopies, [&] { return insertCopies(work, part, mach); });
        const auto schedule = [&] {
            ++counts.scheduleCalls;
            ScheduleAttempt a = traced(tracer, kSchedule, [&] {
                return scheduleAtIi(work, mach, part, ii, sched_opts,
                                    &caches.sched);
            });
            counts.scheduleFails += a.ok ? 0 : 1;
            return a;
        };
        ScheduleAttempt attempt = schedule();

        int spills_done = 0;
        int spill_budget = opts.spilling ? 4 * mach.numClusters() + 8 : 0;
        while (!attempt.ok && attempt.cause == FailCause::Registers &&
               spill_budget-- > 0 &&
               traced(tracer, kSpill, [&] {
                   return spillOneValue(work, part, mach, attempt.sched);
               })) {
            ++spills_done;
            attempt = schedule();
        }

        if (!attempt.ok) {
            if (attempt.cause == FailCause::Registers &&
                !attempt.sched.maxLive.empty()) {
                const int worst = *std::max_element(
                    attempt.sched.maxLive.begin(),
                    attempt.sched.maxLive.end());
                if (worst < best_worst_live) {
                    best_worst_live = worst;
                    reg_stagnation = 0;
                } else if (++reg_stagnation >=
                           opts.registerStagnationLimit) {
                    return finish();
                }
            } else {
                reg_stagnation = 0;
            }
            continue;
        }

        out.ok = true;
        out.ii = ii;
        out.spills = spills_done;
        counts.copies += copies.copies.size();
        Ddg final_ddg = std::move(work);
        traced(tracer, kDdgCopy, [&] { final_ddg.compact(); });
        return finish();
    }
    return finish();
}

/** Figures read from compile()'s own results over one pass. */
struct ResultCounts
{
    std::uint64_t comsRemoved = 0;
    std::uint64_t replicasAdded = 0;
    std::uint64_t spills = 0;
    std::uint64_t firstIi = 0;
    std::uint64_t bumps[5] = {}; //!< by FailCause
    std::uint64_t finalNodes = 0;
    std::uint64_t inputNodes = 0;
};

ResultCounts
resultCounts(const Setup &s, const Pass &p)
{
    ResultCounts c;
    for (std::size_t j = 0; j < s.jobs(); ++j) {
        const CompileResult &r = jobResult(s, p, j);
        for (FailCause cause : r.iiIncreases)
            ++c.bumps[static_cast<std::size_t>(cause)];
        if (!r.ok)
            continue;
        c.comsRemoved += static_cast<std::uint64_t>(r.repl.comsRemoved);
        c.replicasAdded += static_cast<std::uint64_t>(r.repl.replicasAdded);
        c.spills += static_cast<std::uint64_t>(r.spills);
        c.firstIi += r.iiIncreases.empty() ? 1 : 0;
        c.finalNodes += static_cast<std::uint64_t>(r.finalDdg.numNodes());
        c.inputNodes += static_cast<std::uint64_t>(
            s.suite[j % s.suite.size()].ddg.numNodes());
    }
    return c;
}

/** One untraced pass followed by one traced pass. */
struct Round
{
    std::vector<double> selfMs;  //!< per layer
    double compileMs = 0.0;      //!< untraced pass: sum of job times
    double jobMs = 0.0;          //!< traced pass: sum of job spans
    double batchWallMs = 0.0;    //!< sum over compileSuite calls
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
tracedRun(const Workload &w, const Args &a)
{
    CpuRotation cpus;
    double setup_s = 0.0, load_ms = 0.0;
    std::unique_ptr<Setup> s =
        repeatedSetUp(w, a.seed, cpus, setup_s, load_ms);
    const std::size_t jobs = s->jobs();
    const std::size_t n = s->suite.size();

    Tracer tracer(Clock::now());
    CompileCaches caches;
    CompileCaches pool_caches; // the replay's, on pool workloads
    Pass pass;
    Gate gate;
    Counts counts;
    ResultCounts rc;
    std::vector<Round> rounds;
    std::vector<double> batch_ms;
    std::vector<bool> replay_ok(jobs, true);
    std::vector<Span> first_round_spans;
    double elapsed_s = 0.0;

    while (rounds.empty() || elapsed_s < a.seconds) {
        const Clock::time_point r0 = Clock::now();
        Round round;
        runPass(*s, caches, cpus, pass);
        for (double ms : pass.jobMs)
            round.compileMs += ms;
        for (const Interval &b : pass.batches) {
            batch_ms.push_back(b.ms());
            round.batchWallMs += b.ms();
            tracer.add(kBatch, b.start, b.end);
        }
        if (!s->service) {
            // The client's own batch is one sweep: its jobs' summed time.
            for (std::size_t k = 0; k < s->sweeps.size(); ++k) {
                double sweep_ms = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    sweep_ms += pass.jobMs[k * n + i];
                batch_ms.push_back(sweep_ms);
            }
        }
        if (rounds.empty()) {
            gate.validate(*s, pass, tracer);
            rc = resultCounts(*s, pass);
        } else {
            gate.compare(*s, pass, static_cast<int>(rounds.size()) + 1);
        }

        // The traced pass: same jobs, fresh generations, the replay
        // in place of compile().
        for (Loop &loop : s->suite)
            loop.ddg.bumpGeneration();
        CompileCaches &replay_caches = s->service ? pool_caches : caches;
        Counts pass_counts;
        std::vector<Replay> replays(jobs);
        for (std::size_t j = 0; j < jobs; ++j) {
            const Sweep &sw = s->sweeps[j / n];
            tracer.setJob(static_cast<std::int64_t>(j));
            replays[j] = replayJob(s->suite[j % n].ddg, sw.mach, sw.opts,
                                   replay_caches, tracer, pass_counts);
            cpus.tick(Clock::now());
        }
        tracer.setJob(-1);

        // Batch and validation spans have layers of their own, so the
        // whole round's log gives every layer's self time at once.
        round.selfMs = selfMs(tracer.spans());
        round.jobMs = totalMs(tracer.spans(), kJob);

        for (std::size_t j = 0; j < jobs; ++j) {
            const CompileResult &r = jobResult(*s, pass, j);
            const Replay &d = replays[j];
            if (d.ok != r.ok ||
                (r.ok && (d.ii != r.ii || d.comsFinal != r.comsFinal ||
                          d.spills != r.spills))) {
                replay_ok[j] = false;
                gate.fail(j, "the traced replay disagrees with compile()");
            }
        }
        if (rounds.empty()) {
            counts = pass_counts;
            first_round_spans = tracer.spans();
        }
        tracer.clear();
        rounds.push_back(std::move(round));
        elapsed_s += msSince(r0) / 1000.0;
    }

    const auto med = [&](auto get) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(get(r));
        return median(v);
    };
    const auto layer = [&](int l) {
        return med([l](const Round &r) { return r.selfMs[l]; });
    };
    const std::size_t failed = gate.failed();
    const auto matched = static_cast<std::size_t>(
        std::count(replay_ok.begin(), replay_ok.end(), true));
    const std::string base =
        "median of " + std::to_string(rounds.size()) + " traced passes";
    const std::string per_pass =
        "per pass of " + std::to_string(jobs) + " jobs";
    const double pool_busy =
        s->service
            ? med([&](const Round &r) {
                  return ratio(r.jobMs, s->service->numWorkers() *
                                            r.batchWallMs);
              })
            : 0.0;

    std::printf("workload %s seed %llu (traced): %zu jobs/pass, %zu "
                "rounds\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                jobs, rounds.size());
    gate.printFailures(*s);
    const std::vector<Metric> metrics = {
        {"workloads.load_ms", load_ms, "ms",
         "median of " + std::to_string(kSetupReps) + " set-ups"},
        {"partition.initial_ms", layer(kPartitionInitial), "ms", base},
        {"partition.refine_ms", layer(kRefine), "ms", base},
        {"partition.refine_calls", static_cast<double>(counts.refineCalls),
         "count", per_pass},
        {"partition.probes", static_cast<double>(counts.probes), "count",
         per_pass},
        {"partition.commits", static_cast<double>(counts.commits), "count",
         per_pass},
        {"partition.commit_per_probe",
         ratio(static_cast<double>(counts.commits),
               static_cast<double>(counts.probes)),
         "ratio", "commits / probes"},
        {"core.replicate_ms", layer(kReplicate), "ms", base},
        {"core.replicate_rounds",
         static_cast<double>(counts.replicateRounds), "count", per_pass},
        {"core.coms_removed", static_cast<double>(rc.comsRemoved), "count",
         "final code, " + per_pass},
        {"core.replicas_added", static_cast<double>(rc.replicasAdded),
         "count", "final code, " + per_pass},
        {"core.ii_attempts", static_cast<double>(counts.iiAttempts),
         "count", per_pass},
        {"core.first_ii_frac",
         ratio(static_cast<double>(rc.firstIi), static_cast<double>(jobs)),
         "fraction", "jobs scheduled at MII / jobs"},
        {"core.bumps_bus",
         static_cast<double>(
             rc.bumps[static_cast<std::size_t>(FailCause::Bus)]),
         "count", per_pass},
        {"core.bumps_recurrence",
         static_cast<double>(
             rc.bumps[static_cast<std::size_t>(FailCause::Recurrence)]),
         "count", per_pass},
        {"core.bumps_registers",
         static_cast<double>(
             rc.bumps[static_cast<std::size_t>(FailCause::Registers)]),
         "count", per_pass},
        {"core.bumps_resources",
         static_cast<double>(
             rc.bumps[static_cast<std::size_t>(FailCause::Resources)]),
         "count", per_pass},
        {"core.spill_ms", layer(kSpill), "ms", base},
        {"core.spills", static_cast<double>(rc.spills), "count", per_pass},
        {"sched.mii_ms", layer(kMii), "ms", base},
        {"sched.schedule_ms", layer(kSchedule), "ms", base},
        {"sched.schedule_calls", static_cast<double>(counts.scheduleCalls),
         "count", per_pass},
        {"sched.schedule_fail_frac",
         ratio(static_cast<double>(counts.scheduleFails),
               static_cast<double>(counts.scheduleCalls)),
         "fraction", "failed / scheduleAtIi calls"},
        {"sched.comms_ms", layer(kComms), "ms", base},
        {"sched.copies_ms", layer(kCopies), "ms", base},
        {"sched.copies", static_cast<double>(counts.copies), "count",
         "final code, " + per_pass},
        {"ddg.copy_ms", layer(kDdgCopy), "ms", base},
        {"ddg.growth",
         ratio(static_cast<double>(rc.finalNodes),
               static_cast<double>(rc.inputNodes)),
         "ratio", "final live nodes / input nodes"},
        {"vliw.check_ms", rounds.front().selfMs[kCheck], "ms", "one pass"},
        {"vliw.simulate_ms", rounds.front().selfMs[kSimulate], "ms",
         "one pass"},
        {"vliw.values_checked", static_cast<double>(gate.valuesChecked()),
         "count", per_pass},
        {"eval.batch_ms", median(batch_ms), "ms",
         "median of " + std::to_string(batch_ms.size()) +
             (s->service ? " compileSuite calls" : " sweeps")},
        {"eval.pool_busy_frac", pool_busy, "fraction",
         "replay job time / (workers x batch wall)"},
        {"trace.replay_match_frac",
         ratio(static_cast<double>(matched), static_cast<double>(jobs)),
         "fraction", std::to_string(matched) + "/" + std::to_string(jobs)},
        {"trace.unattributed_frac",
         med([](const Round &r) { return ratio(r.selfMs[kJob], r.jobMs); }),
         "fraction", base},
        {"trace.overhead_frac",
         med([](const Round &r) { return r.jobMs; }) /
                 med([](const Round &r) { return r.compileMs; }) -
             1.0,
         "fraction", "traced / untraced job time - 1"},
    };
    if (!a.traceOut.empty())
        writeChromeTrace(a.traceOut, first_round_spans, jobs);
    report(metrics, failed == 0, jobs, failed);
    return failed == 0 ? 0 : 1;
}

// --- self-test -------------------------------------------------------

int selfTestFailures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
        ++selfTestFailures;
    }
}

bool
refuses(std::vector<double> v, double pct)
{
    try {
        percentile(std::move(v), pct);
    } catch (const std::domain_error &) {
        return true;
    }
    return false;
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // descending: sorting matters
    return v;
}

int
selfTest()
{
    // Nearest rank, and at least ten samples beyond every percentile.
    expect(percentile(iota(100), 50) == 50.0, "p50 of 1..100 is 50");
    expect(percentile(iota(100), 90) == 90.0, "p90 of 1..100 is 90");
    expect(refuses(iota(100), 91), "p91 of 100 leaves 9 beyond");
    expect(percentile(iota(1356), 99) == 1343.0, "p99 of 1356 samples");
    expect(!refuses(iota(1000), 99), "p99 of 1000 leaves 10 beyond");
    expect(refuses(iota(999), 99), "p99 of 999 leaves 9 beyond");
    expect(refuses(iota(15), 50), "p50 of 15 leaves 7 beyond");
    expect(refuses({}, 50), "no samples");
    expect(median({3, 1, 2}) == 2.0, "odd median");
    expect(median({4, 1, 3, 2}) == 2.5, "even median");

    // Self time on a synthetic span tree: A[0,100] holds B[10,40]
    // (which holds C[15,25]) and D[50,70].
    const std::vector<Span> tree = {
        {kJob, -1, 0, 0.0, 100000.0},
        {kPartitionInitial, 0, 0, 10000.0, 40000.0},
        {kRefine, 1, 0, 15000.0, 25000.0},
        {kSchedule, 0, 0, 50000.0, 70000.0},
        {kSchedule, -1, -1, 200000.0, 205000.0},
    };
    const std::vector<double> self = selfMs(tree);
    expect(self[kJob] == 50.0, "A's self time is 50 ms");
    expect(self[kPartitionInitial] == 20.0, "B's self time is 20 ms");
    expect(self[kRefine] == 10.0, "C's self time is 10 ms");
    expect(self[kSchedule] == 25.0, "D plus the root span is 25 ms");
    expect(totalMs(tree, kJob) == 100.0, "A's duration is 100 ms");

    // A live tracer nests and closes in order.
    Tracer tracer(Clock::now());
    {
        const Scope outer(tracer, kJob);
        traced(tracer, kMii, [] {});
    }
    expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
               tracer.spans()[1].endUs <= tracer.spans()[0].endUs,
           "tracer nesting");

    for (const char *name : kLayerNames)
        expect(validMetricName(name), "layer names are metric names");
    expect(validMetricName("partition.commit_per_probe"), "dotted name");
    expect(!validMetricName("a b"), "space refused");
    expect(!validMetricName(".x"), "leading dot refused");
    expect(!validMetricName(""), "empty refused");

    if (selfTestFailures == 0)
        std::printf("self-test ok\n");
    return selfTestFailures == 0 ? 0 : 1;
}

// --- command line ----------------------------------------------------

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "compile_bench: %s\nusage: compile_bench --workload "
                 "suite-repl|unified|fig7-batch [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out PATH]\n       compile_bench "
                 "--self-test\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                a.traceOut = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--self-test")
        return selfTest();
    const Args a = parseArgs(argc, argv);
    for (const Workload &w : workloads()) {
        if (w.name == a.workload)
            return a.trace ? tracedRun(w, a) : timedRun(w, a);
    }
    usage("unknown workload '" + a.workload + "'");
}
