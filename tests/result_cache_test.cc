/**
 * @file
 * Cache-contract battery for the content-addressed result cache
 * (eval/result_cache.hh): key distinctness and content-digest
 * algebra (mutations change it, compact() does not), bit-identical
 * hits, LRU byte-budget eviction, in-flight dedup storms (success and
 * leader-throws, counter-pinned to exactly one compile), quarantine
 * (a throwing compile never populates), frontier/service integration
 * with duplicated jobs, and the persistent tier's per-record
 * corruption handling. The CI TSan and ASan jobs run this binary; the
 * fault-injection sweep drives ResultCacheEnvFaults.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/digest.hh"
#include "eval/result_cache.hh"
#include "eval/service.hh"
#include "support/deadline.hh"
#include "support/faultpoint.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

/** Every 16th loop: 43 loops spanning all benchmarks and sizes. */
const std::vector<Loop> &
sampleLoops()
{
    static const std::vector<Loop> sample = [] {
        const auto suite = loadOrBuildSuite(42);
        std::vector<Loop> out;
        for (std::size_t i = 0; i < suite.size(); i += 16)
            out.push_back(suite[i]);
        return out;
    }();
    return sample;
}

std::uint64_t
digestOf(const CompileResult &r)
{
    ResultDigest d;
    mixCompileResult(d, r);
    return d.h;
}

/** A synthetic result whose content depends on @p tag. */
CompileResult
syntheticResult(int tag)
{
    CompileResult r;
    r.ok = true;
    r.mii = tag;
    r.ii = tag + 1;
    r.schedule.ii = tag + 1;
    r.schedule.start = {0, 1, tag};
    r.schedule.busOf = {-1, -1, -1};
    r.schedule.length = 3;
    r.schedule.stageCount = 1;
    r.schedule.maxLive = {tag};
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    const NodeId b = g.addNode(OpClass::Load, "b");
    g.addEdge(a, b, EdgeKind::RegFlow);
    r.finalDdg = std::move(g);
    Partition part(1, 2);
    part.assign(0, 0);
    part.assign(1, 0);
    r.partition = std::move(part);
    r.iiIncreases = {FailCause::Bus, FailCause::Registers};
    r.comsFinal = tag;
    r.usefulOps = 2;
    return r;
}

ResultCacheKey
syntheticKey(std::uint64_t tag)
{
    return ResultCacheKey{tag, tag * 31, tag * 131};
}

std::string
tmpPath(const char *stem)
{
    return "/tmp/" + std::string(stem) + "-" +
           std::to_string(::getpid()) + ".cvrcache";
}

// ---------------------------------------------------------------------
// Content digests.

TEST(ResultCacheKeying, DistinctContentNeverCollides)
{
    const auto &loops = sampleLoops();
    const auto m2 = MachineConfig::fromString("2c1b2l64r");
    const auto m4 = MachineConfig::fromString("4c2b2l64r");
    PipelineOptions a;
    PipelineOptions b;
    b.replication = false;

    // Distinct graphs digest distinct (each sample loop is unique).
    std::vector<std::uint64_t> seen;
    for (const Loop &loop : loops) {
        const std::uint64_t h = ddgContentDigest(loop.ddg);
        for (const std::uint64_t other : seen)
            EXPECT_NE(h, other);
        seen.push_back(h);
    }

    // Distinct machines and distinct options change the key; same
    // content keeps it.
    const ResultCacheKey k = makeResultCacheKey(loops[0].ddg, m2, a);
    EXPECT_NE(k, makeResultCacheKey(loops[0].ddg, m4, a));
    EXPECT_NE(k, makeResultCacheKey(loops[0].ddg, m2, b));
    EXPECT_NE(k, makeResultCacheKey(loops[1].ddg, m2, a));
    EXPECT_EQ(k, makeResultCacheKey(loops[0].ddg, m2, a));
}

TEST(ResultCacheKeying, MachineDigestIsContentNotIdentity)
{
    // Two configs built from the same string have different id()s but
    // MUST digest equal - that is the whole point of using content,
    // not identity: the persistent tier and cross-instance sharing
    // depend on it.
    const auto a = MachineConfig::fromString("4c2b4l64r");
    const auto b = MachineConfig::fromString("4c2b4l64r");
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(machineContentDigest(a), machineContentDigest(b));

    // A latency override is invisible to name() but not to content.
    auto c = MachineConfig::custom(4, a.resources(), 2, 4, 64);
    EXPECT_EQ(machineContentDigest(c), machineContentDigest(a));
    c.setLatency(OpClass::Load, 7);
    EXPECT_NE(machineContentDigest(c), machineContentDigest(a));
}

TEST(ResultCacheKeying, OptionsDigestCoversEveryKnobExceptTheCache)
{
    const PipelineOptions base;
    const std::uint64_t h = pipelineOptionsDigest(base);

    PipelineOptions o = base;
    o.replication = false;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.zeroBusLatency = true;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.lengthReplication = true;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.spilling = false;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.mode = ReplicationMode::MacroNode;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.maxIi = 512;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.registerStagnationLimit = 3;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.stepBudget = 100;
    EXPECT_NE(pipelineOptionsDigest(o), h);
    o = base;
    o.softDeadlineMs = 5.0;
    EXPECT_NE(pipelineOptionsDigest(o), h);

    // The cache pointer is plumbing, not identity.
    ResultCache cache;
    o = base;
    o.resultCache = &cache;
    EXPECT_EQ(pipelineOptionsDigest(o), h);
}

TEST(ResultCacheKeying, MutationChangesDigestCompactDoesNot)
{
    Ddg g = sampleLoops()[5].ddg;
    const std::uint64_t h0 = ddgContentDigest(g);
    EXPECT_EQ(ddgContentDigest(g), h0); // digesting is read-only

    Ddg with_edge = g;
    with_edge.addEdge(0, 1, EdgeKind::Memory, 1, 2);
    EXPECT_NE(ddgContentDigest(with_edge), h0);

    Ddg with_replica = g;
    with_replica.addReplica(0, "'");
    EXPECT_NE(ddgContentDigest(with_replica), h0);

    Ddg removed = g;
    removed.removeNode(g.numNodeSlots() - 1);
    const std::uint64_t h_removed = ddgContentDigest(removed);
    EXPECT_NE(h_removed, h0);

    // compact() keeps tombstoned slots but repacks the arenas and
    // rewrites label slices - all bytes the digest must not see.
    removed.compact();
    EXPECT_EQ(ddgContentDigest(removed), h_removed);
}

// ---------------------------------------------------------------------
// Hit/miss mechanics.

TEST(ResultCache, HitReturnsBitIdenticalResult)
{
    const Loop &loop = sampleLoops()[3];
    const auto m = MachineConfig::fromString("4c2b2l64r");

    // Oracle: a cache-less compile.
    const CompileResult oracle = compile(loop.ddg, m);

    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;
    const CompileResult cold = compile(loop.ddg, m, opts);
    const CompileResult hot = compile(loop.ddg, m, opts);

    EXPECT_EQ(digestOf(cold), digestOf(oracle));
    EXPECT_EQ(digestOf(hot), digestOf(oracle));
    EXPECT_EQ(hot.ok, oracle.ok);
    EXPECT_EQ(hot.ii, oracle.ii);
    EXPECT_EQ(hot.schedule.start, oracle.schedule.start);
    EXPECT_EQ(hot.schedule.busOf, oracle.schedule.busOf);
    EXPECT_EQ(hot.partition.vec(), oracle.partition.vec());
    EXPECT_EQ(hot.finalDdg.numNodeSlots(),
              oracle.finalDdg.numNodeSlots());

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.dedupJoins, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_TRUE(cache.contains(makeResultCacheKey(loop.ddg, m, opts)));
}

TEST(ResultCache, BooksCloseAcrossDistinctJobs)
{
    const auto &loops = sampleLoops();
    const auto m2 = MachineConfig::fromString("2c1b2l64r");
    const auto m4 = MachineConfig::fromString("4c2b2l64r");

    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;
    PipelineOptions no_repl = opts;
    no_repl.replication = false;

    compile(loops[0].ddg, m2, opts);
    compile(loops[0].ddg, m4, opts);   // same graph, other machine
    compile(loops[0].ddg, m2, no_repl); // same graph, other options
    compile(loops[1].ddg, m2, opts);   // other graph
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 4u);

    compile(loops[0].ddg, m2, opts);
    compile(loops[0].ddg, m4, opts);
    compile(loops[0].ddg, m2, no_repl);
    compile(loops[1].ddg, m2, opts);
    s = cache.stats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 4u);
    EXPECT_EQ(s.hits + s.misses, 8u); // one of hits/misses per call
}

TEST(ResultCache, LruEvictsInRecencyOrderAndKeepsTheBudget)
{
    // Three synthetic entries of known footprint; a budget that holds
    // exactly two.
    const CompileResult r0 = syntheticResult(10);
    const CompileResult r1 = syntheticResult(20);
    const CompileResult r2 = syntheticResult(30);
    const std::size_t fp = resultFootprintBytes(r0);
    ASSERT_EQ(fp, resultFootprintBytes(r1)); // same shape, same weight

    ResultCache cache(2 * fp + fp / 2);
    const auto put = [&](std::uint64_t tag, const CompileResult &r) {
        cache.getOrCompute(syntheticKey(tag),
                           [&] { return r; });
    };
    put(1, r0);
    put(2, r1);
    EXPECT_TRUE(cache.contains(syntheticKey(1)));
    EXPECT_TRUE(cache.contains(syntheticKey(2)));

    // Touch 1 so 2 is the least recently used, then overflow.
    put(1, r0);
    put(3, r2);
    EXPECT_TRUE(cache.contains(syntheticKey(1)));
    EXPECT_FALSE(cache.contains(syntheticKey(2))); // recency order
    EXPECT_TRUE(cache.contains(syntheticKey(3)));

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytes, s.maxBytes); // the budget is never exceeded

    // The evicted job recomputes (a fresh miss), evicting in order.
    put(2, r1);
    EXPECT_FALSE(cache.contains(syntheticKey(1)));
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ResultCache, OversizedResultIsNeverCached)
{
    ResultCache cache(64); // smaller than any real result
    int computes = 0;
    const auto key = syntheticKey(7);
    cache.getOrCompute(key, [&] {
        ++computes;
        return syntheticResult(1);
    });
    cache.getOrCompute(key, [&] {
        ++computes;
        return syntheticResult(1);
    });
    EXPECT_EQ(computes, 2); // nothing fit, so both calls compiled
    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.oversized, 2u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.misses, 2u);
}

TEST(ResultCache, NotOkResultsAreCachedThrowingCompilesAreNot)
{
    ResultCache cache;
    const auto key = syntheticKey(9);

    // A compile that *returns* ok == false is a deterministic fact
    // about the key: cached like any other result.
    int computes = 0;
    const auto infeasible = [&] {
        ++computes;
        CompileResult r = syntheticResult(2);
        r.ok = false;
        return r;
    };
    EXPECT_FALSE(cache.getOrCompute(key, infeasible).ok);
    EXPECT_FALSE(cache.getOrCompute(key, infeasible).ok);
    EXPECT_EQ(computes, 1);
    EXPECT_TRUE(cache.contains(key));

    // A compile that *throws* never populates; the next caller runs
    // the compute again.
    const auto key2 = syntheticKey(11);
    int attempts = 0;
    EXPECT_THROW(cache.getOrCompute(key2,
                                    [&]() -> CompileResult {
                                        ++attempts;
                                        throw DeadlineExceeded(
                                            "budget exhausted");
                                    }),
                 DeadlineExceeded);
    EXPECT_FALSE(cache.contains(key2));
    const CompileResult ok = cache.getOrCompute(key2, [&] {
        ++attempts;
        return syntheticResult(3);
    });
    EXPECT_EQ(attempts, 2);
    EXPECT_TRUE(ok.ok);
    EXPECT_TRUE(cache.contains(key2));

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 3u); // infeasible, thrown, recompiled
    EXPECT_EQ(s.hits, 1u);
}

// ---------------------------------------------------------------------
// In-flight dedup.

TEST(ResultCacheDedup, StormCompilesExactlyOnce)
{
    // 8 threads, one identical job. The leader blocks inside its
    // compute until every follower has joined, so the dedup window is
    // deterministic, then everyone must see the leader's result.
    constexpr int kThreads = 8;
    ResultCache cache;
    const auto key = syntheticKey(42);
    std::atomic<int> computes{0};

    std::mutex gate_lock;
    std::condition_variable gate_cv;
    bool release = false;

    std::vector<std::uint64_t> digests(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            const CompileResult r =
                cache.getOrCompute(key, [&] {
                    computes.fetch_add(1);
                    std::unique_lock<std::mutex> lock(gate_lock);
                    gate_cv.wait(lock, [&] { return release; });
                    return syntheticResult(5);
                });
            digests[t] = digestOf(r);
        });
    }
    // Wait until all 7 followers are parked on the leader's block,
    // then let the leader finish.
    while (cache.stats().dedupJoins <
           static_cast<std::uint64_t>(kThreads - 1)) {
        std::this_thread::yield();
    }
    {
        std::lock_guard<std::mutex> lock(gate_lock);
        release = true;
    }
    gate_cv.notify_all();
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(computes.load(), 1); // counter-pinned: ONE compile
    const std::uint64_t expected = digestOf(syntheticResult(5));
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(digests[t], expected) << "thread " << t;

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.dedupJoins, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheDedup, FollowersInheritTheLeadersFailure)
{
    // Same storm, but the leader throws after every follower joined:
    // all followers must observe the same outcome, typed so a timed-
    // out leader yields timed-out followers.
    constexpr int kFollowers = 7;
    ResultCache cache;
    const auto key = syntheticKey(43);

    std::mutex gate_lock;
    std::condition_variable gate_cv;
    bool leading = false; // the leader's compute is running
    bool release = false;

    std::atomic<int> deadline_count{0};
    std::atomic<int> other_count{0};
    std::vector<std::thread> pool;
    pool.emplace_back([&] { // leader
        try {
            cache.getOrCompute(key, [&]() -> CompileResult {
                std::unique_lock<std::mutex> lock(gate_lock);
                leading = true;
                gate_cv.notify_all();
                gate_cv.wait(lock, [&] { return release; });
                throw DeadlineExceeded("leader ran out of budget");
            });
        } catch (const DeadlineExceeded &) {
            deadline_count.fetch_add(1);
        }
    });
    // Followers start only once the leader's compute runs: one that
    // reached getOrCompute first would lead and publish instead, and
    // dedupJoins would never reach kFollowers.
    {
        std::unique_lock<std::mutex> lock(gate_lock);
        gate_cv.wait(lock, [&] { return leading; });
    }
    for (int t = 0; t < kFollowers; ++t) {
        pool.emplace_back([&] {
            try {
                cache.getOrCompute(key, [&]() -> CompileResult {
                    ADD_FAILURE() << "a follower compiled";
                    return syntheticResult(0);
                });
            } catch (const DeadlineExceeded &err) {
                EXPECT_STREQ(err.what(),
                             "leader ran out of budget");
                deadline_count.fetch_add(1);
            } catch (const std::exception &) {
                other_count.fetch_add(1);
            }
        });
    }
    while (cache.stats().dedupJoins <
           static_cast<std::uint64_t>(kFollowers)) {
        std::this_thread::yield();
    }
    {
        std::lock_guard<std::mutex> lock(gate_lock);
        release = true;
    }
    gate_cv.notify_all();
    for (auto &t : pool)
        t.join();

    // Everyone saw the deadline failure, correctly typed.
    EXPECT_EQ(deadline_count.load(), 1 + kFollowers);
    EXPECT_EQ(other_count.load(), 0);
    EXPECT_FALSE(cache.contains(key)); // failures never populate

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u); // the failed leader still counts
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kFollowers));
    EXPECT_EQ(s.dedupJoins, static_cast<std::uint64_t>(kFollowers));

    // The key is compilable again afterwards.
    const CompileResult r =
        cache.getOrCompute(key, [&] { return syntheticResult(6); });
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(cache.contains(key));
}

TEST(ResultCacheFaults, LeaderThrowViaFaultPoint)
{
    // The CVLIW_FAULTS hook: the resultcache.leader point throws
    // inside the leader path, so an injected fault behaves exactly
    // like a compile failure - propagated, never cached.
    const Loop &loop = sampleLoops()[1];
    const auto m = MachineConfig::fromString("2c1b2l64r");
    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;

    faults::arm("resultcache.leader@1:throw=injected leader fault");
    EXPECT_THROW(compile(loop.ddg, m, opts), FaultInjected);
    faults::disarm();

    EXPECT_FALSE(
        cache.contains(makeResultCacheKey(loop.ddg, m, opts)));
    EXPECT_EQ(cache.stats().misses, 1u);

    // Publication faults are quarantined the same way.
    faults::arm("resultcache.publish@1:throw=injected publish fault");
    EXPECT_THROW(compile(loop.ddg, m, opts), FaultInjected);
    faults::disarm();
    EXPECT_FALSE(
        cache.contains(makeResultCacheKey(loop.ddg, m, opts)));

    // And with faults off the same cache serves the job bit-exactly.
    const CompileResult r = compile(loop.ddg, m, opts);
    EXPECT_EQ(digestOf(r), digestOf(compile(loop.ddg, m)));
    EXPECT_TRUE(
        cache.contains(makeResultCacheKey(loop.ddg, m, opts)));
}

// ---------------------------------------------------------------------
// Frontier / service integration.

TEST(ResultCacheService, DuplicatedBatchMatchesCacheOffBitExactly)
{
    // A batch with 50% duplicated jobs: same full digest as the
    // cache-off run, books closing exactly (hits + misses == jobs).
    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 16);
    const auto m = MachineConfig::fromString("4c2b2l64r");

    ResultCache cache;
    PipelineOptions cached;
    cached.resultCache = &cache;
    const PipelineOptions plain;

    // Job list: every loop twice (interleaved, so duplicates tend to
    // land on different workers concurrently).
    std::vector<CompileService::Job> jobs;
    for (const Loop &loop : loops) {
        jobs.push_back({&loop.ddg, &m, &cached});
        jobs.push_back({&loop.ddg, &m, &cached});
    }
    std::vector<CompileService::Job> jobs_off;
    for (const Loop &loop : loops) {
        jobs_off.push_back({&loop.ddg, &m, &plain});
        jobs_off.push_back({&loop.ddg, &m, &plain});
    }

    CompileService service(4);
    const auto on = service.compileBatch(jobs);
    const auto off = service.compileBatch(jobs_off);
    ASSERT_EQ(on.size(), jobs.size());
    ResultDigest don, doff;
    for (std::size_t i = 0; i < on.size(); ++i) {
        mixCompileResult(don, on[i]);
        mixCompileResult(doff, off[i]);
        EXPECT_EQ(digestOf(on[i]), digestOf(off[i])) << "job " << i;
    }
    EXPECT_EQ(don.h, doff.h);

    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses,
              static_cast<std::uint64_t>(jobs.size()));
    EXPECT_EQ(s.misses, static_cast<std::uint64_t>(loops.size()));
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(loops.size()));
    EXPECT_EQ(s.entries, static_cast<std::uint64_t>(loops.size()));
}

TEST(ResultCacheService, LeaderCancellationMidDedupIsWellDefined)
{
    // A dedup leader belongs to a claimed job, and the frontier's
    // cancel() only drops unclaimed jobs - so cancelling the leader's
    // batch mid-dedup lets the leader finish and the follower in the
    // other batch observe its published result. The delay fault pins
    // the leader in flight while everything is arranged.
    const Loop &loop = sampleLoops()[2];
    const auto m = MachineConfig::fromString("2c1b2l64r");
    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;
    const std::uint64_t oracle = digestOf(compile(loop.ddg, m));

    faults::arm("resultcache.leader@1:delay=60");
    Frontier frontier(2);
    std::vector<Frontier::Job> job{{&loop.ddg, &m, &opts}};
    auto leader_batch = frontier.submit(job);
    auto follower_batch = frontier.submit(job);

    // Give both workers time to claim (leader delayed at the fault
    // point, follower parked on the leader's control block), then
    // cancel the leader's batch: the claimed job must not be dropped.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(leader_batch.cancel(), 0u);

    leader_batch.wait();
    follower_batch.wait();
    faults::disarm();

    ASSERT_EQ(leader_batch.job(0).outcome, JobOutcome::Ok);
    ASSERT_EQ(follower_batch.job(0).outcome, JobOutcome::Ok);
    EXPECT_EQ(digestOf(leader_batch.results()[0]), oracle);
    EXPECT_EQ(digestOf(follower_batch.results()[0]), oracle);

    // Exactly one compile happened across both batches.
    const ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
}

TEST(ResultCacheEnvFaults, DedupInvariantsHoldUnderInjection)
{
    // CI sweep entry point (mirrors FrontierEnvFaults): with any
    // CVLIW_FAULTS schedule armed - including resultcache.leader /
    // resultcache.publish throws - a duplicated batch must yield, per
    // job, either the bit-exact oracle result or a structured
    // failure; the books must close; and the same cache must serve
    // bit-exact results once injection is off.
    const std::string schedule = faults::envSchedule();
    if (schedule.empty())
        GTEST_SKIP() << "set CVLIW_FAULTS to exercise this test";

    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 12);
    const auto m = MachineConfig::fromString("4c2b2l64r");

    std::vector<std::uint64_t> oracle;
    faults::disarm();
    for (const Loop &loop : loops)
        oracle.push_back(digestOf(compile(loop.ddg, m)));

    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;
    std::vector<Frontier::Job> jobs;
    for (const Loop &loop : loops) {
        jobs.push_back({&loop.ddg, &m, &opts});
        jobs.push_back({&loop.ddg, &m, &opts});
    }

    faults::arm(schedule);
    Frontier frontier(0);
    auto handle = frontier.submit(jobs);
    handle.wait();
    faults::disarm();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobOutcome outcome = handle.job(i).outcome;
        if (outcome == JobOutcome::Ok) {
            EXPECT_EQ(digestOf(handle.results()[i]), oracle[i / 2])
                << "job " << i;
        } else {
            ASSERT_TRUE(outcome == JobOutcome::Failed ||
                        outcome == JobOutcome::TimedOut)
                << toString(outcome);
            EXPECT_FALSE(handle.job(i).error.empty());
        }
    }
    const ResultCacheStats mid = cache.stats();
    EXPECT_EQ(mid.hits + mid.misses,
              static_cast<std::uint64_t>(jobs.size()));

    // Recovery: the cache (whatever survived injection) serves
    // bit-exact results.
    auto after = frontier.submit(jobs);
    after.wait();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(after.job(i).outcome, JobOutcome::Ok) << "job " << i;
        EXPECT_EQ(digestOf(after.results()[i]), oracle[i / 2])
            << "job " << i;
    }
}

// ---------------------------------------------------------------------
// Persistent tier.

TEST(ResultCachePersist, RoundTripServesBitIdenticalResults)
{
    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 6);
    const auto m = MachineConfig::fromString("4c2b4l64r");

    ResultCache warm;
    PipelineOptions opts;
    opts.resultCache = &warm;
    std::vector<std::uint64_t> oracle;
    for (const Loop &loop : loops)
        oracle.push_back(digestOf(compile(loop.ddg, m, opts)));

    const std::string path = tmpPath("roundtrip");
    warm.saveTo(path);

    // A fresh cache - a warm restart - loads every entry and serves
    // each job without compiling.
    ResultCache restarted;
    EXPECT_EQ(restarted.loadFrom(path), loops.size());
    PipelineOptions ropts;
    ropts.resultCache = &restarted;
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_TRUE(restarted.contains(
            makeResultCacheKey(loops[i].ddg, m, ropts)));
        EXPECT_EQ(digestOf(compile(loops[i].ddg, m, ropts)),
                  oracle[i])
            << "loop " << i;
    }
    const ResultCacheStats s = restarted.stats();
    EXPECT_EQ(s.diskLoaded, loops.size());
    EXPECT_EQ(s.diskRejected, 0u);
    EXPECT_EQ(s.misses, 0u); // nothing recompiled
    EXPECT_EQ(s.hits, loops.size());
    std::remove(path.c_str());
}

TEST(ResultCachePersist, BitFlippedRecordIsRejectedAlone)
{
    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 5);
    const auto m = MachineConfig::fromString("2c1b2l64r");

    ResultCache warm;
    PipelineOptions opts;
    opts.resultCache = &warm;
    for (const Loop &loop : loops)
        compile(loop.ddg, m, opts);
    const std::string path = tmpPath("bitflip");
    warm.saveTo(path);

    // Flip one byte inside the first record's payload. Layout: 44
    // header bytes, 16 per index entry, then the payload with record
    // 0 first (saveTo writes most-recent first, but whichever record
    // owns the byte, exactly one must die).
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::streampos target =
        44 + 16 * static_cast<std::streampos>(loops.size()) + 50;
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(target);
    f.write(&byte, 1);
    f.close();

    // Per-record rejection: one entry is skipped with a warning, the
    // other four load and serve.
    ResultCache restarted;
    EXPECT_EQ(restarted.loadFrom(path), loops.size() - 1);
    const ResultCacheStats s = restarted.stats();
    EXPECT_EQ(s.diskRejected, 1u);
    EXPECT_EQ(s.diskLoaded, loops.size() - 1);
    EXPECT_EQ(s.entries, loops.size() - 1);

    // The rejected job simply recompiles - bit-exact.
    PipelineOptions ropts;
    ropts.resultCache = &restarted;
    for (const Loop &loop : loops) {
        EXPECT_EQ(digestOf(compile(loop.ddg, m, ropts)),
                  digestOf(compile(loop.ddg, m)));
    }
    const ResultCacheStats after = restarted.stats();
    EXPECT_EQ(after.misses, 1u); // exactly the rejected record
    EXPECT_EQ(after.hits, loops.size() - 1);
    std::remove(path.c_str());
}

TEST(ResultCachePersist, TruncationAndIndexCorruptionRejectTheFile)
{
    const auto &sample = sampleLoops();
    const std::vector<Loop> loops(sample.begin(), sample.begin() + 3);
    const auto m = MachineConfig::fromString("2c1b2l64r");

    ResultCache warm;
    PipelineOptions opts;
    opts.resultCache = &warm;
    for (const Loop &loop : loops)
        compile(loop.ddg, m, opts);
    const std::string path = tmpPath("truncate");
    warm.saveTo(path);

    std::vector<char> bytes;
    {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        bytes.resize(static_cast<std::size_t>(f.tellg()));
        f.seekg(0);
        f.read(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
    }

    const auto writeBytes = [&](const std::vector<char> &b) {
        std::ofstream f(path,
                        std::ios::binary | std::ios::trunc);
        f.write(b.data(), static_cast<std::streamsize>(b.size()));
    };

    // Truncated mid-payload: the header's payloadSize no longer
    // matches, whole file rejected.
    std::vector<char> truncated(bytes.begin(), bytes.end() - 40);
    writeBytes(truncated);
    {
        ResultCache c;
        EXPECT_THROW(c.loadFrom(path), ResultCacheIoError);
        EXPECT_EQ(c.stats().entries, 0u);
    }

    // Truncated mid-header.
    std::vector<char> stub(bytes.begin(), bytes.begin() + 20);
    writeBytes(stub);
    {
        ResultCache c;
        EXPECT_THROW(c.loadFrom(path), ResultCacheIoError);
    }

    // A flipped index byte cannot be trusted to address records:
    // whole file rejected (no laundering into per-record skips).
    std::vector<char> bad_index = bytes;
    bad_index[44 + 8] ^= 0x01; // record 0's digest field
    writeBytes(bad_index);
    {
        ResultCache c;
        EXPECT_THROW(c.loadFrom(path), ResultCacheIoError);
    }

    // Bad magic.
    std::vector<char> bad_magic = bytes;
    bad_magic[0] ^= 0x01;
    writeBytes(bad_magic);
    {
        ResultCache c;
        EXPECT_THROW(c.loadFrom(path), ResultCacheIoError);
    }

    // The pristine bytes still load fully (the mutations above were
    // the only problem).
    writeBytes(bytes);
    {
        ResultCache c;
        EXPECT_EQ(c.loadFrom(path), loops.size());
    }
    std::remove(path.c_str());
}

TEST(ResultCachePersist, LoadStopsAtTheBudgetKeepingHottestFirst)
{
    // Entries are saved most-recently-used first, so a reload into a
    // smaller budget keeps the hottest prefix and counts the rest as
    // skipped, never exceeding the budget.
    ResultCache warm;
    for (std::uint64_t tag = 1; tag <= 4; ++tag) {
        warm.getOrCompute(syntheticKey(tag), [&] {
            return syntheticResult(static_cast<int>(tag));
        });
    }
    // Touch 3 so the LRU order (hot to cold) is 3, 4, 2, 1.
    warm.getOrCompute(syntheticKey(3),
                      [&] { return syntheticResult(3); });
    warm.getOrCompute(syntheticKey(4),
                      [&] { return syntheticResult(4); });
    // Order now: 4, 3, 2, 1.
    const std::string path = tmpPath("budget");
    warm.saveTo(path);

    const std::size_t fp =
        resultFootprintBytes(syntheticResult(1));
    ResultCache small(2 * fp + fp / 2); // holds two entries
    EXPECT_EQ(small.loadFrom(path), 2u);
    EXPECT_TRUE(small.contains(syntheticKey(4)));
    EXPECT_TRUE(small.contains(syntheticKey(3)));
    EXPECT_FALSE(small.contains(syntheticKey(2)));
    EXPECT_FALSE(small.contains(syntheticKey(1)));
    const ResultCacheStats s = small.stats();
    EXPECT_EQ(s.diskLoaded, 2u);
    EXPECT_EQ(s.diskSkipped, 2u);
    EXPECT_EQ(s.diskRejected, 0u);
    EXPECT_LE(s.bytes, s.maxBytes);
    std::remove(path.c_str());
}

} // namespace
} // namespace cvliw
