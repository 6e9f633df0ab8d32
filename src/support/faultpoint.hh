/**
 * @file
 * Deterministic fault injection: named fault points compiled into the
 * pipeline and the `CompileService` pool, armed by an explicit schedule
 * from tests or the CVLIW_FAULTS environment variable, off by default
 * with near-zero overhead (one relaxed atomic load per point).
 *
 * ## Why
 *
 * The pool's job is to degrade per-job instead of per-process: a
 * poisoned graph, an infeasible machine config or a plain bug inside
 * compile() must become one `Failed` outcome, never a dead worker.
 * None of those paths can be exercised reliably by luck; fault points
 * make every one of them a deterministic test (tests/faultpoint_test.cc,
 * the fault tests in tests/service_test.cc, and the CI
 * fault-injection sweep).
 *
 * ## Fault points
 *
 * A fault point is a named call site: `faults::point("pipeline.start")`.
 * Disarmed (the default), a point is one relaxed atomic load and a
 * never-taken branch. Armed, every hit is counted per schedule term
 * and the term's trigger decides whether its action fires.
 *
 * Points compiled in today (grep `faults::point` for ground truth):
 *
 *  - `pipeline.start`       - compile() entry, before any work
 *  - `pipeline.ii_bump`     - top of every II attempt
 *  - `replicate.round`      - every replication selection round
 *  - `service.claim`        - pool worker claimed a job, before compile
 *  - `service.complete`     - pool worker finished a compile, before
 *                             storing the result
 *
 * ## Schedule syntax (CVLIW_FAULTS and faults::arm)
 *
 * ```
 * schedule = term (';' term)*
 * term     = point '@' trigger ':' action
 * trigger  = N        fire on exactly the Nth hit (1-based), once
 *          | N '+'    fire on the Nth hit and every one after it
 *          | '~' SEED '/' PCT
 *                     seeded Bernoulli: fire on hit i iff
 *                     fnv1a(SEED, i) % 100 < PCT - deterministic for
 *                     a given (SEED, hit index) so a schedule replays
 *                     bit-exact for a fixed hit interleaving
 * action   = 'throw'              throw FaultInjected at the point
 *          | 'throw=' MESSAGE     ... with MESSAGE in what()
 *          | 'delay=' MS          sleep MS milliseconds (float ok)
 * ```
 *
 * Examples:
 *
 * ```
 * CVLIW_FAULTS='pipeline.start@3:throw=boom'         # 3rd compile dies
 * CVLIW_FAULTS='pipeline.ii_bump@1+:throw'           # every compile dies
 * CVLIW_FAULTS='service.claim@~42/10:delay=2'        # ~10% claims lag 2ms
 * CVLIW_FAULTS='a@1:throw;b@~7/50:delay=0.5'         # terms compose
 * ```
 *
 * Hit counters are per term and process-global (atomic under the
 * injector mutex), so `@N` triggers are exact under concurrency; which
 * *job* owns the Nth hit depends on the claim interleaving, which is
 * deterministic for a single-worker service and scheduling-dependent
 * otherwise (tests that pin a specific victim use one worker).
 *
 * ## Environment arming
 *
 * The schedule in CVLIW_FAULTS is parsed and armed during static
 * initialization of any binary linking this file, so every test and
 * example honours it with no per-binary code. A malformed env schedule
 * warns and leaves injection off (operators should not crash a server
 * by typo); `arm()` from code throws std::invalid_argument instead.
 *
 * ## Determinism contract
 *
 * Disarmed, fault points change nothing: no allocation, no lock, no
 * syscall - the digest harness runs with injection off and pins
 * bit-identity. Armed, `delay` actions never change any result (only
 * timing) and `throw` actions only ever remove work; jobs that still
 * complete `Ok` under an armed schedule remain bit-identical to an
 * uninjected run (pinned by CompileServiceEnvFaults in service_test).
 */

#ifndef CVLIW_SUPPORT_FAULTPOINT_HH
#define CVLIW_SUPPORT_FAULTPOINT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace cvliw
{

/** Thrown by an armed `throw` fault point. */
class FaultInjected : public std::runtime_error
{
  public:
    explicit FaultInjected(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace faults
{

namespace detail
{
/** True iff any schedule term is armed (fast-path gate). */
extern std::atomic<bool> armedFlag;

/** Slow path: count the hit, evaluate triggers, run actions. */
void hitSlow(const char *name);
} // namespace detail

/**
 * A named fault point. Disarmed: one relaxed load, nothing else.
 * Armed: may throw FaultInjected or sleep, per the schedule.
 */
inline void
point(const char *name)
{
    if (detail::armedFlag.load(std::memory_order_relaxed))
        detail::hitSlow(name);
}

/**
 * Replace the current schedule with @p schedule (see the file comment
 * for the grammar) and arm it. An empty string disarms.
 * @throws std::invalid_argument on a malformed schedule
 */
void arm(const std::string &schedule);

/** Disarm every fault point and clear all hit counters. */
void disarm();

/** Is any schedule term currently armed? */
bool armed();

/** Actions fired (throws + delays) since the last arm()/disarm(). */
std::uint64_t firedCount();

/**
 * The schedule CVLIW_FAULTS held at process start ("" if unset) -
 * what static arming installed, before any arm()/disarm() from code.
 */
const std::string &envSchedule();

/**
 * RAII: disarm on construction, restore the previous schedule on
 * destruction. Lets a test compute uninjected oracle results (direct
 * compile() calls would otherwise hit armed pipeline points) while an
 * env-armed schedule stays in force around it. Restoring re-arms the
 * schedule with fresh hit counters.
 */
class Suspend
{
  public:
    Suspend();
    ~Suspend();
    Suspend(const Suspend &) = delete;
    Suspend &operator=(const Suspend &) = delete;

  private:
    std::string saved_;
    bool wasArmed_ = false;
};

} // namespace faults
} // namespace cvliw

#endif // CVLIW_SUPPORT_FAULTPOINT_HH
