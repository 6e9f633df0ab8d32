/**
 * @file
 * Cooperative per-job deadlines and step budgets for long-running
 * work (the compile pipeline). "Cooperative" means nothing is ever
 * interrupted mid-kernel: the worked-on code calls `checkpoint()` at
 * its natural retry boundaries (the pipeline's II bumps and
 * replication rounds), and an expired deadline surfaces as a
 * `DeadlineExceeded` throw there - stack unwinding discards the
 * partial work deterministically, and `CompileService`
 * (eval/service.hh) turns the throw into a `TimedOut` job outcome.
 *
 * Two independent limits compose:
 *
 *  - **Step budget** (deterministic): every checkpoint consumes one
 *    step; exceeding the budget throws. Bit-reproducible - the same
 *    job with the same budget always times out at the same boundary,
 *    which is what tests pin.
 *  - **Soft wall-clock deadline** (best effort): checked against
 *    steady_clock at each checkpoint, so overrun is bounded by the
 *    longest stretch between checkpoints, not by a signal. A
 *    deployment limit, not a reproducibility tool.
 *
 * An inactive deadline (both limits unset) costs one boolean test per
 * checkpoint and never throws, so default-configured compiles are
 * byte-for-byte unaffected.
 */

#ifndef CVLIW_SUPPORT_DEADLINE_HH
#define CVLIW_SUPPORT_DEADLINE_HH

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace cvliw
{

/** Thrown by CooperativeDeadline::checkpoint on an expired limit. */
class DeadlineExceeded : public std::runtime_error
{
  public:
    explicit DeadlineExceeded(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

class CooperativeDeadline
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Inactive: checkpoints never throw. */
    CooperativeDeadline() = default;

    /**
     * @param step_budget cooperative steps allowed; 0 = unlimited.
     *        Negative budgets expire at the first checkpoint.
     * @param soft_deadline_ms wall-clock allowance from now in
     *        milliseconds; 0 = unlimited. Negative values expire at
     *        the first checkpoint (useful for deterministic tests of
     *        the wall-clock path).
     */
    CooperativeDeadline(std::int64_t step_budget,
                        double soft_deadline_ms)
        : budget_(step_budget),
          hasBudget_(step_budget != 0),
          hasWall_(soft_deadline_ms != 0)
    {
        if (hasWall_) {
            wallDeadline_ =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        soft_deadline_ms));
        }
    }

    /** Does any limit apply? False for a default-constructed one. */
    bool active() const { return hasBudget_ || hasWall_; }

    /**
     * Consume one step and test both limits.
     * @param where boundary name for the error message
     * @throws DeadlineExceeded when a limit is exhausted
     */
    void checkpoint(const char *where)
    {
        if (!active())
            return;
        ++steps_;
        if (hasBudget_ && steps_ > budget_) {
            throw DeadlineExceeded(
                "step budget exhausted: " + std::to_string(steps_) +
                " steps > budget " + std::to_string(budget_) +
                " at " + where);
        }
        if (hasWall_ && Clock::now() > wallDeadline_) {
            throw DeadlineExceeded(
                "soft deadline exceeded after " +
                std::to_string(steps_) + " steps at " + where);
        }
    }

    /** Steps consumed so far. */
    std::int64_t steps() const { return steps_; }

  private:
    std::int64_t budget_ = 0;
    std::int64_t steps_ = 0;
    Clock::time_point wallDeadline_{};
    bool hasBudget_ = false;
    bool hasWall_ = false;
};

} // namespace cvliw

#endif // CVLIW_SUPPORT_DEADLINE_HH
