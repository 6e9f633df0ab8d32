/**
 * @file
 * Evaluation metrics (section 4): cycles from the modulo-scheduling
 * execution model Texec = (N - 1 + SC) * II per visit, IPC over the
 * *useful* (original) instructions, dynamic added-instruction ratios
 * for Figure 10 and communication-removal ratios for the section-4
 * statistics.
 */

#ifndef CVLIW_EVAL_METRICS_HH
#define CVLIW_EVAL_METRICS_HH

#include <array>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "workloads/profiles.hh"

namespace cvliw
{

/** Aggregated dynamic behaviour of one benchmark on one config. */
struct BenchmarkAggregate
{
    std::string name;
    double cycles = 0.0;        //!< total execution cycles
    double usefulInstrs = 0.0;  //!< dynamic original instructions
    /** Dynamic replicas executed, by category mem/int/fp. */
    std::array<double, 3> addedByCat{};
    double comsInitialDyn = 0.0; //!< dynamic comms before replication
    double comsFinalDyn = 0.0;   //!< dynamic comms after
    double iiSum = 0.0;          //!< II weighted by dynamic instrs
    double miiSum = 0.0;         //!< MII weighted likewise
    double weight = 0.0;         //!< total dynamic instr weight
    int loops = 0;
    long long replicasStatic = 0;
    long long comsRemovedStatic = 0;

    /** Useful instructions per cycle. */
    double ipc() const;

    /** Dynamic added instructions / useful instructions. */
    double addedFraction() const;

    /** Fraction of dynamic communications removed by replication. */
    double comsRemovedFraction() const;
};

/** Accumulate one compiled loop into @p agg. */
void accumulate(BenchmarkAggregate &agg, const CompileResult &r,
                const LoopProfile &profile);

/** Harmonic mean of positive values. */
double hmean(const std::vector<double> &values);

} // namespace cvliw

#endif // CVLIW_EVAL_METRICS_HH
