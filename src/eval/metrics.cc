#include "eval/metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

double
BenchmarkAggregate::ipc() const
{
    return cycles > 0.0 ? usefulInstrs / cycles : 0.0;
}

double
BenchmarkAggregate::addedFraction() const
{
    if (usefulInstrs <= 0.0)
        return 0.0;
    double added = 0.0;
    for (double a : addedByCat)
        added += a;
    return added / usefulInstrs;
}

double
BenchmarkAggregate::comsRemovedFraction() const
{
    if (comsInitialDyn <= 0.0)
        return 0.0;
    return (comsInitialDyn - comsFinalDyn) / comsInitialDyn;
}

void
accumulate(BenchmarkAggregate &agg, const CompileResult &r,
           const LoopProfile &profile)
{
    cv_assert(r.ok, "accumulating a failed compilation");
    const double dyn =
        profile.visits * std::max(1.0, profile.avgIters);

    agg.cycles += r.cycles(profile.avgIters, profile.visits);
    agg.usefulInstrs += r.usefulOps * dyn;
    agg.addedByCat[0] += r.repl.replicasByCat[0] * dyn;
    agg.addedByCat[1] += r.repl.replicasByCat[1] * dyn;
    agg.addedByCat[2] += r.repl.replicasByCat[2] * dyn;
    agg.comsInitialDyn += r.repl.comsInitial * dyn;
    agg.comsFinalDyn += r.comsFinal * dyn;
    agg.iiSum += r.ii * dyn;
    agg.miiSum += r.mii * dyn;
    agg.weight += dyn;
    agg.loops += 1;
    agg.replicasStatic += r.repl.replicasAdded;
}

double
hmean(const std::vector<double> &values)
{
    double denom = 0.0;
    int n = 0;
    for (double v : values) {
        if (v <= 0.0)
            continue;
        denom += 1.0 / v;
        ++n;
    }
    return n > 0 ? n / denom : 0.0;
}

} // namespace cvliw
