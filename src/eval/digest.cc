#include "eval/digest.hh"

#include <ostream>
#include <tuple>

namespace cvliw
{

void
mixCompileResult(ResultDigest &f, const CompileResult &r)
{
    f.mix(r.ok ? 1 : 0);
    if (!r.ok)
        return;
    f.mix(r.ii);
    f.mix(r.mii);
    f.mix(r.spills);
    f.mix(r.comsFinal);
    f.mix(r.usefulOps);
    f.mix(r.lengthSaved);
    f.mix(r.schedule.length);
    f.mix(r.schedule.stageCount);
    f.mix(r.schedule.start);
    f.mix(r.schedule.busOf);
    f.mix(r.schedule.maxLive);
    f.mix(r.partition.vec());
    f.mix(r.repl.comsInitial);
    f.mix(r.repl.comsRemoved);
    f.mix(r.repl.replicasAdded);
    f.mix(r.repl.instructionsRemoved);
    f.mix(static_cast<int>(r.iiIncreases.size()));
    for (FailCause c : r.iiIncreases)
        f.mix(static_cast<int>(c));
}

std::uint64_t
digestSuiteResult(const SuiteResult &results)
{
    ResultDigest f;
    for (const CompileResult &r : results.loops)
        mixCompileResult(f, r);
    return f.h;
}

bool
SuiteWork::operator==(const SuiteWork &o) const
{
    return std::tie(iiAttempts, refineProbes, refineCommits, asapRuns,
                    widthSweeps, analysisRuns, replicationRounds,
                    resultBytes) ==
           std::tie(o.iiAttempts, o.refineProbes, o.refineCommits,
                    o.asapRuns, o.widthSweeps, o.analysisRuns,
                    o.replicationRounds, o.resultBytes);
}

SuiteWork
sumSuiteWork(const SuiteResult &results)
{
    SuiteWork w;
    for (const CompileResult &r : results.loops) {
        const CompileTelemetry &t = r.telemetry;
        w.iiAttempts += t.iiAttempts;
        w.refineProbes += t.refineProbes;
        w.refineCommits += t.refineCommits;
        w.asapRuns += t.asapRuns;
        w.widthSweeps += t.widthSweeps;
        w.analysisRuns += t.analysisRuns;
        w.replicationRounds += t.replicationRounds;
        w.resultBytes += r.finalDdg.ownedBytes();
    }
    return w;
}

std::ostream &
operator<<(std::ostream &os, const SuiteWork &w)
{
    return os << "iiAttempts=" << w.iiAttempts
              << " refineProbes=" << w.refineProbes
              << " refineCommits=" << w.refineCommits
              << " asapRuns=" << w.asapRuns
              << " widthSweeps=" << w.widthSweeps
              << " analysisRuns=" << w.analysisRuns
              << " replicationRounds=" << w.replicationRounds
              << " resultBytes=" << w.resultBytes;
}

} // namespace cvliw
