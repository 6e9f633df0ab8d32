#include "sched/scheduler.hh"

#include <algorithm>
#include <limits>

#include "ddg/analysis.hh"
#include "sched/regpressure.hh"
#include "sched/reservation.hh"
#include "sched/sms_order.hh"
#include "support/logging.hh"

namespace cvliw
{

const char *
toString(FailCause cause)
{
    switch (cause) {
      case FailCause::None:       return "none";
      case FailCause::Bus:        return "bus";
      case FailCause::Recurrence: return "recurrence";
      case FailCause::Registers:  return "registers";
      case FailCause::Resources:  return "resources";
      default: cv_panic("bad FailCause");
    }
}

const std::vector<NodeId> &
SchedulerCache::order(const Ddg &ddg, const MachineConfig &mach)
{
    // The order is a function of the analysis: recompute it exactly
    // when the analysis memo does.
    const LoopAnalysis &analysis = analyses.get(ddg, mach);
    if (orderRun_ != analyses.runs()) {
        order_ = smsOrder(ddg, analysis);
        orderRun_ = analyses.runs();
    }
    return order_;
}

ReservationTables &
SchedulerCache::tables(const MachineConfig &mach, int ii)
{
    // Tables hold a reference to their machine: reset in place only
    // when the caller passes the *same object* again (same address
    // AND same stamp - a copy shares the stamp but may outlive the
    // original, and re-stamping reuses addresses). Anything else
    // re-emplaces, which also rebinds the reference.
    if (!tables_ || tablesCfg_ != mach.id() ||
        tablesMach_ != &mach) {
        tables_.emplace(mach, ii);
        tablesCfg_ = mach.id();
        tablesMach_ = &mach;
    } else {
        tables_->reset(ii);
    }
    return *tables_;
}

namespace
{

constexpr int intMin = std::numeric_limits<int>::min();
constexpr int intMax = std::numeric_limits<int>::max();

/** Largest magnitude a window bound is clamped to. */
constexpr long long kBoundLimit = 1 << 29;

/*
 * Window bounds are computed in 64 bits (ii * distance can exceed an
 * int) and clamped only where that narrows the window: an early bound
 * is raised to -kBoundLimit and a late bound lowered to kBoundLimit.
 * Clamping the other way would let a consumer start before its
 * producer's value exists. The clamps keep every start within
 * kBoundLimit of 0 plus the latencies and scan slack of a chain, so
 * the normalised starts, start + latency, the length and the stage
 * count fit an int, and no bound reaches intMin, the "nothing placed"
 * sentinel. Neither cast truncates: distances are >= 0, so an early
 * bound is at most start(src) + lat and a late bound at least
 * start(dst) - lat.
 */

/** Lower bound start(src) + lat - ii * distance on a consumer. */
int
earlyBound(long long t)
{
    return static_cast<int>(std::max(t, -kBoundLimit));
}

/** Upper bound start(dst) - lat + ii * distance on a producer. */
int
lateBound(long long t)
{
    return static_cast<int>(std::min(t, kBoundLimit));
}

/**
 * Shift the live starts by a multiple of the II, which keeps every
 * modulo phase and bus slot, so the earliest lies in [0, II).
 * computeMaxLive reads a start of -1 as "unscheduled".
 */
void
normalizeStarts(const Ddg &ddg, int ii, std::vector<int> &start)
{
    int min_start = intMax;
    for (NodeId v : ddg.nodes())
        min_start = std::min(min_start, start[v]);
    // Round down to a multiple of the II, negative starts included.
    const int shift = min_start - (min_start % ii + ii) % ii;
    for (NodeId v : ddg.nodes())
        start[v] -= shift;
}

} // namespace

ScheduleAttempt
scheduleAtIi(const Ddg &ddg, const MachineConfig &mach,
             const Partition &part, int ii, const SchedulerOptions &opts,
             SchedulerCache *cache)
{
    ScheduleAttempt attempt;
    attempt.sched.ii = ii;
    attempt.sched.start.assign(ddg.numNodeSlots(), -1);
    attempt.sched.busOf.assign(ddg.numNodeSlots(), -1);

    SchedulerCache local_cache;
    SchedulerCache &memo = cache ? *cache : local_cache;

    const LoopAnalysis &analysis = memo.analyses.get(ddg, mach);
    const auto &order = memo.order(ddg, mach);
    ReservationTables &tables = memo.tables(mach, ii);

    // Effective per-edge latency, resolved once: the placement loop
    // and the sink pass read it once per (node, incident edge) visit,
    // and the zero-bus-latency variant's branch must not be paid
    // there.
    std::vector<int> eff_lat(ddg.numEdgeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (opts.zeroBusLatencyForLength &&
            e.kind == EdgeKind::RegFlow &&
            ddg.node(e.src).cls == OpClass::Copy) {
            eff_lat[eid] = 0;
        } else {
            eff_lat[eid] = ddg.edgeLatency(eid, mach);
        }
    }

    std::vector<bool> placed(ddg.numNodeSlots(), false);
    std::vector<int> &start = attempt.sched.start;

    for (NodeId v : order) {
        const DdgNode &node = ddg.node(v);
        const bool is_copy = node.cls == OpClass::Copy;
        const int cluster = part.clusterOf(v);
        const ResourceKind kind = mach.resourceFor(node.cls);

        // Placement window from already-scheduled neighbours.
        int early = intMin, late = intMax;
        bool has_pred = false, has_succ = false;
        for (EdgeId eid : ddg.inEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || !placed[e.src])
                continue;
            has_pred = true;
            early = std::max(
                early,
                earlyBound(static_cast<long long>(start[e.src]) +
                           eff_lat[eid] -
                           static_cast<long long>(ii) * e.distance));
        }
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || !placed[e.dst])
                continue;
            has_succ = true;
            late = std::min(
                late,
                lateBound(static_cast<long long>(start[e.dst]) -
                          eff_lat[eid] +
                          static_cast<long long>(ii) * e.distance));
        }

        // For copies the probe also yields the bus handle, so the
        // commit below never re-scans the buses.
        int probe_bus = -1;
        auto fits = [&](int t) {
            if (is_copy) {
                probe_bus = tables.busFreeAt(t);
                return probe_bus >= 0;
            }
            return tables.canPlaceOp(cluster, kind, t);
        };

        int chosen = intMin;
        bool sandwiched = false;
        if (!has_pred && !has_succ) {
            const int base = analysis.times.asap[v];
            for (int t = base; t < base + ii; ++t) {
                if (fits(t)) {
                    chosen = t;
                    break;
                }
            }
        } else if (has_pred && !has_succ) {
            for (int t = early; t < early + ii; ++t) {
                if (fits(t)) {
                    chosen = t;
                    break;
                }
            }
        } else if (!has_pred && has_succ) {
            for (int t = late; t > late - ii; --t) {
                if (fits(t)) {
                    chosen = t;
                    break;
                }
            }
        } else {
            sandwiched = true;
            const int hi = std::min(late, early + ii - 1);
            for (int t = early; t <= hi; ++t) {
                if (fits(t)) {
                    chosen = t;
                    break;
                }
            }
        }

        if (chosen == intMin) {
            attempt.ok = false;
            attempt.failedNode = v;
            if (is_copy)
                attempt.cause = FailCause::Bus;
            else if (sandwiched)
                attempt.cause = FailCause::Recurrence;
            else
                attempt.cause = FailCause::Resources;
            return attempt;
        }

        if (is_copy)
            attempt.sched.busOf[v] = static_cast<ClusterId>(
                tables.placeCopy(chosen, probe_bus));
        else
            tables.placeOp(cluster, kind, chosen);
        start[v] = chosen;
        placed[v] = true;
    }

    // --- Sink pass -------------------------------------------------
    // Move every producer as late as its consumers allow (reverse
    // topological sweep). This shortens value lifetimes - the role
    // the bidirectional ordering plays in full SMS - which is what
    // lets MaxLive drop below the register budget as the II grows.
    // If the pass happens to worsen the pressure (copies extend
    // their source's home-cluster lifetime when sunk), it is rolled
    // back. Placement may have started nodes at negative cycles, so
    // normalise before the roll-back check reads MaxLive.
    normalizeStarts(ddg, ii, start);
    const std::vector<int> presink_start = start;
    const std::vector<ClusterId> presink_bus = attempt.sched.busOf;
    {
        const auto &fwd = analysis.order;
        for (auto it = fwd.rbegin(); it != fwd.rend(); ++it) {
            const NodeId v = *it;
            int late = intMax;
            bool has_out = false;
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive)
                    continue;
                has_out = true;
                late = std::min(
                    late,
                    lateBound(static_cast<long long>(start[e.dst]) -
                              eff_lat[eid] +
                              static_cast<long long>(ii) * e.distance));
            }
            if (!has_out || late <= start[v])
                continue;

            const DdgNode &node = ddg.node(v);
            const bool is_copy = node.cls == OpClass::Copy;
            const int cluster = part.clusterOf(v);
            const ResourceKind kind = mach.resourceFor(node.cls);

            if (is_copy)
                tables.removeCopy(attempt.sched.busOf[v], start[v]);
            else
                tables.removeOp(cluster, kind, start[v]);

            // Phases repeat with period II: scanning one II below
            // the upper bound suffices.
            int chosen = start[v];
            int chosen_bus = -1;
            const int floor_t = std::max(start[v] + 1, late - ii + 1);
            for (int t = late; t >= floor_t; --t) {
                bool ok;
                if (is_copy) {
                    chosen_bus = tables.busFreeAt(t);
                    ok = chosen_bus >= 0;
                } else {
                    ok = tables.canPlaceOp(cluster, kind, t);
                }
                if (ok) {
                    chosen = t;
                    break;
                }
            }
            if (is_copy) {
                // chosen_bus belongs to the scan hit; when no later
                // slot fit, the copy goes back to its old cycle and
                // the probe must be redone there.
                attempt.sched.busOf[v] = static_cast<ClusterId>(
                    chosen == start[v]
                        ? tables.placeCopy(chosen)
                        : tables.placeCopy(chosen, chosen_bus));
            } else {
                tables.placeOp(cluster, kind, chosen);
            }
            start[v] = chosen;
        }

        // Keep the sunk schedule only if it did not increase the
        // worst per-cluster pressure.
        const auto live_before =
            computeMaxLive(ddg, mach, part, presink_start, ii);
        const auto live_after =
            computeMaxLive(ddg, mach, part, start, ii);
        const int worst_before =
            *std::max_element(live_before.begin(),
                              live_before.end());
        const int worst_after = *std::max_element(
            live_after.begin(), live_after.end());
        if (worst_after > worst_before) {
            start = presink_start;
            attempt.sched.busOf = presink_bus;
        }
    }

    // Sinking may have moved every start up by whole stages.
    normalizeStarts(ddg, ii, start);

    // Length: cycles until every result of one iteration is produced.
    int length = 1;
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        int lat;
        if (node.cls == OpClass::Copy)
            lat = opts.zeroBusLatencyForLength ? 0 : mach.busLatency();
        else
            lat = mach.latency(node.cls);
        length = std::max(length, start[v] + lat);
    }
    attempt.sched.length = length;
    attempt.sched.stageCount = (length + ii - 1) / ii;

    attempt.sched.maxLive =
        computeMaxLive(ddg, mach, part, start, ii);
    for (int c = 0; c < mach.numClusters(); ++c) {
        if (attempt.sched.maxLive[c] > mach.regsPerCluster()) {
            attempt.ok = false;
            attempt.cause = FailCause::Registers;
            return attempt;
        }
    }

    attempt.ok = true;
    attempt.cause = FailCause::None;
    return attempt;
}

} // namespace cvliw
