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
    if (orderGen_ != ddg.generation() || orderCfg_ != mach.id()) {
        order_ = smsOrder(ddg, mach, analyses);
        orderGen_ = ddg.generation();
        orderCfg_ = mach.id();
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

/**
 * A placement-window bound, computed in 64 bits (ii * distance can
 * exceed an int) and clamped to [intMin + ii, intMax - ii]: the scans
 * step up to ii - 1 cycles past a bound without overflowing, and no
 * bound reaches intMin, the "nothing placed" sentinel.
 */
int
windowBound(long long t, int ii)
{
    return static_cast<int>(std::clamp<long long>(
        t, static_cast<long long>(intMin) + ii,
        static_cast<long long>(intMax) - ii));
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

    const NodeTimes &times = memo.analyses.times(ddg, mach);
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
                windowBound(static_cast<long long>(start[e.src]) +
                                eff_lat[eid] -
                                static_cast<long long>(ii) * e.distance,
                            ii));
        }
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || !placed[e.dst])
                continue;
            has_succ = true;
            late = std::min(
                late,
                windowBound(static_cast<long long>(start[e.dst]) -
                                eff_lat[eid] +
                                static_cast<long long>(ii) * e.distance,
                            ii));
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
            const int base = times.asap[v];
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
    // back.
    const std::vector<int> presink_start = start;
    const std::vector<ClusterId> presink_bus = attempt.sched.busOf;
    {
        const auto &fwd = memo.analyses.topo(ddg);
        for (auto it = fwd.rbegin(); it != fwd.rend(); ++it) {
            const NodeId v = *it;
            long long late = std::numeric_limits<long long>::max();
            bool has_out = false;
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive)
                    continue;
                has_out = true;
                late = std::min(late,
                                static_cast<long long>(start[e.dst]) +
                                    static_cast<long long>(ii) *
                                        e.distance -
                                    eff_lat[eid]);
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
            const long long floor_t =
                std::max<long long>(start[v] + 1, late - ii + 1);
            for (long long t = late; t >= floor_t; --t) {
                const int ti = static_cast<int>(t);
                bool ok;
                if (is_copy) {
                    chosen_bus = tables.busFreeAt(ti);
                    ok = chosen_bus >= 0;
                } else {
                    ok = tables.canPlaceOp(cluster, kind, ti);
                }
                if (ok) {
                    chosen = ti;
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

    // Normalize so the earliest op starts within [0, II). The shift
    // must be a multiple of the II: that keeps every modulo phase
    // (and the bus slot alignment) exactly as scheduled.
    int min_start = intMax;
    for (NodeId v : ddg.nodes())
        min_start = std::min(min_start, start[v]);
    if (min_start != intMax) {
        // Floor division towards -infinity for negative starts.
        int stages = min_start / ii;
        if (min_start % ii < 0)
            --stages;
        const int shift = stages * ii;
        if (shift != 0) {
            for (NodeId v : ddg.nodes())
                start[v] -= shift;
        }
    }

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
