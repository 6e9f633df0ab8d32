#include "sched/pseudo.hh"

#include <algorithm>
#include <tuple>

#include "sched/comms.hh"
#include "support/logging.hh"

namespace cvliw
{

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

/**
 * ASAP times over distance-0 edges where cut register-flow edges pay
 * the bus latency. Shared by the length estimate and the register
 * sweep (their time bases are the same), and by the from-scratch and
 * delta paths (which is what keeps them bit-identical).
 */
void
asapWithBusPenalty(const Ddg &ddg, const MachineConfig &mach,
                   const std::vector<ClusterId> &cluster_of,
                   const std::vector<NodeId> &order,
                   std::vector<int> &est)
{
    est.assign(ddg.numNodeSlots(), 0);
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            int lat = ddg.edgeLatency(eid, mach);
            if (e.kind == EdgeKind::RegFlow &&
                cluster_of[e.src] != cluster_of[e.dst]) {
                lat += mach.busLatency();
            }
            est[n] = std::max(est[n], est[e.src] + lat);
        }
    }
}

/** Schedule length: all results of one iteration produced. */
int
lengthFromAsap(const Ddg &ddg, const MachineConfig &mach,
               const std::vector<NodeId> &order,
               const std::vector<int> &est)
{
    int length = 0;
    for (NodeId n : order) {
        length = std::max(length,
                          est[n] + mach.latency(ddg.node(n).cls));
    }
    return length;
}

/**
 * Register-width sweep: one interval per *instance* of each value.
 * The home cluster holds it from definition to its last local read
 * (the broadcast copy reads locally around the definition); every
 * remote consumer cluster holds a bus-delivered instance from
 * arrival to its last read there. Loop-carried consumers pin one
 * permanently live instance per iteration of distance. All buffers
 * are caller-owned and reused across calls.
 */
void
widthSweep(const Ddg &ddg, const MachineConfig &mach,
           const std::vector<ClusterId> &cluster_of,
           const std::vector<int> &asap,
           std::vector<std::vector<std::pair<int, int>>> &events,
           std::vector<int> &carried, std::vector<int> &last,
           std::vector<int> &max_dist, std::vector<int> &width)
{
    const int clusters = mach.numClusters();
    events.resize(clusters);
    for (auto &ev : events)
        ev.clear();
    carried.assign(clusters, 0);

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls) || node.cls == OpClass::Copy)
            continue;
        const int home = cluster_of[v];
        const int def = asap[v] + mach.latency(node.cls);

        last.assign(clusters, -1);
        max_dist.assign(clusters, 0);
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            const int c = cluster_of[e.dst];
            if (e.distance == 0)
                last[c] = std::max(last[c], asap[e.dst]);
            else
                max_dist[c] = std::max(max_dist[c], e.distance);
        }
        for (int c = 0; c < clusters; ++c) {
            if (last[c] < 0 && max_dist[c] == 0)
                continue;
            const int begin =
                c == home ? def : def + mach.busLatency();
            if (last[c] > begin) {
                events[c].push_back({begin, +1});
                events[c].push_back({last[c], -1});
            }
            carried[c] += max_dist[c];
        }
    }

    width.assign(clusters, 0);
    for (int c = 0; c < clusters; ++c) {
        std::sort(events[c].begin(), events[c].end());
        int live = 0, peak = 0;
        for (const auto &[t, delta] : events[c]) {
            (void)t;
            live += delta;
            peak = std::max(peak, live);
        }
        width[c] = peak + carried[c];
    }
}

/**
 * Resource-induced II and slot overflow from kind-major usage
 * counts. @p overflow is accumulated into (callers start it at the
 * bus contribution or zero).
 */
void
resourcePressure(const MachineConfig &mach, const int *usage,
                 int clusters, int ii, int &ii_res, int &overflow)
{
    ii_res = 1;
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        const int avail = mach.available(kind);
        for (int c = 0; c < clusters; ++c) {
            const int u = usage[k * static_cast<std::size_t>(clusters) +
                                static_cast<std::size_t>(c)];
            if (!u)
                continue;
            if (avail == 0) {
                // Unschedulable partition: huge penalty.
                overflow += 1000 * u;
                continue;
            }
            ii_res = std::max(ii_res, (u + avail - 1) / avail);
            overflow += std::max(0, u - avail * ii);
        }
    }
}

} // namespace

bool
PseudoResult::better(const PseudoResult &o) const
{
    const int my_deficit = overflow + regOverflow;
    const int other_deficit = o.overflow + o.regOverflow;
    return std::tie(iiPart, my_deficit, comms, length, imbalance) <
           std::tie(o.iiPart, other_deficit, o.comms, o.length,
                    o.imbalance);
}

PseudoResult
pseudoSchedule(const Ddg &ddg, const MachineConfig &mach,
               const LoopAnalysis &analysis,
               const std::vector<ClusterId> &cluster_of, int ii,
               PseudoScratch &scratch)
{
    PseudoResult r;

    // --- Resource pressure per (kind, cluster). -----------------------
    const int clusters = mach.numClusters();
    std::vector<int> &usage = scratch.usageFull_;
    std::vector<int> &ops_in_cluster = scratch.opsFull_;
    usage.assign(numKinds * static_cast<std::size_t>(clusters), 0);
    ops_in_cluster.assign(clusters, 0);

    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls == OpClass::Copy)
            continue;
        const int c = cluster_of[n];
        cv_assert(c >= 0 && c < clusters, "bad cluster for node ", n);
        ++usage[static_cast<std::size_t>(mach.resourceFor(cls)) *
                    static_cast<std::size_t>(clusters) +
                static_cast<std::size_t>(c)];
        ++ops_in_cluster[c];
    }

    int ii_res = 1;
    resourcePressure(mach, usage.data(), clusters, ii, ii_res,
                     r.overflow);

    // --- Bus pressure. -------------------------------------------------
    const CommInfo comms = findCommunications(ddg, cluster_of);
    r.comms = comms.count();
    const int ii_bus = minBusIi(r.comms, mach);
    r.overflow += extraComs(r.comms, mach, ii);

    r.iiPart = std::max(ii_res, ii_bus);

    // --- Estimated length: ASAP where cut flow edges pay the bus. -----
    ++scratch.asapRuns_;
    asapWithBusPenalty(ddg, mach, cluster_of, analysis.order,
                       scratch.est_);
    r.length = lengthFromAsap(ddg, mach, analysis.order, scratch.est_);

    // --- Register width. ------------------------------------------------
    ++scratch.widthSweeps_;
    widthSweep(ddg, mach, cluster_of, scratch.est_, scratch.events_,
               scratch.carried_, scratch.last_, scratch.maxDist_,
               scratch.width_);
    for (int c = 0; c < clusters; ++c) {
        r.regOverflow +=
            std::max(0, scratch.width_[c] - mach.regsPerCluster());
    }

    // --- Imbalance. ----------------------------------------------------
    const auto [mn, mx] = std::minmax_element(ops_in_cluster.begin(),
                                              ops_in_cluster.end());
    r.imbalance = *mx - *mn;

    return r;
}

PseudoResult
PseudoScratch::bind(const Ddg &ddg, const MachineConfig &mach,
                    const LoopAnalysis &analysis,
                    const std::vector<ClusterId> &cluster_of, int ii)
{
    ddg_ = &ddg;
    mach_ = &mach;
    order_ = &analysis.order;
    ii_ = ii;
    clusters_ = mach.numClusters();
    const int slots = ddg.numNodeSlots();

    assign_.assign(cluster_of.begin(), cluster_of.end());
    usage_.assign(numKinds * static_cast<std::size_t>(clusters_), 0);
    ops_.assign(clusters_, 0);
    consCnt_.assign(static_cast<std::size_t>(slots) *
                        static_cast<std::size_t>(clusters_),
                    0);
    remoteCnt_.assign(slots, 0);
    tracked_.assign(slots, 0);
    commCount_ = 0;

    int producers = 0;
    long long dist_sum = 0;
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls != OpClass::Copy) {
            const int c = assign_[n];
            cv_assert(c >= 0 && c < clusters_,
                      "bad cluster for node ", n);
            ++usage_[static_cast<std::size_t>(mach.resourceFor(cls)) *
                         static_cast<std::size_t>(clusters_) +
                     static_cast<std::size_t>(c)];
            ++ops_[c];
        }
        tracked_[n] =
            cls != OpClass::Copy && producesValue(cls) ? 1 : 0;
    }
    for (NodeId n : ddg.nodes()) {
        if (!tracked_[n])
            continue;
        ++producers;
        int *cnt = &consCnt_[static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(clusters_)];
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            dist_sum += e.distance;
            // A consumer that is a copy of this very value does not
            // count; copies are inserted after this analysis runs.
            if (ddg.node(e.dst).cls == OpClass::Copy)
                continue;
            ++cnt[assign_[e.dst]];
        }
        int rc = 0;
        for (int c = 0; c < clusters_; ++c) {
            if (c != assign_[n] && cnt[c] > 0)
                ++rc;
        }
        remoteCnt_[n] = rc;
        if (rc > 0)
            ++commCount_;
    }

    // Assignment-independent width bound: any cluster's peak is at
    // most one interval per producer, plus at most the total carried
    // distance. Below the register file, the sweep can never report
    // an overflow for any assignment, so probes skip it wholesale.
    widthCanOverflow_ =
        producers + dist_sum > mach.regsPerCluster();

    return pseudoSchedule(ddg, mach, analysis, assign_, ii, *this);
}

void
PseudoScratch::applyMove(NodeId n, int to)
{
    const Ddg &ddg = *ddg_;
    const int from = assign_[n];
    const DdgNode &node = ddg.node(n);

    if (node.cls != OpClass::Copy) {
        const auto k =
            static_cast<std::size_t>(mach_->resourceFor(node.cls));
        --usage_[k * static_cast<std::size_t>(clusters_) +
                 static_cast<std::size_t>(from)];
        ++usage_[k * static_cast<std::size_t>(clusters_) +
                 static_cast<std::size_t>(to)];
        --ops_[from];
        ++ops_[to];
    }

    // n's own produced value is rechecked wholesale below; drop its
    // current contribution first.
    if (tracked_[n] && remoteCnt_[n] > 0)
        --commCount_;

    // Every producer feeding n loses a consumer in `from` and gains
    // one in `to`.
    for (EdgeId eid : ddg.inEdgesRaw(n)) {
        const DdgEdge &e = ddg.edge(eid);
        if (!e.alive || e.kind != EdgeKind::RegFlow)
            continue;
        const NodeId p = e.src;
        if (!tracked_[p])
            continue;
        int *cnt = &consCnt_[static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(clusters_)];
        if (p == n) {
            // Self-recurrence: folded into the wholesale recheck.
            --cnt[from];
            ++cnt[to];
            continue;
        }
        const int p_home = assign_[p];
        if (--cnt[from] == 0 && from != p_home) {
            if (--remoteCnt_[p] == 0)
                --commCount_;
        }
        if (cnt[to]++ == 0 && to != p_home) {
            if (remoteCnt_[p]++ == 0)
                ++commCount_;
        }
    }

    assign_[n] = static_cast<ClusterId>(to);

    if (tracked_[n]) {
        const int *cnt = &consCnt_[static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(clusters_)];
        int rc = 0;
        for (int c = 0; c < clusters_; ++c) {
            if (c != to && cnt[c] > 0)
                ++rc;
        }
        remoteCnt_[n] = rc;
        if (rc > 0)
            ++commCount_;
    }
}

bool
PseudoScratch::evalAgainst(const PseudoResult &best, PseudoResult &out)
{
    const Ddg &ddg = *ddg_;
    const MachineConfig &mach = *mach_;
    PseudoResult r;

    // Cheap fields first: resource/bus pressure, comms, imbalance.
    int ii_res = 1;
    resourcePressure(mach, usage_.data(), clusters_, ii_, ii_res,
                     r.overflow);
    r.comms = commCount_;
    const int ii_bus = minBusIi(r.comms, mach);
    r.overflow += extraComs(r.comms, mach, ii_);
    r.iiPart = std::max(ii_res, ii_bus);
    const auto [mn, mx] =
        std::minmax_element(ops_.begin(), ops_.end());
    r.imbalance = *mx - *mn;

    if (r.iiPart > best.iiPart)
        return false;
    const bool accept_on_ii = r.iiPart < best.iiPart;
    const int best_deficit = best.overflow + best.regOverflow;

    const std::vector<NodeId> &order = *order_;
    bool have_est = false;
    auto ensure_est = [&] {
        if (!have_est) {
            ++asapRuns_;
            asapWithBusPenalty(ddg, mach, assign_, order, est_);
            have_est = true;
        }
    };
    bool have_length = false;
    auto ensure_length = [&] {
        if (!have_length) {
            ensure_est();
            r.length = lengthFromAsap(ddg, mach, order, est_);
            have_length = true;
        }
    };
    // With the deficits tied, does the move lose on (comms, length,
    // imbalance)?
    auto loses_after_deficit = [&] {
        if (r.comms != best.comms)
            return r.comms > best.comms;
        ensure_length();
        return std::tie(r.length, r.imbalance) >=
               std::tie(best.length, best.imbalance);
    };

    if (!accept_on_ii) {
        // regOverflow >= 0, so the resource overflow alone can already
        // sink the deficit comparison. At a tie the deficit can only
        // tie or lose, so a move that loses on the later keys loses
        // either way, and the register sweep is not needed to say so.
        if (r.overflow > best_deficit)
            return false;
        if (r.overflow == best_deficit && loses_after_deficit())
            return false;
    }

    if (widthCanOverflow_) {
        ensure_est();
        ++widthSweeps_;
        widthSweep(ddg, mach, assign_, est_, events_, carried_, last_,
                   maxDist_, width_);
        for (int c = 0; c < clusters_; ++c) {
            r.regOverflow +=
                std::max(0, width_[c] - mach.regsPerCluster());
        }
    }

    if (!accept_on_ii) {
        const int deficit = r.overflow + r.regOverflow;
        if (deficit > best_deficit)
            return false;
        if (deficit == best_deficit && loses_after_deficit())
            return false;
    }

    ensure_length();
    out = r;
    return true;
}

bool
PseudoScratch::probeMove(NodeId n, int c, const PseudoResult &best,
                         PseudoResult &out)
{
    cv_assert(ddg_ != nullptr, "probeMove before bind");
    cv_assert(ddg_->node(n).cls != OpClass::Copy,
              "refinement does not move copies");
    ++probes_;
    const int from = assign_[n];
    if (c == from)
        return false;
    applyMove(n, c);
    const bool accepted = evalAgainst(best, out);
    applyMove(n, from);
    return accepted;
}

void
PseudoScratch::commitMove(NodeId n, int c)
{
    cv_assert(ddg_ != nullptr, "commitMove before bind");
    ++commits_;
    if (c == assign_[n])
        return;
    applyMove(n, c);
}

} // namespace cvliw
