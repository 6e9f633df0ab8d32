#include "sched/reservation.hh"

#include "support/logging.hh"

namespace cvliw
{

void
ReservationTables::reset(const MachineConfig &mach, int ii)
{
    cv_assert(ii >= 1, "II must be >= 1");
    mach_ = &mach;
    ii_ = ii;
    used_.resize(static_cast<std::size_t>(ResourceKind::NumResourceKinds));
    for (auto &kind : used_) {
        kind.resize(mach.numClusters());
        for (auto &cluster : kind)
            cluster.assign(ii, 0);
    }
    busBusy_.resize(mach.numBuses());
    for (auto &bus : busBusy_)
        bus.assign(ii, false);
}

bool
ReservationTables::canPlaceOp(int cluster, ResourceKind kind,
                              int t) const
{
    cv_assert(kind != ResourceKind::Bus,
              "use canPlaceCopy for bus transfers");
    const int avail = mach_->available(kind);
    if (avail == 0)
        return false;
    return used_[static_cast<std::size_t>(kind)][cluster][phase(t)] <
           avail;
}

void
ReservationTables::placeOp(int cluster, ResourceKind kind, int t)
{
    cv_assert(canPlaceOp(cluster, kind, t), "overbooked ",
              toString(kind), " in cluster ", cluster, " phase ",
              phase(t));
    ++used_[static_cast<std::size_t>(kind)][cluster][phase(t)];
}

int
ReservationTables::busFreeAt(int t) const
{
    const int lat = mach_->busLatency();
    if (lat > ii_)
        return -1; // a transfer cannot even fit into one II
    // Slotted bus: transfers start on latency-aligned phases only
    // and never wrap past the II boundary.
    const int ph = phase(t);
    if (ph % lat != 0 || ph + lat > ii_)
        return -1;
    for (int b = 0; b < mach_->numBuses(); ++b) {
        bool free = true;
        for (int k = 0; k < lat && free; ++k)
            free = !busBusy_[b][ph + k];
        if (free)
            return b;
    }
    return -1;
}

bool
ReservationTables::canPlaceCopy(int t) const
{
    return busFreeAt(t) >= 0;
}

int
ReservationTables::placeCopy(int t)
{
    return placeCopy(t, busFreeAt(t));
}

int
ReservationTables::placeCopy(int t, int bus)
{
    cv_assert(bus >= 0 && bus < mach_->numBuses(),
              "no free bus at phase ", phase(t));
    for (int k = 0; k < mach_->busLatency(); ++k) {
        cv_assert(!busBusy_[bus][phase(t) + k],
                  "stale bus handle for phase ", phase(t));
        busBusy_[bus][phase(t) + k] = true;
    }
    return bus;
}

void
ReservationTables::removeOp(int cluster, ResourceKind kind, int t)
{
    int &count = used_[static_cast<std::size_t>(kind)][cluster]
                      [phase(t)];
    cv_assert(count > 0, "removing unplaced ", toString(kind));
    --count;
}

void
ReservationTables::removeCopy(int bus, int t)
{
    cv_assert(bus >= 0 && bus < mach_->numBuses(), "bad bus ", bus);
    for (int k = 0; k < mach_->busLatency(); ++k) {
        cv_assert(busBusy_[bus][phase(t) + k], "removing idle bus");
        busBusy_[bus][phase(t) + k] = false;
    }
}

int
ReservationTables::opCount(int cluster, ResourceKind kind, int t) const
{
    return used_[static_cast<std::size_t>(kind)][cluster][phase(t)];
}

} // namespace cvliw
