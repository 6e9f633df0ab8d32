/**
 * @file
 * Modulo reservation tables: per-cluster functional-unit slots and
 * the shared inter-cluster buses. A regular op occupies one unit of
 * its resource kind for one cycle (FUs are fully pipelined); a copy
 * occupies one bus for bus-latency consecutive cycles.
 *
 * The bus is *slotted*: transfers start only at phases that are
 * multiples of the bus latency, so an II holds exactly
 * floor(II/bus_lat) transfer slots per bus. This realizes the
 * paper's capacity formula bus_coms = floor(II/bus_lat) * nof_buses
 * exactly (an unslotted greedy packing could strand capacity through
 * fragmentation and defeat the extra_coms accounting of section 3).
 */

#ifndef CVLIW_SCHED_RESERVATION_HH
#define CVLIW_SCHED_RESERVATION_HH

#include <vector>

#include "machine/config.hh"

namespace cvliw
{

/**
 * Reservation state for one scheduling attempt at a fixed II. The
 * object is reusable: reset(mach, ii) re-arms it for the next attempt
 * without releasing the table storage, so a compile keeps one
 * instance across II bumps, spill retries and whole compiles (see
 * CompileCaches).
 */
class ReservationTables
{
  public:
    /** Unarmed tables: call reset() before anything else. */
    ReservationTables() = default;

    ReservationTables(const MachineConfig &mach, int ii)
    {
        reset(mach, ii);
    }

    /**
     * Clear all reservations and arm the tables for @p mach at
     * @p ii, resizing them in place to the machine's shape (capacity
     * is kept when shrinking). @p mach is borrowed until the next
     * reset().
     */
    void reset(const MachineConfig &mach, int ii);

    int ii() const { return ii_; }

    /** Phase of an absolute cycle (handles negative cycles). */
    int phase(int t) const { return ((t % ii_) + ii_) % ii_; }

    /** Can a @p kind op start at absolute cycle @p t in @p cluster? */
    bool canPlaceOp(int cluster, ResourceKind kind, int t) const;

    /** Commit a @p kind op at cycle @p t in @p cluster. */
    void placeOp(int cluster, ResourceKind kind, int t);

    /** Can a copy (bus transfer) start at absolute cycle @p t? */
    bool canPlaceCopy(int t) const;

    /**
     * Probe for a copy at absolute cycle @p t: the free bus that a
     * placement would use, or -1 when none fits. Pass the handle to
     * placeCopy(t, bus) to commit without re-scanning.
     */
    int busFreeAt(int t) const;

    /** Commit a copy at cycle @p t; returns the bus used. */
    int placeCopy(int t);

    /**
     * Commit a copy at cycle @p t on @p bus, as returned by a
     * busFreeAt(t) probe with no intervening mutation. O(bus latency),
     * no bus scan.
     */
    int placeCopy(int t, int bus);

    /** Release a previously placed op (used by the sink pass). */
    void removeOp(int cluster, ResourceKind kind, int t);

    /** Release a previously placed copy on @p bus at cycle @p t. */
    void removeCopy(int bus, int t);

    /** Ops of @p kind currently placed at @p cluster/@p t. */
    int opCount(int cluster, ResourceKind kind, int t) const;

  private:
    const MachineConfig *mach_ = nullptr;
    int ii_ = 0;
    // used_[kind][cluster][phase]
    std::vector<std::vector<std::vector<int>>> used_;
    // busBusy_[bus][phase]
    std::vector<std::vector<bool>> busBusy_;
};

} // namespace cvliw

#endif // CVLIW_SCHED_RESERVATION_HH
