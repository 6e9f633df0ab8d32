/**
 * @file
 * Modulo reservation table tests: FU slot accounting, bus occupancy
 * across consecutive (wrapping) phases, and capacity limits.
 */

#include <gtest/gtest.h>

#include "sched/reservation.hh"

namespace cvliw
{
namespace
{

TEST(Reservation, ResetClearsAndResizesInPlace)
{
    const auto m = MachineConfig::fromString("2c2b2l64r");
    ReservationTables t(m, 4);
    t.placeOp(0, ResourceKind::IntFu, 1);
    t.placeOp(1, ResourceKind::MemPort, 3);
    t.placeCopy(0);
    t.placeCopy(0);
    EXPECT_FALSE(t.canPlaceCopy(0));

    // Shrink: everything cleared, II switched.
    t.reset(m, 2);
    EXPECT_EQ(t.ii(), 2);
    EXPECT_EQ(t.opCount(0, ResourceKind::IntFu, 1), 0);
    EXPECT_EQ(t.opCount(1, ResourceKind::MemPort, 1), 0);
    EXPECT_TRUE(t.canPlaceCopy(0));
    EXPECT_EQ(t.placeCopy(0), 0);
    EXPECT_EQ(t.placeCopy(0), 1);
    EXPECT_FALSE(t.canPlaceCopy(0));

    // Grow past the original capacity.
    t.reset(m, 6);
    EXPECT_EQ(t.ii(), 6);
    for (int ph = 0; ph < 6; ++ph)
        EXPECT_EQ(t.opCount(0, ResourceKind::IntFu, ph), 0);
    EXPECT_TRUE(t.canPlaceCopy(4)); // phases 4,5 exist and are free
    t.placeCopy(4);
    EXPECT_TRUE(t.canPlaceCopy(4)); // second bus still free
    t.placeCopy(4);
    EXPECT_FALSE(t.canPlaceCopy(4));

    // A reset table behaves like a freshly built one.
    ReservationTables fresh(m, 6);
    fresh.placeCopy(4);
    fresh.placeCopy(4);
    for (int ph = 0; ph < 6; ++ph)
        EXPECT_EQ(t.canPlaceCopy(ph), fresh.canPlaceCopy(ph));
}

TEST(Reservation, ResetRearmsForAnotherMachineShape)
{
    // One table serves every machine a worker compiles for: reset
    // takes the machine and resizes to its clusters and buses.
    const auto two = MachineConfig::fromString("2c2b2l64r");
    const auto four = MachineConfig::fromString("4c1b4l64r");
    ReservationTables t;
    t.reset(two, 4);
    t.placeOp(1, ResourceKind::IntFu, 0);
    t.placeCopy(0);

    t.reset(four, 8);
    EXPECT_EQ(t.ii(), 8);
    for (int c = 0; c < 4; ++c) {
        for (int ph = 0; ph < 8; ++ph)
            EXPECT_EQ(t.opCount(c, ResourceKind::IntFu, ph), 0);
        EXPECT_TRUE(t.canPlaceOp(c, ResourceKind::IntFu, 0));
    }
    // One bus of latency 4: slots at phases 0 and 4, none between.
    EXPECT_EQ(t.busFreeAt(0), 0);
    EXPECT_EQ(t.busFreeAt(2), -1);
    EXPECT_EQ(t.placeCopy(4), 0);
    EXPECT_FALSE(t.canPlaceCopy(4));

    // And back to the smaller shape, with the two-bus capacity.
    t.reset(two, 2);
    EXPECT_EQ(t.ii(), 2);
    EXPECT_EQ(t.opCount(1, ResourceKind::IntFu, 0), 0);
    EXPECT_EQ(t.placeCopy(0), 0);
    EXPECT_EQ(t.placeCopy(0), 1);
    EXPECT_FALSE(t.canPlaceCopy(0));
}

TEST(Reservation, ProbeReturnsBusHandleForO1Placement)
{
    const auto m = MachineConfig::fromString("4c2b2l64r");
    ReservationTables t(m, 4);

    const int b0 = t.busFreeAt(0);
    EXPECT_EQ(b0, 0);
    EXPECT_EQ(t.placeCopy(0, b0), 0);

    // The probe now reports the second bus; committing the handle
    // occupies it without rescanning.
    const int b1 = t.busFreeAt(0);
    EXPECT_EQ(b1, 1);
    EXPECT_EQ(t.placeCopy(0, b1), 1);
    EXPECT_EQ(t.busFreeAt(0), -1);
    EXPECT_FALSE(t.canPlaceCopy(0));

    // Unaligned or boundary-crossing starts never yield a handle.
    EXPECT_EQ(t.busFreeAt(1), -1);
    EXPECT_EQ(t.busFreeAt(3), -1);

    t.removeCopy(1, 0);
    EXPECT_EQ(t.busFreeAt(0), 1);
}

TEST(Reservation, PhaseWrapsNegatives)
{
    const auto m = MachineConfig::fromString("2c1b2l64r");
    ReservationTables t(m, 4);
    EXPECT_EQ(t.phase(0), 0);
    EXPECT_EQ(t.phase(5), 1);
    EXPECT_EQ(t.phase(-1), 3);
    EXPECT_EQ(t.phase(-4), 0);
}

TEST(Reservation, FuCapacityPerPhase)
{
    const auto m = MachineConfig::fromString("2c1b2l64r"); // 2 int FUs
    ReservationTables t(m, 2);
    EXPECT_TRUE(t.canPlaceOp(0, ResourceKind::IntFu, 0));
    t.placeOp(0, ResourceKind::IntFu, 0);
    EXPECT_TRUE(t.canPlaceOp(0, ResourceKind::IntFu, 0));
    t.placeOp(0, ResourceKind::IntFu, 0);
    EXPECT_FALSE(t.canPlaceOp(0, ResourceKind::IntFu, 0));
    // Other phase and other cluster unaffected.
    EXPECT_TRUE(t.canPlaceOp(0, ResourceKind::IntFu, 1));
    EXPECT_TRUE(t.canPlaceOp(1, ResourceKind::IntFu, 0));
    EXPECT_EQ(t.opCount(0, ResourceKind::IntFu, 0), 2);
}

TEST(Reservation, ModuloAliasing)
{
    const auto m = MachineConfig::fromString("4c1b2l64r"); // 1 int FU
    ReservationTables t(m, 3);
    t.placeOp(2, ResourceKind::IntFu, 1);
    // Cycle 4 aliases phase 1.
    EXPECT_FALSE(t.canPlaceOp(2, ResourceKind::IntFu, 4));
    EXPECT_TRUE(t.canPlaceOp(2, ResourceKind::IntFu, 5));
}

TEST(Reservation, BusOccupiesLatencyConsecutiveSlots)
{
    const auto m = MachineConfig::fromString("4c1b2l64r"); // lat 2
    ReservationTables t(m, 4);
    EXPECT_TRUE(t.canPlaceCopy(0));
    EXPECT_EQ(t.placeCopy(0), 0); // occupies phases 0,1
    EXPECT_FALSE(t.canPlaceCopy(0));
    EXPECT_FALSE(t.canPlaceCopy(1)); // would need phases 1,2
    EXPECT_TRUE(t.canPlaceCopy(2));  // phases 2,3 free
    t.placeCopy(2);
    EXPECT_FALSE(t.canPlaceCopy(2));
    // Bus is now completely full: floor(4/2)*1 = 2 transfers.
    for (int ph = 0; ph < 4; ++ph)
        EXPECT_FALSE(t.canPlaceCopy(ph));
}

TEST(Reservation, BusSlotsAreAligned)
{
    // Slotted bus: transfers start only at multiples of the latency
    // and never wrap the II boundary, so floor(II/lat) slots exist.
    const auto m = MachineConfig::fromString("4c1b2l64r"); // lat 2
    ReservationTables t(m, 3);
    EXPECT_FALSE(t.canPlaceCopy(1)); // unaligned
    EXPECT_FALSE(t.canPlaceCopy(2)); // would cross the II boundary
    EXPECT_TRUE(t.canPlaceCopy(0));
    EXPECT_TRUE(t.canPlaceCopy(3)); // cycle 3 aliases phase 0
    t.placeCopy(0);
    EXPECT_FALSE(t.canPlaceCopy(0));
    EXPECT_FALSE(t.canPlaceCopy(3));
}

TEST(Reservation, MultipleBuses)
{
    const auto m = MachineConfig::fromString("4c2b4l64r");
    ReservationTables t(m, 4);
    EXPECT_EQ(t.placeCopy(0), 0); // bus 0 fully busy (lat 4 == II)
    EXPECT_TRUE(t.canPlaceCopy(0));
    EXPECT_EQ(t.placeCopy(0), 1); // second bus
    EXPECT_FALSE(t.canPlaceCopy(0));
    EXPECT_FALSE(t.canPlaceCopy(3));
}

TEST(Reservation, BusLongerThanIiNeverFits)
{
    const auto m = MachineConfig::fromString("4c2b4l64r"); // lat 4
    ReservationTables t(m, 3);
    EXPECT_FALSE(t.canPlaceCopy(0));
    EXPECT_FALSE(t.canPlaceCopy(1));
}

TEST(Reservation, MatchesPaperBusCapacityFormula)
{
    // floor(II/bus_lat)*buses transfers must always fit.
    for (const char *name : {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r",
                             "4c4b4l64r"}) {
        const auto m = MachineConfig::fromString(name);
        for (int ii = m.busLatency(); ii <= 3 * m.busLatency();
             ++ii) {
            ReservationTables t(m, ii);
            const int capacity =
                (ii / m.busLatency()) * m.numBuses();
            int placed = 0;
            for (int t0 = 0; t0 < ii && placed < capacity; ++t0) {
                while (placed < capacity && t.canPlaceCopy(t0)) {
                    t.placeCopy(t0);
                    ++placed;
                }
            }
            EXPECT_EQ(placed, capacity)
                << name << " II=" << ii;
        }
    }
}

} // namespace
} // namespace cvliw
