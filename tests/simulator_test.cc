/**
 * @file
 * Functional simulator tests: the reference interpreter's
 * determinism, value equality for replicated/copied code, and
 * detection of miswired graphs.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "ddg/builder.hh"
#include "expect_invalid.hh"
#include "paper_graph.hh"
#include "vliw/reference.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

TEST(Reference, DeterministicAcrossRuns)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.flow("f", "f", 1);
    const Ddg g = b.take();
    const ReferenceInterpreter r1(g, 6), r2(g, 6);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(r1.value(b.id("f"), i), r2.value(b.id("f"), i));
    }
}

TEST(Reference, RecurrenceChainsValues)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1);
    const Ddg g = b.take();
    const ReferenceInterpreter ref(g, 4);
    // Different iterations must produce different values (the value
    // chain depends on the previous iteration).
    EXPECT_NE(ref.value(b.id("acc"), 0), ref.value(b.id("acc"), 1));
    EXPECT_NE(ref.value(b.id("acc"), 1), ref.value(b.id("acc"), 2));
}

TEST(Reference, LiveInsAreSeedDependent)
{
    EXPECT_NE(liveInValue(1, 0, -1), liveInValue(2, 0, -1));
    EXPECT_NE(liveInValue(1, 0, -1), liveInValue(1, 1, -1));
    EXPECT_NE(liveInValue(1, 0, -1), liveInValue(1, 0, -2));
}

TEST(Simulator, ValidatesUnifiedPipelineOutput)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpMul, {"ld"});
    b.op("g2", OpClass::FpAlu, {"f"});
    b.flow("g2", "g2", 1);
    b.op("st", OpClass::Store, {"g2"});
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);
    const auto rep =
        simulate(r.finalDdg, m, r.partition, r.schedule, g);
    EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? ""
                                               : rep.errors.front());
    EXPECT_GT(rep.valuesChecked, 0);
}

TEST(Simulator, ValidatesReplicatedPaperExample)
{
    PaperExample ex;
    const Ddg original = ex.ddg; // keep a pristine copy
    const auto r = compile(original, ex.mach);
    ASSERT_TRUE(r.ok);
    ASSERT_GT(r.repl.replicasAdded, 0);
    const auto rep = simulate(r.finalDdg, ex.mach, r.partition,
                              r.schedule, original, 10);
    EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? ""
                                               : rep.errors.front());
}

TEST(Simulator, NoIterationsThrowsBeforeAnyCheck)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("st", OpClass::Store, {"ld"});
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    const auto r = compile(g, m);
    ASSERT_TRUE(r.ok);
    EXPECT_INVALID_ARGUMENT(
        simulate(r.finalDdg, m, r.partition, r.schedule, g, 0),
        "iterations 0 < 1");
    // A schedule the checker rejects still throws first.
    Schedule broken = r.schedule;
    broken.ii = 0;
    EXPECT_INVALID_ARGUMENT(
        simulate(r.finalDdg, m, r.partition, broken, g, -2),
        "iterations -2 < 1");
    EXPECT_INVALID_ARGUMENT(ReferenceInterpreter(g, 0), "iterations 0");
}

TEST(Simulator, DetectsWrongOperandWiring)
{
    // Replace an operand edge with one from a different producer:
    // the computed values must diverge from the reference.
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("q", OpClass::IntAlu);
    b.op("w", OpClass::FpAlu, {"p"});
    b.liveOut("w");
    b.liveOut("q");
    const Ddg original = b.graph();

    Ddg tampered = original;
    // Rewire w to read q instead of p.
    for (EdgeId eid : tampered.inEdges(b.id("w")))
        tampered.removeEdge(eid);
    tampered.addEdge(b.id("q"), b.id("w"), EdgeKind::RegFlow, 0);

    const auto m = MachineConfig::unified();
    Partition part(1, tampered.numNodeSlots());
    for (NodeId n : tampered.nodes())
        part.assign(n, 0);
    Schedule s;
    s.ii = 1;
    s.start.assign(tampered.numNodeSlots(), 0);
    s.start[b.id("w")] = 2;
    s.busOf.assign(tampered.numNodeSlots(), -1);
    s.length = 5;
    s.stageCount = 5;

    const auto rep = simulate(tampered, m, part, s, original);
    EXPECT_FALSE(rep.ok);
    // The scheduled node and the original it must match, named n<id>.
    ASSERT_FALSE(rep.errors.empty());
    const std::string w = "n" + std::to_string(b.id("w"));
    EXPECT_EQ(rep.errors[0].rfind(w + "@", 0), 0u) << rep.errors[0];
    EXPECT_NE(rep.errors[0].find("original " + w), std::string::npos)
        << rep.errors[0];
}

TEST(Simulator, DetectsWrongDistance)
{
    DdgBuilder b;
    b.op("p", OpClass::IntAlu);
    b.op("w", OpClass::FpAlu);
    b.flow("p", "w", 1);
    b.liveOut("w");
    const Ddg original = b.graph();

    Ddg tampered = original;
    for (EdgeId eid : tampered.inEdges(b.id("w")))
        tampered.removeEdge(eid);
    tampered.addEdge(b.id("p"), b.id("w"), EdgeKind::RegFlow, 2);

    const auto m = MachineConfig::unified();
    Partition part(1, tampered.numNodeSlots());
    for (NodeId n : tampered.nodes())
        part.assign(n, 0);
    Schedule s;
    s.ii = 2;
    s.start.assign(tampered.numNodeSlots(), 0);
    s.start[b.id("w")] = 1;
    s.busOf.assign(tampered.numNodeSlots(), -1);
    s.length = 4;
    s.stageCount = 2;

    const auto rep = simulate(tampered, m, part, s, original);
    EXPECT_FALSE(rep.ok);
}

TEST(Simulator, ClusteredLoopsFromSuite)
{
    const auto loops = buildBenchmark("turb3d");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    int validated = 0;
    for (std::size_t i = 0; i < 5 && i < loops.size(); ++i) {
        const auto r = compile(loops[i].ddg, m);
        ASSERT_TRUE(r.ok) << loops[i].name();
        const auto rep = simulate(r.finalDdg, m, r.partition,
                                  r.schedule, loops[i].ddg, 6);
        EXPECT_TRUE(rep.ok)
            << loops[i].name() << ": "
            << (rep.errors.empty() ? "" : rep.errors.front());
        ++validated;
    }
    EXPECT_EQ(validated, 5);
}

} // namespace
} // namespace cvliw
