/**
 * @file
 * Unit tests for the support library: exact rationals, the
 * deterministic RNG, string helpers and the table printer.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "support/rational.hh"
#include "support/rng.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace cvliw
{
namespace
{

// --- Rational ----------------------------------------------------------

TEST(Rational, DefaultIsZero)
{
    Rational r;
    EXPECT_EQ(r.num(), 0);
    EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesToLowestTerms)
{
    Rational r(6, 8);
    EXPECT_EQ(r.num(), 3);
    EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSign)
{
    Rational r(3, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ZeroHasCanonicalForm)
{
    Rational r(0, 17);
    EXPECT_EQ(r.num(), 0);
    EXPECT_EQ(r.den(), 1);
}

TEST(Rational, Addition)
{
    EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
    EXPECT_EQ(Rational(7, 8) + Rational(7, 8) + Rational(7, 8) +
                  Rational(7, 16),
              Rational(49, 16));
}

TEST(Rational, PaperWorkedExampleWeightSE)
{
    // 5/8 + 5/8 + 5/8 + 5/16 - 2/8 = 31/16 (section 3.3).
    const Rational w = Rational(5, 8) + Rational(5, 8) +
                       Rational(5, 8) + Rational(5, 16) -
                       Rational(2, 8);
    EXPECT_EQ(w, Rational(31, 16));
}

TEST(Rational, Subtraction)
{
    EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
    EXPECT_EQ(Rational(1, 4) - Rational(1, 4), Rational(0));
}

TEST(Rational, Multiplication)
{
    EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
}

TEST(Rational, Division)
{
    EXPECT_EQ(Rational(7, 8) / Rational(2), Rational(7, 16));
}

TEST(Rational, Comparisons)
{
    EXPECT_LT(Rational(31, 16), Rational(40, 16));
    EXPECT_LT(Rational(40, 16), Rational(49, 16));
    EXPECT_GT(Rational(1, 2), Rational(1, 3));
    EXPECT_LE(Rational(1, 2), Rational(2, 4));
    EXPECT_GE(Rational(-1, 3), Rational(-1, 2));
}

TEST(Rational, NegativeArithmetic)
{
    EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
    EXPECT_EQ(Rational(1, 4) + Rational(-1, 2), Rational(-1, 4));
    EXPECT_LT(Rational(-1, 2), Rational(0));
}

TEST(Rational, ToString)
{
    EXPECT_EQ(Rational(49, 16).toString(), "49/16");
    EXPECT_EQ(Rational(3).toString(), "3");
    EXPECT_EQ(Rational(-44, 8).toString(), "-11/2");
}

TEST(Rational, CompareExactForLargeTerms)
{
    // Exactness where doubles would tie.
    Rational a(1000000000000001LL, 3);
    Rational b(1000000000000002LL, 3);
    EXPECT_LT(a, b);
}

// --- Rng ----------------------------------------------------------------

TEST(Rng, DeterministicStream)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(3, 17);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::map<std::int64_t, int> histogram;
    for (int i = 0; i < 4000; ++i)
        ++histogram[rng.uniformInt(0, 7)];
    EXPECT_EQ(histogram.size(), 8u);
    for (const auto &[value, count] : histogram) {
        (void)value;
        EXPECT_GT(count, 300); // expected 500 each
    }
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(4);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(9);
    std::vector<double> weights{0.0, 3.0, 1.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[1], counts[2]);
}

// --- strutil -------------------------------------------------------------

TEST(StrUtil, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(StrUtil, Fixed)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(StrUtil, Percent)
{
    EXPECT_EQ(percent(0.25, 1), "25.0%");
    EXPECT_EQ(percent(0.0333, 0), "3%");
}

TEST(StrUtil, AllDigits)
{
    EXPECT_TRUE(allDigits("123"));
    EXPECT_FALSE(allDigits(""));
    EXPECT_FALSE(allDigits("12a"));
    EXPECT_FALSE(allDigits("-3"));
}

TEST(StrUtil, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("xyz", 2), "xyz");
}

// --- TextTable -------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.addRow({"name", "ipc"});
    t.addRow({"tomcatv", "3.5"});
    t.addRow({"x", "10.25"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tomcatv"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // All lines equally wide (trailing spaces aside).
    EXPECT_NE(out.find("10.25"), std::string::npos);
}

TEST(TextTable, NumRows)
{
    TextTable t;
    EXPECT_EQ(t.numRows(), 0u);
    t.addRow({"h"});
    t.addRow({"r"});
    EXPECT_EQ(t.numRows(), 2u);
}

} // namespace
} // namespace cvliw
