/**
 * @file
 * Exact rational arithmetic.
 *
 * The replication heuristic of Aleta et al. (MICRO-36) weights
 * candidate subgraphs with sums of fractions such as 7/8 and 5/16
 * (section 3.3 of the paper). Using exact rationals keeps the
 * selection deterministic and lets the unit tests assert the paper's
 * worked example weights (49/16, 31/16, 40/16, 44/8, 42/8) exactly.
 */

#ifndef CVLIW_SUPPORT_RATIONAL_HH
#define CVLIW_SUPPORT_RATIONAL_HH

#include <cstdint>
#include <string>

namespace cvliw
{

/**
 * An exact rational number with 64-bit numerator/denominator, always
 * stored in lowest terms with a positive denominator.
 */
class Rational
{
  public:
    /** Construct zero. */
    Rational() : num_(0), den_(1) {}

    /** Construct the integer @p n. */
    Rational(std::int64_t n) : num_(n), den_(1) {}

    /**
     * Construct @p n / @p d.
     * @param n numerator
     * @param d denominator; must be non-zero
     */
    Rational(std::int64_t n, std::int64_t d);

    std::int64_t num() const { return num_; }
    std::int64_t den() const { return den_; }

    Rational operator+(const Rational &o) const;
    Rational operator-(const Rational &o) const;
    Rational operator*(const Rational &o) const;
    Rational operator/(const Rational &o) const;
    Rational operator-() const { return Rational(-num_, den_); }

    Rational &operator+=(const Rational &o) { return *this = *this + o; }
    Rational &operator-=(const Rational &o) { return *this = *this - o; }
    Rational &operator*=(const Rational &o) { return *this = *this * o; }
    Rational &operator/=(const Rational &o) { return *this = *this / o; }

    bool operator==(const Rational &o) const
    {
        return num_ == o.num_ && den_ == o.den_;
    }
    bool operator!=(const Rational &o) const { return !(*this == o); }
    bool operator<(const Rational &o) const;
    bool operator<=(const Rational &o) const { return !(o < *this); }
    bool operator>(const Rational &o) const { return o < *this; }
    bool operator>=(const Rational &o) const { return !(*this < o); }

    /** Render as "num/den" ("num" when the denominator is 1). */
    std::string toString() const;

  private:
    /** Reduce to lowest terms and normalize the sign. */
    void normalize();

    std::int64_t num_;
    std::int64_t den_;
};

} // namespace cvliw

#endif // CVLIW_SUPPORT_RATIONAL_HH
