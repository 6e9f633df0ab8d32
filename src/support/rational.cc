#include "support/rational.hh"

#include <numeric>

#include "support/logging.hh"

namespace cvliw
{

Rational::Rational(std::int64_t n, std::int64_t d) : num_(n), den_(d)
{
    if (den_ == 0)
        cv_panic("rational with zero denominator (num=", n, ")");
    normalize();
}

void
Rational::normalize()
{
    if (den_ < 0) {
        num_ = -num_;
        den_ = -den_;
    }
    std::int64_t g = std::gcd(num_ < 0 ? -num_ : num_, den_);
    if (g > 1) {
        num_ /= g;
        den_ /= g;
    }
    if (num_ == 0)
        den_ = 1;
}

Rational
Rational::operator+(const Rational &o) const
{
    std::int64_t g = std::gcd(den_, o.den_);
    std::int64_t lhs_scale = o.den_ / g;
    std::int64_t rhs_scale = den_ / g;
    return Rational(num_ * lhs_scale + o.num_ * rhs_scale,
                    den_ * lhs_scale);
}

Rational
Rational::operator-(const Rational &o) const
{
    return *this + Rational(-o.num_, o.den_);
}

Rational
Rational::operator*(const Rational &o) const
{
    // Cross-reduce before multiplying to limit overflow risk.
    std::int64_t g1 = std::gcd(num_ < 0 ? -num_ : num_, o.den_);
    std::int64_t g2 = std::gcd(o.num_ < 0 ? -o.num_ : o.num_, den_);
    return Rational((num_ / g1) * (o.num_ / g2),
                    (den_ / g2) * (o.den_ / g1));
}

Rational
Rational::operator/(const Rational &o) const
{
    if (o.num_ == 0)
        cv_panic("rational division by zero");
    return *this * Rational(o.den_, o.num_);
}

bool
Rational::operator<(const Rational &o) const
{
    // num_/den_ < o.num_/o.den_ with positive denominators.
    // Use __int128 to stay exact for any representable operands.
    return static_cast<__int128>(num_) * o.den_ <
           static_cast<__int128>(o.num_) * den_;
}

std::string
Rational::toString() const
{
    if (den_ == 1)
        return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

} // namespace cvliw
