#include "src/qoe/qoe.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pascal
{
namespace qoe
{

QoeCurves
buildQoeCurves(const std::vector<Time>& emit_times, Time expected_start,
               Time tpot)
{
    if (tpot <= 0.0)
        fatal("computeQoe: tpot must be positive");

    QoeCurves curves;
    curves.generated = emit_times;
    curves.expectedStart = expected_start;
    curves.tpot = tpot;
    std::size_t n = emit_times.size();
    if (n == 0)
        return curves;

    curves.expected.resize(n);
    curves.digested.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (k > 0 && emit_times[k] < emit_times[k - 1])
            fatal("computeQoe: emission times must be non-decreasing");
        curves.expected[k] =
            expected_start + static_cast<double>(k) * tpot;
        Time earliest = (k == 0) ? expected_start
                                 : curves.digested[k - 1] + tpot;
        curves.digested[k] = std::max(emit_times[k], earliest);
    }

    // Area ratio over [expected_start, horizon]. Each token k
    // contributes (horizon - digest_k) to the digested area and
    // (horizon - expected_k) to the expected area; digest_k >=
    // expected_k guarantees the ratio lands in [0, 1].
    Time horizon = std::max(curves.digested.back(),
                            curves.expected.back());
    double digested_area = 0.0;
    double expected_area = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        digested_area += horizon - curves.digested[k];
        expected_area += horizon - curves.expected[k];
    }

    curves.qoe = expected_area <= 0.0
                     ? 1.0
                     : std::clamp(digested_area / expected_area, 0.0, 1.0);
    return curves;
}

std::size_t
QoeCurves::generatedBy(Time t) const
{
    return std::upper_bound(generated.begin(), generated.end(), t) -
           generated.begin();
}

std::size_t
QoeCurves::digestedBy(Time t) const
{
    return std::upper_bound(digested.begin(), digested.end(), t) -
           digested.begin();
}

bool
QoeCurves::starvedAt(Time t) const
{
    std::size_t done = digestedBy(t);
    if (generatedBy(t) > done)
        return false;
    Time next_slot = done == 0 ? expectedStart : digested[done - 1] + tpot;
    return next_slot <= t;
}

double
computeQoe(const std::vector<Time>& emit_times, Time expected_start,
           Time tpot)
{
    // Scalar twin of buildQoeCurves: scoring a million-request run
    // calls this once per request, and materializing the three Fig. 3
    // curve vectors per call dominated the scoring pass. The digested
    // recursion only ever needs its previous value, so two allocation-
    // free passes (one for the horizon, one for the areas, with the
    // identical expressions in the identical order) produce the exact
    // same double as the curve-building path — pinned by the qoe
    // equivalence tests.
    if (tpot <= 0.0)
        fatal("computeQoe: tpot must be positive");
    std::size_t n = emit_times.size();
    if (n == 0)
        return 1.0;

    Time digested = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        if (k > 0 && emit_times[k] < emit_times[k - 1])
            fatal("computeQoe: emission times must be non-decreasing");
        Time earliest = (k == 0) ? expected_start : digested + tpot;
        digested = std::max(emit_times[k], earliest);
    }
    Time horizon = std::max(
        digested,
        expected_start + static_cast<double>(n - 1) * tpot);

    double digested_area = 0.0;
    double expected_area = 0.0;
    digested = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        Time earliest = (k == 0) ? expected_start : digested + tpot;
        digested = std::max(emit_times[k], earliest);
        digested_area += horizon - digested;
        expected_area +=
            horizon - (expected_start + static_cast<double>(k) * tpot);
    }
    return expected_area <= 0.0
               ? 1.0
               : std::clamp(digested_area / expected_area, 0.0, 1.0);
}

} // namespace qoe
} // namespace pascal
