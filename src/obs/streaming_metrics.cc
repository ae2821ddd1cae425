#include "src/obs/streaming_metrics.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace pascal
{
namespace obs
{

LogHistogram::LogHistogram(double gamma, double min_value)
    : gammaVal(gamma), minValue(min_value)
{
    if (!(gamma > 1.0))
        panic("LogHistogram: gamma must exceed 1");
    if (!(min_value > 0.0))
        panic("LogHistogram: min_value must be positive");
    invLogGamma = 1.0 / std::log(gamma);
}

std::int64_t
LogHistogram::bucketIndex(double x) const
{
    return static_cast<std::int64_t>(
        std::floor(std::log(x / minValue) * invLogGamma));
}

void
LogHistogram::add(double x)
{
    ++total;
    if (!(x >= minValue)) {
        ++zeroCount;
        return;
    }
    const std::int64_t idx = bucketIndex(x);
    if (buckets.empty()) {
        baseIndex = idx;
        buckets.push_back(0);
    } else if (idx < baseIndex) {
        buckets.insert(buckets.begin(),
                       static_cast<std::size_t>(baseIndex - idx), 0);
        baseIndex = idx;
    } else if (idx >= baseIndex +
                          static_cast<std::int64_t>(buckets.size())) {
        buckets.resize(
            static_cast<std::size_t>(idx - baseIndex) + 1, 0);
    }
    ++buckets[static_cast<std::size_t>(idx - baseIndex)];
}

double
LogHistogram::quantile(double p) const
{
    if (total == 0)
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    // Nearest rank, 1-based; p = 0 maps to the first sample.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    if (rank <= zeroCount)
        return 0.0;
    std::uint64_t cum = zeroCount;
    for (std::size_t k = 0; k < buckets.size(); ++k) {
        cum += buckets[k];
        if (rank <= cum) {
            const double i =
                static_cast<double>(baseIndex +
                                    static_cast<std::int64_t>(k));
            return minValue * std::pow(gammaVal, i + 0.5);
        }
    }
    // Unreachable: cum == total after the loop and rank <= total.
    return minValue *
           std::pow(gammaVal,
                    static_cast<double>(
                        baseIndex +
                        static_cast<std::int64_t>(buckets.size())));
}

double
LogHistogram::relativeError() const
{
    return std::sqrt(gammaVal) - 1.0;
}

} // namespace obs
} // namespace pascal
