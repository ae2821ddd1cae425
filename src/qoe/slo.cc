#include "src/qoe/slo.hh"

#include "src/common/log.hh"

namespace pascal
{
namespace qoe
{

void
SloConfig::validate() const
{
    if (tpotTarget <= 0.0)
        fatal("SloConfig: tpotTarget must be positive");
    if (ttfatTarget < 0.0)
        fatal("SloConfig: ttfatTarget must be non-negative");
    if (qoeThreshold < 0.0 || qoeThreshold > 1.0)
        fatal("SloConfig: qoeThreshold must be in [0,1]");
}

void
SloClassConfig::validate() const
{
    for (const auto& p : classes) {
        if (p.tpotTarget <= 0.0)
            fatal("SloClassConfig: tpotTarget must be positive");
        if (p.ttfatTarget < 0.0)
            fatal("SloClassConfig: ttfatTarget must be non-negative");
        if (p.shedUpFloor < 0.0 || p.shedUpFloor > 1.0)
            fatal("SloClassConfig: shedUpFloor must be in [0,1]");
        if (p.shedKvFloor < 0.0 || p.shedKvFloor > 1.0)
            fatal("SloClassConfig: shedKvFloor must be in [0,1]");
    }
}

} // namespace qoe
} // namespace pascal
