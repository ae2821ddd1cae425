#include "src/workload/trace.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <unordered_set>

#include "src/common/log.hh"

namespace pascal
{
namespace workload
{

std::string
Trace::describe() const
{
    if (!provenance.generated)
        return std::to_string(size()) + " requests (external)";
    std::ostringstream out;
    out << provenance.profile << " n=" << provenance.n
        << " rate=" << provenance.ratePerSec;
    if (provenance.seedKnown)
        out << " seed=" << provenance.seed;
    return out.str();
}

void
Trace::sortByArrival()
{
    std::stable_sort(requests.begin(), requests.end(),
        [](const RequestSpec& a, const RequestSpec& b) {
            if (a.arrival != b.arrival)
                return a.arrival < b.arrival;
            return a.id < b.id;
        });
}

void
Trace::validate() const
{
    std::unordered_set<RequestId> seen;
    Time prev = -1.0;
    for (const auto& spec : requests) {
        spec.validate();
        if (!seen.insert(spec.id).second)
            fatal("Trace: duplicate request id " + std::to_string(spec.id));
        if (spec.arrival < prev)
            fatal("Trace: arrivals not sorted (call sortByArrival)");
        prev = spec.arrival;
    }
}

TokenCount
Trace::totalGeneratedTokens() const
{
    TokenCount total = 0;
    for (const auto& spec : requests)
        total += spec.reasoningTokens + spec.answerTokens;
    return total;
}

void
Trace::toCsv(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("Trace::toCsv: cannot open '" + path + "' for writing");
    out << "id,arrival,prompt,reasoning,answer,start_in_answering,"
           "dataset,slo_class\n";
    for (const auto& s : requests) {
        out << s.id << ',' << s.arrival << ',' << s.promptTokens << ','
            << s.reasoningTokens << ',' << s.answerTokens << ','
            << (s.startInAnswering ? 1 : 0) << ',' << s.dataset << ','
            << static_cast<int>(s.sloClass) << '\n';
    }
}

namespace
{

/**
 * Parse the whole of @p field as a T (long long or double). A partial
 * parse such as "12abc" or "1x" is rejected, naming the line and
 * column, instead of loading as its prefix.
 */
template <typename T>
T
parseField(const std::string& field, const char* column,
           std::size_t line_no, const std::string& path)
{
    constexpr bool floating = std::is_floating_point_v<T>;
    std::size_t used = 0;
    T value{};
    try {
        if constexpr (floating)
            value = std::stod(field, &used);
        else
            value = std::stoll(field, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != field.size()) {
        fatal("Trace::fromCsv: line " + std::to_string(line_no) +
              ", column " + column + ": '" + field +
              "' is not a valid " + (floating ? "number" : "integer") +
              " in '" + path + "'");
    }
    return value;
}

} // namespace

Trace
Trace::fromCsv(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("Trace::fromCsv: cannot open '" + path + "'");

    Trace trace;
    std::string line;
    if (!std::getline(in, line))
        fatal("Trace::fromCsv: empty file '" + path + "'");

    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back(); // CRLF files.
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string field;
        auto number = [&](auto zero, const char* column) {
            // A missing column leaves the field empty, which fails.
            std::getline(ss, field, ',');
            return parseField<decltype(zero)>(field, column, line_no,
                                              path);
        };
        RequestSpec s;
        s.id = number(0LL, "id");
        s.arrival = number(0.0, "arrival");
        s.promptTokens = number(0LL, "prompt");
        s.reasoningTokens = number(0LL, "reasoning");
        s.answerTokens = number(0LL, "answer");
        s.startInAnswering = number(0LL, "start_in_answering") != 0;
        std::getline(ss, s.dataset, ',');
        // Optional trailing slo_class column; legacy 7-column traces
        // default to Standard.
        if (std::getline(ss, field, ',')) {
            long long cls =
                parseField<long long>(field, "slo_class", line_no, path);
            if (cls < 0 || cls >= static_cast<long long>(kNumSloClasses)) {
                fatal("Trace::fromCsv: bad slo_class on line " +
                      std::to_string(line_no) + " in '" + path + "'");
            }
            s.sloClass = static_cast<SloClass>(cls);
        }
        // Validate before sorting: a NaN arrival is no sort key.
        s.validate();
        trace.requests.push_back(std::move(s));
    }
    trace.sortByArrival();
    trace.validate();
    return trace;
}

Trace
Trace::merge(const Trace& a, const Trace& b)
{
    Trace out;
    out.requests.reserve(a.size() + b.size());
    out.requests.insert(out.requests.end(), a.requests.begin(),
                        a.requests.end());
    out.requests.insert(out.requests.end(), b.requests.begin(),
                        b.requests.end());
    out.sortByArrival();
    out.validate();
    return out;
}

} // namespace workload
} // namespace pascal
