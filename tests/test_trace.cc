/**
 * @file
 * Unit tests for Trace validation, sorting, merging, and CSV round
 * trips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/log.hh"
#include "src/workload/trace.hh"

namespace
{

using namespace pascal;
using workload::RequestSpec;
using workload::Trace;

RequestSpec
spec(RequestId id, Time arrival)
{
    RequestSpec s;
    s.id = id;
    s.arrival = arrival;
    s.promptTokens = 128;
    s.reasoningTokens = 100;
    s.answerTokens = 50;
    s.dataset = "unit";
    return s;
}

TEST(Trace, SortByArrival)
{
    Trace t;
    t.requests = {spec(0, 3.0), spec(1, 1.0), spec(2, 2.0)};
    t.sortByArrival();
    EXPECT_EQ(t.requests[0].id, 1);
    EXPECT_EQ(t.requests[1].id, 2);
    EXPECT_EQ(t.requests[2].id, 0);
    t.validate();
}

TEST(Trace, ValidateRejectsDuplicateIds)
{
    Trace t;
    t.requests = {spec(1, 1.0), spec(1, 2.0)};
    EXPECT_THROW(t.validate(), FatalError);
}

TEST(Trace, ValidateRejectsUnsorted)
{
    Trace t;
    t.requests = {spec(0, 2.0), spec(1, 1.0)};
    EXPECT_THROW(t.validate(), FatalError);
}

TEST(Trace, TotalGeneratedTokens)
{
    Trace t;
    t.requests = {spec(0, 0.0), spec(1, 1.0)};
    EXPECT_EQ(t.totalGeneratedTokens(), 2 * 150);
}

TEST(Trace, MergeKeepsOrderAndValidates)
{
    Trace a;
    a.requests = {spec(0, 1.0), spec(1, 3.0)};
    Trace b;
    b.requests = {spec(2, 2.0)};
    Trace m = Trace::merge(a, b);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.requests[0].id, 0);
    EXPECT_EQ(m.requests[1].id, 2);
    EXPECT_EQ(m.requests[2].id, 1);
}

TEST(Trace, CsvRoundTrip)
{
    Trace t;
    t.requests = {spec(0, 0.5), spec(1, 1.25)};
    t.requests[1].startInAnswering = true;
    t.requests[1].reasoningTokens = 0;
    t.requests[0].sloClass = workload::SloClass::Interactive;
    t.requests[1].sloClass = workload::SloClass::Batch;

    std::string path = testing::TempDir() + "pascal_trace_test.csv";
    t.toCsv(path);
    Trace back = Trace::fromCsv(path);
    std::remove(path.c_str());

    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.requests[0].id, 0);
    EXPECT_DOUBLE_EQ(back.requests[0].arrival, 0.5);
    EXPECT_EQ(back.requests[0].promptTokens, 128);
    EXPECT_EQ(back.requests[0].reasoningTokens, 100);
    EXPECT_EQ(back.requests[0].answerTokens, 50);
    EXPECT_FALSE(back.requests[0].startInAnswering);
    EXPECT_EQ(back.requests[0].dataset, "unit");
    EXPECT_TRUE(back.requests[1].startInAnswering);
    EXPECT_EQ(back.requests[0].sloClass,
              workload::SloClass::Interactive);
    EXPECT_EQ(back.requests[1].sloClass, workload::SloClass::Batch);
}

TEST(Trace, LegacyCsvWithoutClassColumnDefaultsToStandard)
{
    // Pre-class 7-column CSVs must keep loading, with every request
    // landing in the Standard class.
    std::string path = testing::TempDir() + "pascal_trace_legacy.csv";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,arrival,prompt_tokens,reasoning_tokens,"
                   "answer_tokens,start_in_answering,dataset\n",
                   f);
        std::fputs("0,0.5,128,100,50,0,unit\n", f);
        std::fclose(f);
    }
    Trace back = Trace::fromCsv(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.requests[0].sloClass, workload::SloClass::Standard);
}

TEST(Trace, FromCsvRejectsNonFiniteArrival)
{
    // A nan or inf arrival must fail the load, naming the request,
    // instead of being sorted on a NaN key or run to the horizon.
    for (const char* bad : {"nan", "inf"}) {
        std::string path = testing::TempDir() + "pascal_trace_bad.csv";
        {
            std::FILE* f = std::fopen(path.c_str(), "w");
            ASSERT_NE(f, nullptr);
            std::fputs("id,arrival,prompt_tokens,reasoning_tokens,"
                       "answer_tokens,start_in_answering,dataset\n",
                       f);
            std::fputs("0,0.5,128,100,50,0,unit\n", f);
            std::fprintf(f, "2,%s,128,100,50,0,unit\n", bad);
            std::fputs("1,1.5,128,100,50,0,unit\n", f);
            std::fclose(f);
        }
        try {
            Trace::fromCsv(path);
            ADD_FAILURE() << "accepted arrival " << bad;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "RequestSpec 2: non-finite arrival"),
                      std::string::npos)
                << e.what();
        }
        std::remove(path.c_str());
    }
}

TEST(Trace, FromCsvRejectsPartialFields)
{
    // Every numeric field must parse whole: a prefix parse would load
    // "12abc" as 12 and "1x" as 1. The error names line and column.
    struct Case
    {
        const char* row;
        const char* where;
    };
    for (const Case& c :
         {Case{"0,0.5,12abc,100,50,0,unit", "line 3, column prompt"},
          Case{"0,0.5,128,100,50,1x,unit",
               "line 3, column start_in_answering"},
          Case{"0,0.5s,128,100,50,0,unit", "line 3, column arrival"},
          Case{"0,0.5,128,100,50,0,unit,1.5", "line 3, column slo_class"},
          Case{"0,0.5,128,,50,0,unit", "line 3, column reasoning"}}) {
        std::string path = testing::TempDir() + "pascal_trace_part.csv";
        {
            std::FILE* f = std::fopen(path.c_str(), "w");
            ASSERT_NE(f, nullptr);
            std::fputs("id,arrival,prompt,reasoning,answer,"
                       "start_in_answering,dataset,slo_class\n",
                       f);
            std::fputs("1,0.25,128,100,50,0,unit,1\n", f);
            std::fprintf(f, "%s\n", c.row);
            std::fclose(f);
        }
        try {
            Trace::fromCsv(path);
            ADD_FAILURE() << "accepted row " << c.row;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(c.where),
                      std::string::npos)
                << e.what();
        }
        std::remove(path.c_str());
    }
}

TEST(Trace, FromCsvAcceptsCrlfLines)
{
    // Whole-field parsing must not turn a CRLF line ending into a
    // malformed trailing column.
    std::string path = testing::TempDir() + "pascal_trace_crlf.csv";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,arrival,prompt,reasoning,answer,"
                   "start_in_answering,dataset,slo_class\r\n",
                   f);
        std::fputs("0,0.5,128,100,50,0,unit,2\r\n", f);
        std::fclose(f);
    }
    Trace back = Trace::fromCsv(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.requests[0].dataset, "unit");
    EXPECT_EQ(back.requests[0].sloClass, workload::SloClass::Batch);
}

TEST(Trace, FromCsvMissingFileIsFatal)
{
    EXPECT_THROW(Trace::fromCsv("/nonexistent/path.csv"), FatalError);
}

TEST(Trace, DescribeExternalTrace)
{
    Trace t;
    t.requests = {spec(0, 0.0), spec(1, 1.0)};
    EXPECT_FALSE(t.provenance.generated);
    EXPECT_EQ(t.describe(), "2 requests (external)");
}

TEST(Trace, DescribeGeneratedTrace)
{
    Trace t;
    t.provenance.generated = true;
    t.provenance.profile = "alpaca-eval";
    t.provenance.n = 100;
    t.provenance.ratePerSec = 12.5;
    EXPECT_EQ(t.describe(), "alpaca-eval n=100 rate=12.5");
    t.provenance.seed = 7;
    t.provenance.seedKnown = true;
    EXPECT_EQ(t.describe(), "alpaca-eval n=100 rate=12.5 seed=7");
}

TEST(Trace, EmptyTraceValidates)
{
    Trace t;
    t.validate();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.totalGeneratedTokens(), 0);
}

} // namespace
