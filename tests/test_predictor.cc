/**
 * @file
 * Unit tests for the length-prediction subsystem (src/predict/):
 * oracle exactness, noisy-oracle determinism and bias, profile
 * quantile learning with warmup fallbacks, pairwise-rank win rates,
 * the factory, and the phase edge cases every predictor must survive
 * (startInAnswering / reasoningTokens == 0, finished requests).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/common/log.hh"
#include "src/predict/oracle_predictor.hh"
#include "src/predict/predictor.hh"
#include "src/predict/profile_predictor.hh"
#include "src/predict/rank_predictor.hh"
#include "src/workload/request.hh"

namespace
{

using namespace pascal;
using predict::PredictorConfig;
using predict::PredictorType;
using workload::Request;
using workload::RequestSpec;

Request
makeRequest(RequestId id, TokenCount prompt, TokenCount reasoning,
            TokenCount answer, const std::string& dataset = "ds",
            bool start_in_answering = false)
{
    RequestSpec s;
    s.id = id;
    s.arrival = 0.0;
    s.promptTokens = prompt;
    s.reasoningTokens = reasoning;
    s.answerTokens = answer;
    s.startInAnswering = start_in_answering;
    s.dataset = dataset;
    return Request(s);
}

/** Advance a request by n decode tokens (no pool bookkeeping). */
void
advance(Request& req, TokenCount n)
{
    for (TokenCount i = 0; i < n; ++i)
        req.emitToken(0.0, 0);
}

TEST(OraclePredictor, ReadsTheSpecExactly)
{
    predict::OraclePredictor oracle;
    auto req = makeRequest(1, 100, 300, 50);

    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 350.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req),
                     300.0);

    advance(req, 120); // Mid-reasoning.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 230.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req),
                     180.0);

    advance(req, 200); // 320 generated: answering.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 30.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);

    advance(req, 30); // Finished.
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 0.0);
    EXPECT_DOUBLE_EQ(oracle.rankScore(req), 0.0);
}

TEST(OraclePredictor, StartInAnsweringHasNoReasoningRemaining)
{
    predict::OraclePredictor oracle;
    // reasoningTokens == 0 is exactly the startInAnswering shape the
    // spec validator admits.
    auto req = makeRequest(2, 64, 0, 40, "ds", true);

    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 40.0);

    advance(req, 10);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingTokens(req), 30.0);
    EXPECT_DOUBLE_EQ(oracle.predictRemainingReasoningTokens(req), 0.0);
}

TEST(NoisyOraclePredictor, DeterministicPerRequestAndCallOrderFree)
{
    predict::NoisyOraclePredictor a(0.5, 42);
    predict::NoisyOraclePredictor b(0.5, 42);
    auto r1 = makeRequest(1, 100, 300, 50);
    auto r2 = makeRequest(2, 100, 300, 50);

    // Query b in the opposite order: factors must not depend on call
    // order, only on {seed, id}.
    double b2 = b.predictRemainingTokens(r2);
    double b1 = b.predictRemainingTokens(r1);
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r1), b1);
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r2), b2);

    // Different ids draw different factors (astronomically unlikely to
    // collide), different seeds likewise.
    EXPECT_NE(a.noiseFactor(1), a.noiseFactor(2));
    predict::NoisyOraclePredictor c(0.5, 43);
    EXPECT_NE(c.noiseFactor(1), a.noiseFactor(1));

    // Both estimates of one request share the factor.
    EXPECT_DOUBLE_EQ(a.predictRemainingReasoningTokens(r1),
                     300.0 * a.noiseFactor(1));
    EXPECT_DOUBLE_EQ(a.predictRemainingTokens(r1),
                     350.0 * a.noiseFactor(1));
}

TEST(NoisyOraclePredictor, MeanOneAndZeroMapsToZero)
{
    predict::NoisyOraclePredictor noisy(0.5, 7);
    // E[lognormal(-sigma^2/2, sigma)] = 1: the mean factor over many
    // ids should be close to 1.
    double sum = 0.0;
    const int kIds = 4000;
    for (RequestId id = 0; id < kIds; ++id)
        sum += noisy.noiseFactor(id);
    EXPECT_NEAR(sum / kIds, 1.0, 0.05);

    // A finished request predicts exactly 0 regardless of noise.
    auto req = makeRequest(9, 10, 2, 1);
    advance(req, 3);
    EXPECT_TRUE(req.finished());
    EXPECT_DOUBLE_EQ(noisy.predictRemainingTokens(req), 0.0);
}

TEST(ProfilePredictor, FallsBackToPriorsThenGlobalThenDataset)
{
    predict::DatasetProfilePredictor profile(0.5, 2);
    auto fresh = makeRequest(1, 64, 500, 100, "mathy");

    // No completions anywhere: fixed priors (600 + 500).
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh), 1100.0);

    // Two completions of a *different* dataset: global stats kick in.
    for (RequestId id = 10; id < 12; ++id) {
        auto done = makeRequest(id, 64, 200, 40, "chatty");
        profile.observeCompletion(done);
    }
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh),
                     200.0 + 40.0);
    EXPECT_EQ(profile.observations("mathy"), 0u);

    // Two completions of the request's own dataset: its medians win.
    for (RequestId id = 20; id < 22; ++id) {
        auto done = makeRequest(id, 64, 800, 120, "mathy");
        profile.observeCompletion(done);
    }
    EXPECT_EQ(profile.observations("mathy"), 2u);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fresh),
                     800.0 + 120.0);
}

TEST(ProfilePredictor, SubtractsProgressAndNeverPredictsBelowOne)
{
    predict::DatasetProfilePredictor profile(0.5, 1);
    auto done = makeRequest(1, 64, 400, 100, "ds");
    profile.observeCompletion(done);

    auto req = makeRequest(2, 64, 1000, 100, "ds");
    advance(req, 300);
    // Median says 400 total; 300 done -> 100 reasoning left + 100
    // answer.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     100.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 200.0);

    advance(req, 300); // 600 generated: outlived the median.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     1.0);

    advance(req, 400); // 1000 generated: answering now.
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     0.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 100.0);
    advance(req, 99);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req), 1.0);
}

TEST(ProfilePredictor, StartInAnsweringSkewsNoReasoningQuantile)
{
    predict::DatasetProfilePredictor profile(0.5, 1);
    auto normal = makeRequest(1, 64, 400, 100, "ds");
    profile.observeCompletion(normal);
    auto fig5 = makeRequest(2, 64, 0, 300, "ds", true);
    profile.observeCompletion(fig5);

    // Reasoning median stays 400 (the zero-reasoning completion is
    // excluded); answering median is the interpolated 200.
    auto req = makeRequest(3, 64, 999, 10, "ds");
    EXPECT_DOUBLE_EQ(profile.predictRemainingReasoningTokens(req),
                     400.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(req),
                     400.0 + 200.0);

    // A startInAnswering request only ever predicts answering work.
    auto fig5_fresh = makeRequest(4, 64, 0, 50, "ds", true);
    EXPECT_DOUBLE_EQ(
        profile.predictRemainingReasoningTokens(fig5_fresh), 0.0);
    EXPECT_DOUBLE_EQ(profile.predictRemainingTokens(fig5_fresh),
                     200.0);
}

TEST(RunningQuantile, InterpolatesAndResorts)
{
    predict::RunningQuantile q;
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
    q.add(30.0);
    q.add(10.0);
    q.add(20.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.25), 15.0);
    q.add(40.0); // Re-sort after the cached sort.
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 25.0);
    EXPECT_EQ(q.count(), 4u);
}

TEST(RankPredictor, LearnsWhichBucketFinishesFirst)
{
    predict::PairwiseRankPredictor rank(1);

    // "short" dataset completes 200-token requests, "long" 4000-token
    // ones; prompts sized so the buckets differ.
    for (RequestId id = 0; id < 8; ++id) {
        auto s = makeRequest(id, 64, 150, 50, "short");
        auto l = makeRequest(100 + id, 64, 3800, 200, "long");
        rank.observeCompletion(s);
        rank.observeCompletion(l);
    }

    auto short_req = makeRequest(50, 64, 999, 10, "short");
    auto long_req = makeRequest(51, 64, 999, 10, "long");
    EXPECT_GT(rank.winRate(short_req), 0.9);
    EXPECT_LT(rank.winRate(long_req), 0.1);
    EXPECT_LT(rank.rankScore(short_req), rank.rankScore(long_req));

    // Unseen bucket: neutral score.
    auto unknown = makeRequest(52, 64, 100, 10, "mystery");
    EXPECT_DOUBLE_EQ(rank.winRate(unknown), 0.5);

    // Length fallback follows the bucket means.
    EXPECT_NEAR(rank.predictRemainingTokens(short_req), 150.0 + 50.0,
                1.0);
    EXPECT_NEAR(rank.predictRemainingTokens(long_req), 3800.0 + 200.0,
                1.0);
}

TEST(RankPredictor, ZeroWarmupSingleBucketStaysNeutralNotNaN)
{
    // Regression: with warmupCompletions == 0 (validate() allows it)
    // and every completion in one bucket, that bucket has completions
    // but zero pairwise games; the win rate must stay the neutral 0.5
    // rather than compute 0/0 (a NaN rank score would break the
    // schedulers' strict-weak-ordering sorts).
    predict::PairwiseRankPredictor rank(0);
    for (RequestId id = 0; id < 3; ++id) {
        auto done = makeRequest(id, 64, 100, 20, "only");
        rank.observeCompletion(done);
    }
    auto req = makeRequest(9, 64, 100, 20, "only");
    double rate = rank.winRate(req);
    EXPECT_FALSE(std::isnan(rate));
    EXPECT_DOUBLE_EQ(rate, 0.5);
    EXPECT_FALSE(std::isnan(rank.rankScore(req)));
}

TEST(RankPredictor, WarmupAndEdgeCases)
{
    predict::PairwiseRankPredictor rank(1000000);
    for (RequestId id = 0; id < 4; ++id) {
        auto s = makeRequest(id, 64, 100, 20, "a");
        auto l = makeRequest(10 + id, 64, 2000, 20, "b");
        rank.observeCompletion(s);
        rank.observeCompletion(l);
    }
    // Far below the warmup game count: everyone stays neutral.
    auto req = makeRequest(50, 64, 100, 20, "a");
    EXPECT_DOUBLE_EQ(rank.winRate(req), 0.5);

    // startInAnswering: no reasoning remaining, answering fallback.
    auto fig5 = makeRequest(60, 64, 0, 40, "a", true);
    EXPECT_DOUBLE_EQ(rank.predictRemainingReasoningTokens(fig5), 0.0);
    EXPECT_GT(rank.predictRemainingTokens(fig5), 0.0);

    // Finished requests score 0 (front of any order, instantly done).
    auto done = makeRequest(70, 64, 2, 1, "a");
    advance(done, 3);
    EXPECT_DOUBLE_EQ(rank.rankScore(done), 0.0);
    EXPECT_DOUBLE_EQ(rank.predictRemainingTokens(done), 0.0);
}

TEST(RankPredictor, UnseenBucketPicksUpLaterCompletions)
{
    // A bucket queried before any of its completions arrive must not
    // stay "absent": once they arrive, the request scores exactly as
    // under a predictor that never saw the early query.
    predict::PairwiseRankPredictor queried(1);
    predict::PairwiseRankPredictor fresh(1);
    std::vector<Request> done;
    for (RequestId id = 0; id < 4; ++id)
        done.push_back(makeRequest(id, 64, 3000, 100, "long"));
    for (const auto& r : done) {
        queried.observeCompletion(r);
        fresh.observeCompletion(r);
    }

    auto req = makeRequest(50, 300, 999, 10, "short");
    EXPECT_DOUBLE_EQ(queried.winRate(req), 0.5);
    EXPECT_DOUBLE_EQ(queried.rankScore(req), 0.5);
    const double unseen_length = queried.predictRemainingTokens(req);

    for (RequestId id = 10; id < 14; ++id) {
        auto s = makeRequest(id, 300, 100, 20, "short");
        queried.observeCompletion(s);
        fresh.observeCompletion(s);
    }
    EXPECT_GT(queried.winRate(req), 0.5);
    EXPECT_DOUBLE_EQ(queried.winRate(req), fresh.winRate(req));
    EXPECT_DOUBLE_EQ(queried.rankScore(req), fresh.rankScore(req));
    EXPECT_NE(queried.predictRemainingTokens(req), unseen_length);
    EXPECT_DOUBLE_EQ(queried.predictRemainingTokens(req),
                     fresh.predictRemainingTokens(req));
    EXPECT_DOUBLE_EQ(queried.predictRemainingReasoningTokens(req),
                     fresh.predictRemainingReasoningTokens(req));
}

TEST(PredictorContract, RankScoreTracksProgressExactlyWhenDeclared)
{
    // Schedulers re-key an executed request only when its predictor
    // declares rankTracksProgress(); a predictor that declares false
    // must hold the score of an unfinished request constant through
    // reasoning, </think> and answering while it learns nothing, and
    // one that declares true must actually move it.
    std::vector<PredictorConfig> configs(4);
    configs[0].type = PredictorType::Oracle;
    configs[1].type = PredictorType::NoisyOracle;
    configs[1].noiseSigma = 0.5;
    configs[2].type = PredictorType::Profile;
    configs[3].type = PredictorType::Rank;
    for (auto& cfg : configs)
        cfg.warmupCompletions = 1;
    for (const auto& cfg : configs) {
        SCOPED_TRACE(cfg.name());
        auto predictor = predict::makePredictor(cfg);
        // Learned state first, so the scores are not cold-start
        // constants.
        for (RequestId id = 0; id < 6; ++id) {
            predictor->observeCompletion(
                makeRequest(id, 64, 120 + 40 * id, 30, "a"));
            predictor->observeCompletion(
                makeRequest(100 + id, 300, 900, 200, "b"));
        }
        const std::uint64_t version = predictor->version();
        auto req = makeRequest(200, 64, 40, 25, "a");
        const double first = predictor->rankScore(req);
        bool moved = false;
        while (req.generated() + 1 < req.totalToGenerate()) {
            advance(req, 1);
            const double score = predictor->rankScore(req);
            if (!predictor->rankTracksProgress()) {
                ASSERT_EQ(score, first) << "at token " << req.generated();
            }
            moved = moved || score != first;
        }
        EXPECT_EQ(req.phase(), workload::Phase::Answering);
        EXPECT_EQ(predictor->version(), version);
        EXPECT_EQ(moved, predictor->rankTracksProgress());
    }
}

TEST(PredictorConfig, ValidationAndNames)
{
    PredictorConfig cfg;
    EXPECT_EQ(cfg.name(), "none");
    cfg.validate();

    cfg.type = PredictorType::NoisyOracle;
    EXPECT_THROW(cfg.validate(), FatalError); // sigma missing.
    cfg.noiseSigma = 0.5;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "noisy(0.50)");

    cfg.type = PredictorType::Oracle;
    EXPECT_THROW(cfg.validate(), FatalError); // sigma inconsistent.
    cfg.noiseSigma = 0.0;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "oracle");

    cfg.type = PredictorType::Profile;
    cfg.quantile = 1.0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.quantile = 0.5;
    cfg.warmupCompletions = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.warmupCompletions = 4;
    cfg.validate();
    EXPECT_EQ(cfg.name(), "profile");

    cfg.type = PredictorType::Rank;
    EXPECT_EQ(cfg.name(), "rank");
}

TEST(PredictorFactory, BuildsMatchingTypes)
{
    PredictorConfig cfg;
    EXPECT_EQ(predict::makePredictor(cfg), nullptr);

    cfg.type = PredictorType::Oracle;
    auto oracle = predict::makePredictor(cfg);
    EXPECT_NE(dynamic_cast<predict::OraclePredictor*>(oracle.get()),
              nullptr);
    EXPECT_EQ(oracle->name(), "oracle");

    cfg.type = PredictorType::NoisyOracle;
    cfg.noiseSigma = 0.3;
    auto noisy = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::NoisyOraclePredictor*>(noisy.get()),
        nullptr);

    cfg = PredictorConfig{};
    cfg.type = PredictorType::Profile;
    auto profile = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::DatasetProfilePredictor*>(profile.get()),
        nullptr);

    cfg.type = PredictorType::Rank;
    auto rank = predict::makePredictor(cfg);
    EXPECT_NE(
        dynamic_cast<predict::PairwiseRankPredictor*>(rank.get()),
        nullptr);
}

} // namespace
