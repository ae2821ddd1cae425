/**
 * @file
 * Regenerates Fig. 3: the QoE measurement example. A request's tokens
 * are generated faster than the user's reading pace, the server then
 * pauses (preemption), the pacer buffer drains, the user starves, and
 * generation finally resumes. The bench prints the three curves
 * (system generated / user digested / user expected), the pacer
 * buffer and starvation readings, and the resulting QoE score.
 * `check_fig03.cmake` runs it as a ctest and checks the verdicts.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "src/qoe/qoe.hh"

int
main()
{
    using namespace pascal;
    using namespace pascal::bench;

    header("Fig. 3", "QoE measurement example (token pacer + "
                     "digested-vs-expected areas)");

    // Scenario mirroring the figure: target pace 1 token/s.
    //  (i)   t in [0, 8): generation at 2 tokens/s (faster than pace),
    //        so 16 tokens are generated by t = 7.5 and the pacer
    //        releases them one per second until t = 15;
    //  (ii)  t in [8, 20): server paused; the buffer runs dry at 15
    //        and the user starves from the next pace slot (t = 16);
    //  (iii) t >= 20: generation resumes at pace.
    const Time pace = 1.0;
    const Time resume = 20.0;
    const Time surplus_probe = 5.0; // Buffer still holds a surplus.
    const Time gap_probe = 18.0;    // Inside the starved gap.
    const double threshold = 0.95;
    std::vector<Time> emits;
    for (int i = 0; i < 16; ++i)
        emits.push_back(i * 0.5);
    for (int i = 0; i < 14; ++i)
        emits.push_back(resume + i);

    auto curves = qoe::buildQoeCurves(emits, 0.0, pace);

    std::printf("%6s %12s %12s %12s %10s\n", "token", "generated",
                "digested", "expected", "buffered");
    for (std::size_t k = 0; k < emits.size(); k += 3) {
        std::printf("%6zu %12.1f %12.1f %12.1f %10zu\n", k,
                    curves.generated[k], curves.digested[k],
                    curves.expected[k],
                    curves.bufferedAt(curves.digested[k]));
    }
    rule();
    std::printf("tokens generated : %zu\n", emits.size());
    for (Time t : {gap_probe, surplus_probe}) {
        std::printf("starved at t=%g? : %s (buffer %zu tokens)\n", t,
                    curves.starvedAt(t) ? "yes" : "no",
                    curves.bufferedAt(t));
    }
    std::printf("QoE (area ratio) : %.4f  -> %s %.2f threshold\n",
                curves.qoe, curves.qoe < threshold ? "below" : "meets",
                threshold);

    // Contrast: a perfectly paced request scores exactly 1.
    std::vector<Time> steady;
    for (int i = 0; i < 30; ++i)
        steady.push_back(i * pace);
    std::printf("steady-pace QoE  : %.4f (reference)\n",
                qoe::computeQoe(steady, 0.0, pace));
    return 0;
}
