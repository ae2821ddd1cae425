/**
 * @file
 * Profile-based single-instance performance model (substitute for the
 * paper's vLLM profiling data — see DESIGN.md "Substitutions").
 *
 * The model is an analytic roofline:
 *  - Prefill is the max of a compute term (2 * params * tokens FLOPs at
 *    effective FLOP/s) and a memory term (one pass over the weights).
 *  - A decode iteration is the max of a memory term (weights read once
 *    per iteration + the batch's KV read) and a compute term
 *    (2 * params * batch FLOPs), plus fixed and per-sequence overheads.
 *
 * These terms preserve exactly the dependencies the scheduling study
 * relies on: iteration latency grows mildly with batch size and KV
 * footprint, prefill cost grows with prompt tokens, and KV movement
 * costs are proportional to bytes over link bandwidth. With the H100 +
 * 32B presets, decode lands at ~25-60 ms/iteration, matching the ~30 ms
 * per-token figure the paper cites, and a 2048-token KV migration takes
 * ~43 ms on the 100 Gbps fabric, matching the paper's ~40 ms citation.
 */

#ifndef PASCAL_MODEL_PERF_MODEL_HH
#define PASCAL_MODEL_PERF_MODEL_HH

#include "src/common/types.hh"
#include "src/model/hardware_config.hh"
#include "src/model/model_config.hh"

namespace pascal
{
namespace model
{

/** Analytic latency model for one serving instance. */
class PerfModel
{
  public:
    /**
     * @param model Served model shape.
     * @param hw Node hardware; both are validated.
     */
    PerfModel(const ModelConfig& model, const HardwareConfig& hw);

    /**
     * Latency of a prefill iteration over @p prompt_tokens total
     * prompt tokens (summed over the prefill batch).
     */
    Time prefillLatency(TokenCount prompt_tokens) const;

    /**
     * Latency of one decode iteration.
     *
     * @param batch_size Sequences decoded this iteration.
     * @param batch_kv_tokens Total KV tokens attended over (summed
     *        across the batch).
     */
    Time decodeStepLatency(int batch_size,
                           TokenCount batch_kv_tokens) const;

    /**
     * Latency of one mixed (chunked-prefill) iteration that processes
     * @p prefill_tokens of prompt alongside a decode batch: the
     * compute terms add, the weight traffic is shared.
     */
    Time mixedStepLatency(TokenCount prefill_tokens, int batch_size,
                          TokenCount batch_kv_tokens) const;

    /** KV bytes for @p tokens cache entries. */
    Bytes kvBytes(TokenCount tokens) const;

    /** PCIe transfer time for @p bytes (offload/reload). */
    Time pcieTransferLatency(Bytes bytes) const;

    /** Fabric transfer time for @p bytes (inter-node migration),
     *  ignoring queueing (the Link adds that). */
    Time fabricTransferLatency(Bytes bytes) const;

    /**
     * GPU KV capacity in tokens: memory left after weights, derated by
     * @p reserve_fraction for activations/fragmentation.
     */
    TokenCount
    gpuKvCapacityTokens(double reserve_fraction = 0.1) const;

    const HardwareConfig& hardwareConfig() const { return hw; }

  private:
    ModelConfig model;
    HardwareConfig hw;
    double weightReadTime; //!< One full pass over the weights (s).
    double flopsPerToken;  //!< 2 * params.
};

} // namespace model
} // namespace pascal

#endif // PASCAL_MODEL_PERF_MODEL_HH
