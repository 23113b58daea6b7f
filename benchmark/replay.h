// Traced-mode replay: splits the layers that time_inference, the model
// registry and the functional executors hide behind one call. After the
// timed ops it
//   - rebuilds each kernel log (nn) and counts its distinct CallKeys;
//   - builds every distinct kernel at its strategy's untuned public plan
//     (trace) and simulates it (sim);
//   - runs the GEMM operands through the reference engines (tensor), the
//     VitBit preprocessing and fused GEMM (vitbit) and the packed SWAR
//     GEMM (swar), checking every result against the reference;
//   - round-trips the run's report through the report layer.
#pragma once

#include <cstddef>
#include <string>

#include "bench.h"

namespace bench {

// Adds the replay's per-layer metrics to `out` and its failures to
// `check`; returns the number of replayed calls. `work_dir` holds the
// report round trip's temporary files.
std::size_t run_replay(const ReplayInputs& in, const RunContext& ctx,
                       const std::string& work_dir, Metrics& out,
                       Checker& check);

}  // namespace bench
