// Extension bench: the paper's future work — packing below INT8. Runs the
// ViT-Base timing pipeline with the INT4 policy (4 values per register,
// Figure 3d) against the INT8 configuration.
//
// Scope note: the tensor-core slice is kept at the INT8 IMMA rate in both
// rows so the comparison isolates the *packing* effect on the CUDA-core
// slices; native INT4 IMMA (2x rate, Table 1) would accelerate the TC slice
// of both methods equally.
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "nn/vit_model.h"
#include "vitbit/pipeline.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);
  const auto log = nn::build_kernel_log(nn::vit_base());

  Table t("Extension — packing factor (INT8 vs INT4 policies) on ViT-Base");
  t.header({"config", "pack factor", "time (ms)", "speedup vs TC",
            "CUDA-kernel speedup"});
  // Jobs: [TC, IC, VitBit@pf=2, VitBit@pf=3, VitBit@pf=4].
  std::vector<core::InferenceJob> jobs = {{&log, core::Strategy::kTC, {}},
                                          {&log, core::Strategy::kIC, {}}};
  for (const int pf : {2, 3, 4}) {
    jobs.push_back({&log, core::Strategy::kVitBit, {}});
    jobs.back().config.pack_factor = pf;
  }
  const auto timings = core::time_inferences(jobs, spec, calib, &pool);
  const auto& tc = timings[0];
  const auto& ic = timings[1];
  for (const int pf : {2, 3, 4}) {
    const auto& r = timings[pf];
    t.row()
        .cell(pf == 2 ? "VitBit INT8 (Fig. 3b)"
                      : (pf == 3 ? "VitBit INT5 (Fig. 3c)"
                                 : "VitBit INT4 (Fig. 3d)"))
        .cell(std::int64_t{pf})
        .cell(r.total_ms(spec), 3)
        .cell(static_cast<double>(tc.total_cycles) /
                  static_cast<double>(r.total_cycles),
              2)
        .cell(static_cast<double>(ic.cuda_cycles) /
                  static_cast<double>(r.cuda_cycles),
              2);
  }
  bench::emit(t, cli);
  std::cout << "\nDenser packing shrinks the CUDA-core slices' instruction\n"
               "count further (4 MACs per IMAD at INT4), extending the\n"
               "paper's INT8 result toward its stated future work.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
