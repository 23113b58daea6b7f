// Reproduces Table 1: peak throughput of NVIDIA Jetson AGX Orin per numeric
// format, plus the paper's Section 2.1 observation that packing lifts the
// CUDA-core throughput ceiling for sub-9-bit integer formats.
#include <iostream>

#include "arch/orin_spec.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "swar/layout.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  // Closed-form table (no simulator runs); the pool still validates
  // --threads so the flag behaves uniformly across binaries.
  const auto pool = bench::make_pool(cli);
  (void)pool;
  const arch::OrinSpec spec;

  Table t("Table 1 — peak throughput per numeric format");
  t.header({"format", "unit", "paper (TOPS)", "model (TOPS)"});
  for (const auto& row : arch::table1_rows(spec)) {
    t.row().cell(row.format).cell(row.unit).cell(row.paper_tops, 1).cell(
        row.model_tops, 1);
  }
  bench::emit(t, cli);

  Table p("CUDA-core INT throughput: zero-masking vs VitBit packing");
  p.header({"bitwidth", "values/reg", "zero-mask (TOPS)", "packed (TOPS)"});
  for (const int w : {8, 6, 5, 4, 2}) {
    p.row()
        .cell(std::int64_t{w})
        .cell(std::int64_t{swar::packing_factor(w)})
        .cell(arch::cuda_core_int_tops(spec, w, false), 1)
        .cell(arch::cuda_core_int_tops(spec, w, true), 1);
  }
  std::cout << "\n";
  bench::emit(p, cli);
  std::cout << "\nPaper Section 2.1: ideal CUDA-core INT8 would reach ~25% of\n"
               "tensor-core INT8 throughput; packing recovers half of that\n"
               "gap in software on unmodified hardware.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
