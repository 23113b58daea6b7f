// Extension bench: accuracy of the integer kernel families against float
// references — the shift-based I-ViT kernels the paper's workload uses vs
// the polynomial I-BERT family. Both are packing-friendly integer streams;
// this quantifies the numeric cost of integer-only inference.
#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "quant/ilayernorm.h"
#include "quant/int_exp.h"
#include "quant/int_poly.h"
#include "quant/shift_gelu.h"
#include "quant/shiftmax.h"

namespace vitbit {
namespace {

struct Err {
  double max = 0, mean = 0;
  std::int64_t n = 0;
  void add(double got, double want) {
    const double e = std::abs(got - want);
    max = std::max(max, e);
    mean += e;
    ++n;
  }
  double avg() const { return n ? mean / static_cast<double>(n) : 0.0; }
};

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  // Host-side functional bench (no simulator runs); the pool still
  // validates --threads so the flag behaves uniformly across binaries.
  const auto pool = bench::make_pool(cli);
  (void)pool;
  const int fb = static_cast<int>(cli.get_int("fb", 10));
  const std::int32_t one = 1 << fb;

  Table t("Extension — integer-kernel accuracy vs float references");
  t.header({"kernel", "family", "max err", "mean err"});

  // exp on [-8, 0].
  {
    Err shift, poly;
    for (double x = 0.0; x >= -8.0; x -= 0.004) {
      const auto p = static_cast<std::int32_t>(std::lround(x * one));
      const double want = std::exp(x);
      shift.add(quant::int_exp_neg(p, fb) / static_cast<double>(one), want);
      poly.add(quant::int_exp_poly(p, fb) / static_cast<double>(one), want);
    }
    t.row()
        .cell("exp(x), x in [-8,0]")
        .cell("shift (I-ViT)")
        .cell(shift.max, 4)
        .cell(shift.avg(), 4);
    t.row()
        .cell("")
        .cell("poly (I-BERT)")
        .cell(poly.max, 4)
        .cell(poly.avg(), 4);
  }

  // GELU on [-4, 4].
  {
    Err shift, poly;
    MatrixF32 xf(1, 2001);
    MatrixI32 xi(1, 2001);
    for (int i = 0; i <= 2000; ++i) {
      const double x = -4.0 + 0.004 * i;
      xf.at(0, i) = static_cast<float>(x);
      xi.at(0, i) = static_cast<std::int32_t>(std::lround(x * one));
    }
    const auto want = quant::gelu_erf_ref(xf);
    const auto got_s = quant::shift_gelu(xi, fb);
    const auto got_p = quant::poly_gelu(xi, fb);
    for (std::size_t i = 0; i < want.size(); ++i) {
      shift.add(got_s.flat()[i] / static_cast<double>(one), want.flat()[i]);
      poly.add(got_p.flat()[i] / static_cast<double>(one), want.flat()[i]);
    }
    t.row()
        .cell("GELU(x), x in [-4,4]")
        .cell("shift (I-ViT)")
        .cell(shift.max, 4)
        .cell(shift.avg(), 4);
    t.row()
        .cell("")
        .cell("poly (I-BERT)")
        .cell(poly.max, 4)
        .cell(poly.avg(), 4);
  }

  // softmax rows (ViT-like logits).
  {
    Err shift, poly;
    Rng rng(3);
    MatrixF32 xf(32, 64);
    MatrixI32 xi(32, 64);
    for (std::size_t i = 0; i < xf.size(); ++i) {
      const double x = rng.normal(0.0, 2.0);
      xf.flat()[i] = static_cast<float>(x);
      xi.flat()[i] = static_cast<std::int32_t>(std::lround(x * one));
    }
    const auto want = quant::softmax_ref(xf);
    const auto got_s = quant::shiftmax(xi, fb, 14);
    const auto got_p = quant::poly_softmax(xi, fb, 14);
    for (std::size_t i = 0; i < want.size(); ++i) {
      shift.add(got_s.flat()[i] / 16384.0, want.flat()[i]);
      poly.add(got_p.flat()[i] / 16384.0, want.flat()[i]);
    }
    t.row()
        .cell("softmax (N=64 rows)")
        .cell("shift (I-ViT)")
        .cell(shift.max, 4)
        .cell(shift.avg(), 4);
    t.row()
        .cell("")
        .cell("poly (I-BERT)")
        .cell(poly.max, 4)
        .cell(poly.avg(), 4);
  }

  bench::emit(t, cli);
  std::cout << "\nBoth families are integer-only and lane-parallel over most"
               " of their\nop streams, so either slots into VitBit's packed"
               " CUDA-core kernels;\nthe polynomial family buys accuracy with"
               " a few extra multiplies.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
