// Host GEMM engine bench: times the simd engine (tensor/gemm_simd.h) at
// the active SIMD tier against the reference triple loop on the linear
// GEMM shapes of a ViT-Base encoder layer, for both the int32 accumulator
// path and f32. The reference runs once per shape and dtype. Every row
// also verifies bit-identity (max|diff| must be 0 — the simd engine is a
// faster spelling of the same arithmetic, not an approximation).
// VITBIT_SIMD_LEVEL picks the tier; at none the engine runs the scalar
// tiles of tensor/gemm_blocked.h.
//
//   host_gemm [--shapes=fc1,fc2,...] [--repeats=5] [--seed=42]
//             [--threads=N] [--csv] [--json=PATH]
//
// --json writes a schema-versioned run report (gemm_points section).
// GFLOP/s, speedup, and the simd level column are machine-dependent;
// everything else in the report is deterministic for a given seed, at
// every thread count and every VITBIT_SIMD_LEVEL — which is what lets CI
// byte-diff stripped reports across --threads values and SIMD tiers.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cli.h"
#include "tensor/gemm_timing.h"
#include "tensor/simd_level.h"

namespace vitbit {
namespace {

std::vector<GemmShapeSpec> select_shapes(const Cli& cli) {
  std::vector<GemmShapeSpec> all;
  for (const auto& [name, s] : bench::vit_gemm_shapes(nn::vit_base()))
    all.push_back({name, s.m, s.k, s.n});
  const std::string filter = cli.get("shapes", "");
  if (filter.empty()) return all;
  std::vector<GemmShapeSpec> out;
  for (const auto& s : all)
    if (("," + filter + ",").find("," + s.name + ",") != std::string::npos)
      out.push_back(s);
  VITBIT_CHECK_MSG(!out.empty(),
                   "--shapes=" << filter << " matched no ViT-Base GEMM");
  return out;
}

int run(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Cli cli(argc, argv);
  auto pool = bench::make_pool(cli);
  const auto shapes = select_shapes(cli);
  const int repeats = static_cast<int>(cli.get_int("repeats", 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string json = cli.json_path();
  const bool csv = cli.get_bool("csv", false);
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "host_gemm: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const SimdLevel level = active_simd_level();
  Table t("host GEMM: simd engine vs reference (best of " +
          std::to_string(repeats) + ", " + std::to_string(pool.size()) +
          " thread(s), simd level " + simd_level_name(level) + ")");
  t.header({"shape", "dtype", "M", "K", "N", "ref GFLOP/s", "simd GFLOP/s",
            "speedup", "max|diff|"});
  std::vector<report::GemmPointReport> points;
  for (const auto& shape : shapes) {
    // One reference timing per dtype.
    const auto mi = measure_gemm_int(shape, repeats, seed, &pool, {&level, 1});
    const auto mf = measure_gemm_f32(shape, repeats, seed, &pool, {&level, 1});
    for (const auto& [dtype, m] :
         {std::pair<const char*, const GemmMeasurement&>{"int32", mi[0]},
          {"f32", mf[0]}}) {
      t.row()
          .cell(shape.name)
          .cell(dtype)
          .cell(shape.m)
          .cell(shape.k)
          .cell(shape.n)
          .cell(m.ref_gflops, 2)
          .cell(m.engine_gflops, 2)
          .cell(m.speedup, 2)
          .cell(m.max_abs_diff, 0);
      points.push_back(
          report::make_gemm_point(shape, dtype, "simd", level, repeats, m));
    }
  }
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  // Every row must show max|diff| = 0, for f32 too (see gemm_simd.h): the
  // simd engine promises bit-identity with the reference, not "close
  // enough". Fail the bench loudly if timing ever races ahead of
  // correctness.
  for (const auto& p : points)
    VITBIT_CHECK_MSG(p.max_abs_diff == 0.0,
                     p.engine << " engine diverged from reference on "
                              << report::key(p)
                              << ": max|diff|=" << p.max_abs_diff);

  if (!json.empty()) {
    report::RunReport rep;
    rep.tool = "host_gemm";
    rep.meta = report::build_metadata();
    rep.meta["model"] = "vit";
    rep.meta["seed"] = std::to_string(seed);
    rep.threads = pool.size();
    rep.gemm_points = std::move(points);
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, vitbit::run);
}
