// Host GEMM engine bench: times the fast engines — blocked panel-packed
// (tensor/gemm_blocked.h) and runtime-dispatched SIMD (tensor/gemm_simd.h)
// — against the reference triple loop on the linear GEMM shapes of a
// ViT-Base encoder layer, for both the int32 accumulator path and f32. The
// reference runs once per shape and dtype, shared by every engine.
// Every row also verifies bit-identity (max|diff| must be 0 — the fast
// engines are faster spellings of the same arithmetic, not
// approximations).
//
//   host_gemm [--shapes=fc1,fc2,...] [--engines=blocked,simd] [--repeats=5]
//             [--seed=42] [--threads=N] [--csv] [--json=PATH]
//
// --json writes a schema-versioned run report (gemm_points section,
// schema minor 6). GFLOP/s, speedup, and the simd level column are
// machine-dependent; everything else in the report is deterministic for a
// given seed, at every thread count and every VITBIT_SIMD_LEVEL — which
// is what lets CI byte-diff stripped reports across --threads values and
// SIMD tiers.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cli.h"
#include "tensor/gemm_blocked.h"
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

std::vector<GemmEngine> select_engines(const Cli& cli) {
  const std::string spec = cli.get("engines", "blocked,simd");
  std::vector<GemmEngine> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string name =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!name.empty()) out.push_back(gemm_engine_from_string(name));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  VITBIT_CHECK_MSG(!out.empty(), "--engines selected no engine (valid: "
                                     << gemm_engine_names() << ")");
  return out;
}

// The simd-level column: what the simd engine actually dispatched to;
// other engines never consult the SIMD tier.
std::string engine_simd_level(GemmEngine engine) {
  return engine == GemmEngine::kSimd ? simd_level_name(active_simd_level())
                                     : "";
}

report::GemmPointReport make_point(const GemmShapeSpec& shape,
                                   const std::string& dtype,
                                   GemmEngine engine, int repeats,
                                   const GemmMeasurement& m) {
  report::GemmPointReport p;
  p.name = shape.name;
  p.dtype = dtype;
  p.engine = gemm_engine_name(engine);
  p.simd_level = engine_simd_level(engine);
  p.m = shape.m;
  p.k = shape.k;
  p.n = shape.n;
  p.repeats = repeats;
  p.gflops = m.engine_gflops;
  p.ref_gflops = m.ref_gflops;
  p.speedup = m.speedup;
  p.max_abs_diff = m.max_abs_diff;
  return p;
}

int run(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Cli cli(argc, argv);
  auto pool = bench::make_pool(cli);
  const auto shapes = select_shapes(cli);
  const auto engines = select_engines(cli);
  const int repeats = static_cast<int>(cli.get_int("repeats", 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string json = cli.json_path();
  const bool csv = cli.get_bool("csv", false);
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "host_gemm: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  Table t("host GEMM: " + std::to_string(kGemmMr) + "x" +
          std::to_string(kGemmNr) + " engines vs reference (best of " +
          std::to_string(repeats) + ", " + std::to_string(pool.size()) +
          " thread(s), simd level " +
          simd_level_name(active_simd_level()) + ")");
  t.header({"shape", "dtype", "engine", "simd", "M", "K", "N",
            "ref GFLOP/s", "eng GFLOP/s", "speedup", "max|diff|"});
  std::vector<report::GemmPointReport> points;
  for (const auto& shape : shapes) {
    // One reference timing per dtype, shared by every engine.
    const auto mi = measure_gemm_int(shape, repeats, seed, &pool, engines);
    const auto mf = measure_gemm_f32(shape, repeats, seed, &pool, engines);
    for (std::size_t e = 0; e < engines.size(); ++e) {
      const GemmEngine engine = engines[e];
      for (const auto& [dtype, m] :
           {std::pair<const char*, const GemmMeasurement&>{"int32", mi[e]},
            {"f32", mf[e]}}) {
        t.row()
            .cell(shape.name)
            .cell(dtype)
            .cell(gemm_engine_name(engine))
            .cell(engine_simd_level(engine))
            .cell(shape.m)
            .cell(shape.k)
            .cell(shape.n)
            .cell(m.ref_gflops, 2)
            .cell(m.engine_gflops, 2)
            .cell(m.speedup, 2)
            .cell(m.max_abs_diff, 0);
        points.push_back(make_point(shape, dtype, engine, repeats, m));
      }
    }
  }
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  // Every row must show max|diff| = 0 for int paths and stay within the
  // engines' contract for f32 (also exact, see gemm_simd.h): the fast
  // engines promise bit-identity with the reference, not "close enough".
  // Fail the bench loudly if timing ever races ahead of correctness.
  for (const auto& p : points)
    VITBIT_CHECK_MSG(p.max_abs_diff == 0.0,
                     p.engine << " engine diverged from reference on "
                              << p.key()
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
  return vitbit::bench::guarded_main(argc, argv, vitbit::run);
}
