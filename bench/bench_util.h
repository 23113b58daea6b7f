// Shared helpers for the bench binaries: ViT-Base GEMM shapes and output
// formatting. Every bench prints the paper's reported values next to the
// model's, so EXPERIMENTS.md can be regenerated by running the binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "nn/vit_model.h"
#include "report/run_report.h"
#include "trace/gemm_traces.h"

namespace vitbit::bench {

// Host thread pool from --threads (default hardware_concurrency, 1 =
// serial). Every bench constructs this so the flag is validated uniformly.
inline ThreadPool make_pool(const Cli& cli) {
  return ThreadPool(cli.threads());
}

// Renders a result table: aligned text by default, CSV when the bench was
// invoked with --csv (for plotting scripts). With --json=<path> the table
// is additionally written as a JSON document for CI tooling
// (report/run_report.h::table_to_json).
inline void emit(const Table& t, const Cli& cli) {
  if (cli.get_bool("csv", false))
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  const std::string json = cli.json_path();
  if (!json.empty()) report::save_json_file(json, report::table_to_json(t));
}

// The linear (tensor-core) GEMM shapes of one ViT-Base encoder layer plus
// embedding/head, taken from the kernel log.
inline std::vector<std::pair<std::string, trace::GemmShape>> vit_gemm_shapes(
    const nn::VitConfig& cfg) {
  std::vector<std::pair<std::string, trace::GemmShape>> out;
  const auto log = nn::build_kernel_log(cfg);
  for (const auto& call : log.calls()) {
    if (call.kind != nn::KernelKind::kGemm) continue;
    if (call.name.rfind("layer0", 0) == 0 || call.name == "patch_embed" ||
        call.name == "head")
      out.push_back({call.name, {call.m, call.k, call.n, call.batch}});
  }
  return out;
}

// A representative compute-heavy GEMM (the fc1 linear of ViT-Base) used by
// the initial study.
inline trace::GemmShape study_shape() { return {197, 768, 3072, 1}; }

}  // namespace vitbit::bench
