// The multi-model zoo behind the scheduler tier (serve/sched): named
// models — ViT variants, MLP-Mixer, the edge CNN, and int4-packed
// variants riding VitBit's pack factor — each described by a per-batch
// kernel-log builder, the strategy config it serves under, and its
// weight footprint. A ModelRegistry memoizes one LatencyTable per model
// through the shared build_model_latency_tables helper, keeping
// per-model latency fidelity grounded in the simulated kernels rather
// than synthetic distributions, and prices cache-aware model swaps: a
// replica switching to a model still resident in its weight cache pays a
// flat warm activation, while a cold switch reloads the weights over the
// configured link bandwidth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"

namespace vitbit::serve {

// One catalog entry of the zoo.
struct ZooEntry {
  std::string name;
  // Kernel log of one batch-`b` inference of this model.
  KernelLogForBatch log_for_batch;
  // Strategy knobs the model serves under; int4 variants pack 4 operands
  // per register (core::StrategyConfig::pack_factor = 4, paper Fig. 3d).
  core::StrategyConfig strategy_cfg;
  // Weight bytes at the model's storage precision (int8 unless the name
  // says otherwise) — the cold-swap reload cost driver.
  std::uint64_t weight_bytes = 0;
};

// Catalog lookup; throws CheckError on an unknown name, listing the
// catalog. Names: vit-s, vit-b, vit-l, vit-b-int4, mixer-s, cnn-edge,
// plus the test-scale vit-tiny, vit-tiny-int4, cnn-small, mixer-tiny.
ZooEntry zoo_entry(const std::string& name);
// The catalog, production-scale entries first.
std::vector<std::string> zoo_model_names();

// Cache-aware model-swap cost model. A replica keeps the weights of its
// last `cache_models` served models resident (LRU); activating a cached
// model costs warm_swap_us, a cold switch costs weight_bytes streamed at
// load_gbps (>= 1 us). A replica's very first load is free — weights are
// staged before traffic.
struct SwapCostConfig {
  double load_gbps = 8.0;
  std::uint64_t warm_swap_us = 200;
  int cache_models = 1;

  void validate() const;
};

// Memoized per-(model, batch-size) latency tables for a named subset of
// the zoo under one serving strategy. All tables come from one
// build_model_latency_tables call — every (model, batch) inference timed
// together, each distinct SM slice simulated once over `pool` — and are
// kept in catalog-argument order, so the registry is bit-identical at
// every --threads value.
class ModelRegistry {
 public:
  ModelRegistry(const std::vector<std::string>& names,
                core::Strategy strategy, const arch::OrinSpec& spec,
                const arch::Calibration& calib, int max_batch,
                const SwapCostConfig& swap, ThreadPool* pool = nullptr);
  // Prebuilt tables, model m being names[m] over tables[m] — the single-
  // model sweeps' ViT (its layer count is not a zoo entry) and synthetic
  // tables in tests. With no weight footprint to stream, a cold swap
  // costs the 1 us floor.
  ModelRegistry(std::vector<std::string> names,
                std::vector<LatencyTable> tables,
                const SwapCostConfig& swap = {});

  int num_models() const { return static_cast<int>(names_.size()); }
  const std::string& name(int m) const;
  const LatencyTable& table(int m) const;
  core::Strategy strategy() const { return strategy_; }
  // Index of `name`; -1 when the registry does not hold it.
  int index_of(const std::string& name) const;

  // Swap pricing (see SwapCostConfig).
  std::uint64_t cold_swap_us(int m) const;
  std::uint64_t warm_swap_us() const { return swap_.warm_swap_us; }
  int cache_capacity() const { return swap_.cache_models; }

 private:
  std::vector<std::string> names_;
  std::vector<LatencyTable> tables_;
  std::vector<std::uint64_t> cold_swap_us_;
  core::Strategy strategy_ = core::Strategy::kVitBit;
  SwapCostConfig swap_;
};

}  // namespace vitbit::serve
