#include "serve/models/registry.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/cnn.h"
#include "nn/mixer.h"
#include "nn/vit_config.h"
#include "nn/vit_model.h"

namespace vitbit::serve {

namespace {

// Analytic int8 weight footprints (one byte per parameter; biases and
// norm scales are noise at these sizes and are omitted, matching the
// kernel logs which time GEMMs only).
std::uint64_t vit_weight_bytes(const nn::VitConfig& c) {
  const auto h = static_cast<std::uint64_t>(c.hidden_dim);
  const auto mlp = static_cast<std::uint64_t>(c.mlp_dim);
  std::uint64_t params = static_cast<std::uint64_t>(c.patch_dim()) * h;
  params += static_cast<std::uint64_t>(c.num_layers) *
            (4 * h * h + 2 * h * mlp);
  params += h * static_cast<std::uint64_t>(c.num_classes);
  return params;
}

std::uint64_t cnn_weight_bytes(const nn::CnnConfig& c) {
  std::uint64_t params = 0;
  int in_ch = c.channels;
  for (const auto& conv : c.convs) {
    params += static_cast<std::uint64_t>(in_ch) * conv.kernel * conv.kernel *
              conv.out_channels;
    in_ch = conv.out_channels;
  }
  params += static_cast<std::uint64_t>(c.features_before_head()) *
            c.num_classes;
  return params;
}

std::uint64_t mixer_weight_bytes(const nn::MixerConfig& c) {
  const auto h = static_cast<std::uint64_t>(c.hidden_dim);
  const auto tokens = static_cast<std::uint64_t>(c.num_patches());
  std::uint64_t params = static_cast<std::uint64_t>(c.patch_dim()) * h;
  params += static_cast<std::uint64_t>(c.num_layers) *
            (2 * tokens * c.token_mlp_dim + 2 * h * c.channel_mlp_dim);
  params += h * static_cast<std::uint64_t>(c.num_classes);
  return params;
}

ZooEntry vit_entry(const std::string& name, const nn::VitConfig& cfg,
                   bool int4) {
  ZooEntry e;
  e.name = name;
  e.log_for_batch = [cfg](int batch) {
    return nn::build_kernel_log(cfg, batch);
  };
  if (int4) e.strategy_cfg.pack_factor = 4;
  // int4 stores two parameters per byte.
  e.weight_bytes = int4 ? vit_weight_bytes(cfg) / 2 : vit_weight_bytes(cfg);
  return e;
}

ZooEntry cnn_entry(const std::string& name, const nn::CnnConfig& cfg) {
  ZooEntry e;
  e.name = name;
  e.log_for_batch = [cfg](int batch) {
    return nn::build_cnn_kernel_log(cfg, batch);
  };
  e.weight_bytes = cnn_weight_bytes(cfg);
  return e;
}

ZooEntry mixer_entry(const std::string& name, const nn::MixerConfig& cfg) {
  ZooEntry e;
  e.name = name;
  e.log_for_batch = [cfg](int batch) {
    return nn::build_mixer_kernel_log(cfg, batch);
  };
  e.weight_bytes = mixer_weight_bytes(cfg);
  return e;
}

std::vector<ZooEntry> build_catalog() {
  std::vector<ZooEntry> zoo;
  zoo.push_back(vit_entry("vit-s", nn::vit_small(), false));
  zoo.push_back(vit_entry("vit-b", nn::vit_base(), false));
  zoo.push_back(vit_entry("vit-l", nn::vit_large(), false));
  zoo.push_back(vit_entry("vit-b-int4", nn::vit_base(), true));
  zoo.push_back(mixer_entry("mixer-s", nn::mixer_small()));
  zoo.push_back(cnn_entry("cnn-edge", nn::cnn_edge()));
  zoo.push_back(vit_entry("vit-tiny", nn::vit_tiny(), false));
  zoo.push_back(vit_entry("vit-tiny-int4", nn::vit_tiny(), true));
  zoo.push_back(cnn_entry("cnn-small", nn::cnn_small()));
  zoo.push_back(mixer_entry("mixer-tiny", nn::mixer_tiny()));
  return zoo;
}

}  // namespace

ZooEntry zoo_entry(const std::string& name) {
  auto zoo = build_catalog();
  for (auto& e : zoo)
    if (e.name == name) return std::move(e);
  std::string known;
  for (const auto& e : zoo) {
    if (!known.empty()) known += "|";
    known += e.name;
  }
  VITBIT_CHECK_MSG(false, "unknown zoo model: " << name << " (want " << known
                                                << ")");
  return ZooEntry{};
}

std::vector<std::string> zoo_model_names() {
  std::vector<std::string> names;
  for (const auto& e : build_catalog()) names.push_back(e.name);
  return names;
}

void SwapCostConfig::validate() const {
  VITBIT_CHECK_MSG(std::isfinite(load_gbps) && load_gbps > 0.0,
                   "swap load bandwidth must be positive finite");
  VITBIT_CHECK_MSG(cache_models >= 1, "weight cache must hold >= 1 model");
}

ModelRegistry::ModelRegistry(const std::vector<std::string>& names,
                             core::Strategy strategy,
                             const arch::OrinSpec& spec,
                             const arch::Calibration& calib, int max_batch,
                             const SwapCostConfig& swap, ThreadPool* pool)
    : names_(names), strategy_(strategy), swap_(swap) {
  VITBIT_CHECK_MSG(!names_.empty(), "model registry needs >= 1 model");
  VITBIT_CHECK(max_batch >= 1);
  swap_.validate();
  for (std::size_t i = 0; i < names_.size(); ++i)
    for (std::size_t j = i + 1; j < names_.size(); ++j)
      VITBIT_CHECK_MSG(names_[i] != names_[j],
                       "duplicate zoo model: " << names_[i]);
  std::vector<LatencyTableModel> models;
  cold_swap_us_.reserve(names_.size());
  for (const auto& name : names_) {
    ZooEntry entry = zoo_entry(name);
    const auto us = std::llround(static_cast<double>(entry.weight_bytes) /
                                 (swap_.load_gbps * 1e3));
    cold_swap_us_.push_back(
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(us)));
    models.push_back(
        {std::move(entry.log_for_batch), {strategy_}, entry.strategy_cfg});
  }
  // Every model's (batch) tables in one build, so slices shared across
  // models and batch sizes are simulated once.
  tables_.reserve(names_.size());
  for (auto& tables :
       build_model_latency_tables(models, spec, calib, max_batch, pool))
    tables_.push_back(std::move(tables.front()));
}

ModelRegistry::ModelRegistry(std::vector<std::string> names,
                             std::vector<LatencyTable> tables,
                             const SwapCostConfig& swap)
    : names_(std::move(names)),
      tables_(std::move(tables)),
      cold_swap_us_(names_.size(), 1),
      swap_(swap) {
  VITBIT_CHECK_MSG(!names_.empty(), "model registry needs >= 1 model");
  VITBIT_CHECK_MSG(tables_.size() == names_.size(),
                   tables_.size() << " tables for " << names_.size()
                                  << " models");
  swap_.validate();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto& lat = tables_[i].batch_latency_us;
    VITBIT_CHECK_MSG(lat.size() >= 2 && *std::min_element(lat.begin() + 1,
                                                          lat.end()) >= 1,
                     "model " << names_[i]
                              << " needs a latency of >= 1 us per batch size");
    for (std::size_t j = i + 1; j < names_.size(); ++j)
      VITBIT_CHECK_MSG(names_[i] != names_[j],
                       "duplicate zoo model: " << names_[i]);
  }
  strategy_ = tables_.front().strategy;
}

const std::string& ModelRegistry::name(int m) const {
  VITBIT_CHECK(m >= 0 && m < num_models());
  return names_[static_cast<std::size_t>(m)];
}

const LatencyTable& ModelRegistry::table(int m) const {
  VITBIT_CHECK(m >= 0 && m < num_models());
  return tables_[static_cast<std::size_t>(m)];
}

int ModelRegistry::index_of(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  return it == names_.end() ? -1
                            : static_cast<int>(it - names_.begin());
}

std::uint64_t ModelRegistry::cold_swap_us(int m) const {
  VITBIT_CHECK(m >= 0 && m < num_models());
  return cold_swap_us_[static_cast<std::size_t>(m)];
}

}  // namespace vitbit::serve
