// The four benchmark workloads. Each op is one fresh call into a layer's
// public API; the benchmark keeps no cache of its own. README.md gives the
// reason each workload exists and the metrics it should move.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench.h"
#include "nn/vit_config.h"
#include "nn/vit_model.h"
#include "serve/cluster.h"
#include "serve/models/registry.h"
#include "vitbit/executors.h"

namespace bench {

namespace {

namespace serve = vitbit::serve;
namespace report = vitbit::report;

std::string pack_label(int pack) { return "p" + std::to_string(pack); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// A zoo model's kernel logs for every batch size a registry times, as one
// log, under the model's own strategy config.
KernelLogUse zoo_log_use(const std::string& name, core::Strategy strategy,
                         int max_batch) {
  const auto entry = serve::zoo_entry(name);
  return {name,
          [entry, max_batch] {
            nn::KernelLog log;
            for (int b = 1; b <= max_batch; ++b) {
              const nn::KernelLog batch_log = entry.log_for_batch(b);
              for (const auto& c : batch_log.calls()) log.add(c);
            }
            return log;
          },
          {strategy},
          {entry.strategy_cfg}};
}

report::RunReport base_report(const std::string& workload,
                              std::uint64_t seed) {
  report::RunReport rep;
  rep.tool = "vitbit_bench";
  rep.meta["workload"] = workload;
  rep.meta["seed"] = std::to_string(seed);
  return rep;
}

// ---------------------------------------------------------------------------
// vit_figures: one time_inference (auto-tune on) per (model, strategy,
// pack) combo — the call behind the paper figures and the fig gates.

class VitFigures final : public Workload {
 public:
  explicit VitFigures(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    if (ctx_.smoke) {
      models_.push_back({"vit-tiny", nn::vit_tiny(), {}});
    } else {
      models_.push_back({"vit-s", nn::vit_small(), {}});
      models_.push_back({"vit-b", nn::vit_base(), {}});
      models_.push_back({"vit-l", nn::vit_large(), {}});
    }
    for (auto& m : models_) {
      const ScopedSpan span("nn", "nn.build_kernel_log", m.name);
      m.log = nn::build_kernel_log(m.cfg);
    }
    for (std::size_t mi = 0; mi < models_.size(); ++mi)
      for (const auto s : core::all_strategies())
        for (const int pack : {2, 4}) ops_.push_back({mi, s, pack});
    permute(ops_, ctx_.seed);
    results_.assign(ops_.size(), {});

    core::StrategyConfig cfg;
    core::time_inference(models_.front().log, core::Strategy::kVitBit, cfg,
                         ctx_.spec, *ctx_.calib, ctx_.pool);
  }

  std::size_t num_ops() const override { return ops_.size(); }
  const char* op_layer() const override { return "vitbit"; }
  const char* op_call() const override { return "vitbit.time_inference"; }
  std::string op_label(std::size_t i) const override {
    const Op& op = ops_[i];
    return models_[op.model].name + "/" + core::strategy_name(op.strategy) +
           "/" + pack_label(op.pack);
  }

  void run_op(std::size_t i) override {
    const Op& op = ops_[i];
    core::StrategyConfig cfg;
    cfg.pack_factor = op.pack;
    results_[i] = core::time_inference(models_[op.model].log, op.strategy,
                                       cfg, ctx_.spec, *ctx_.calib,
                                       ctx_.pool);
  }

  bool check_op(std::size_t i, Checker& check) override {
    const std::string key = op_label(i);
    const bool cycles = check.value(key + "/cycles", results_[i].total_cycles);
    const bool instr =
        check.value(key + "/instructions", results_[i].total_instructions);
    return cycles && instr;
  }

  bool seed_dependent() const override { return false; }

  void add_metrics(const RunSummary& run, Metrics& out) const override {
    if (!run.traced) {
      out.add("inferences_timed_per_s", run.ops_per_s, "calls/s");
      // Simulator error against the paper's Fig. 5 ViT-Base speedups over
      // TC: the hardware-simulation accuracy figure beside every simulated
      // speedup the workload produces.
      const double tc = cycles_of("vit-b", core::Strategy::kTC, 2);
      if (tc > 0.0) {
        const std::pair<core::Strategy, double> paper[] = {
            {core::Strategy::kTacker, 1.06},
            {core::Strategy::kTCICFC, 1.11},
            {core::Strategy::kVitBit, 1.22}};
        double err = 0.0;
        for (const auto& [s, speedup] : paper)
          err += std::abs(tc / cycles_of("vit-b", s, 2) - speedup) / speedup;
        out.add("paper_err_pct", 100.0 * err / 3.0, "%");
      }
      return;
    }
    for (const auto s : core::all_strategies()) {
      std::vector<double> walls;
      double keys = 0.0;
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        if (ops_[i].strategy != s) continue;
        walls.push_back(run.op_s[i]);
        keys += static_cast<double>(
            distinct_call_keys(models_[ops_[i].model].log));
      }
      const std::string name = core::strategy_name(s);
      out.add("vitbit.time_inference_s." + name, mean(walls), "s");
      out.add("vitbit.s_per_distinct_key." + name,
              std::accumulate(walls.begin(), walls.end(), 0.0) / keys, "s");
    }
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    core::StrategyConfig p2, p4;
    p4.pack_factor = 4;
    for (const auto& m : models_)
      in.logs.push_back({m.name, [cfg = m.cfg] {
                           return nn::build_kernel_log(cfg);
                         },
                         core::all_strategies(), {p2, p4}});
    // The Fig. 5 report: the first model that the figures cover, pack 2.
    in.report = base_report("vit_figures", ctx_.seed);
    const std::string fig_model = ctx_.smoke ? "vit-tiny" : "vit-b";
    for (std::size_t i = 0; i < ops_.size(); ++i)
      if (models_[ops_[i].model].name == fig_model && ops_[i].pack == 2)
        in.report.strategies.push_back(
            report::make_strategy_report(results_[i], ctx_.spec));
    return in;
  }

 private:
  struct Model {
    std::string name;
    nn::VitConfig cfg;
    nn::KernelLog log;
  };
  struct Op {
    std::size_t model = 0;
    core::Strategy strategy = core::Strategy::kTC;
    int pack = 2;
  };

  double cycles_of(const std::string& model, core::Strategy s,
                   int pack) const {
    for (std::size_t i = 0; i < ops_.size(); ++i)
      if (models_[ops_[i].model].name == model && ops_[i].strategy == s &&
          ops_[i].pack == pack)
        return static_cast<double>(results_[i].total_cycles);
    return 0.0;
  }

  RunContext ctx_;
  std::vector<Model> models_;
  std::vector<Op> ops_;
  std::vector<core::InferenceTiming> results_;
};

// ---------------------------------------------------------------------------
// zoo_tables: one ModelRegistry construction over the production zoo —
// the set-up cost of every production-zoo serving run.

class ZooTables final : public Workload {
 public:
  explicit ZooTables(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    names_ = ctx_.smoke
                 ? std::vector<std::string>{"vit-tiny", "mixer-tiny",
                                            "cnn-small"}
                 : std::vector<std::string>{"vit-b-int4", "mixer-s",
                                            "cnn-edge"};
    max_batch_ = ctx_.smoke ? 2 : 4;
    permute(names_, ctx_.seed);
    const serve::ModelRegistry warm_up({"vit-tiny"}, core::Strategy::kVitBit,
                                       ctx_.spec, *ctx_.calib, max_batch_,
                                       {}, ctx_.pool);
  }

  std::size_t num_ops() const override { return 1; }
  const char* op_layer() const override { return "serve"; }
  const char* op_call() const override { return "serve.ModelRegistry"; }
  std::string op_label(std::size_t) const override {
    std::string label;
    for (const auto& n : names_) label += (label.empty() ? "" : ",") + n;
    return label;
  }

  void run_op(std::size_t) override {
    registry_ = std::make_unique<serve::ModelRegistry>(
        names_, core::Strategy::kVitBit, ctx_.spec, *ctx_.calib, max_batch_,
        serve::SwapCostConfig{}, ctx_.pool);
  }

  bool check_op(std::size_t, Checker& check) override {
    bool ok = check.require(registry_->num_models() ==
                                static_cast<int>(names_.size()),
                            "registry holds every requested model");
    for (int m = 0; m < registry_->num_models(); ++m)
      for (int b = 1; b <= max_batch_; ++b)
        ok &= check.value(registry_->name(m) + "/b" + std::to_string(b) +
                              "/latency_us",
                          registry_->table(m).latency_us(b));
    return ok;
  }

  bool seed_dependent() const override { return false; }

  void add_metrics(const RunSummary& run, Metrics& out) const override {
    if (!run.traced) {
      out.add("table_entries_per_s",
              run.ops_per_s * static_cast<double>(names_.size() * max_batch_),
              "entries/s");
      return;
    }
    out.add("serve.registry_s", run.op_s.front(), "s");
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    for (const auto& name : names_)
      in.logs.push_back(
          zoo_log_use(name, core::Strategy::kVitBit, max_batch_));
    in.report = base_report("zoo_tables", ctx_.seed);
    for (int m = 0; m < registry_->num_models(); ++m)
      for (int b = 1; b <= max_batch_; ++b)
        in.report.meta[registry_->name(m) + "/b" + std::to_string(b)] =
            std::to_string(registry_->table(m).latency_us(b));
    return in;
  }

 private:
  RunContext ctx_;
  std::vector<std::string> names_;
  int max_batch_ = 4;
  std::unique_ptr<serve::ModelRegistry> registry_;
};

// ---------------------------------------------------------------------------
// fleet_serving: the points of the CI scheduled-fleet sweep (three models,
// three classes, four shards, spread placement), fanned out over the pool.

class FleetServing final : public Workload {
 public:
  explicit FleetServing(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    cfg_.model_names = {"vit-tiny", "vit-tiny-int4", "cnn-small"};
    cfg_.rates_rps = {10000, 20000};
    cfg_.workload.duration_s = ctx_.smoke ? 0.5 : 200.0;
    cfg_.workload.seed = ctx_.seed;
    cfg_.workload.classes.assign(3, serve::ClassTraffic{});
    const double shares[] = {0.2, 0.5, 0.3};
    for (std::size_t c = 0; c < 3; ++c) {
      cfg_.workload.classes[c].rate_share = shares[c];
      cfg_.workload.classes[c].model_mix = {0.2, 0.2, 0.2};
      cfg_.workload.classes[c].model_mix[c] = 0.6;
    }
    cfg_.fleet.shard.max_batch = 4;
    cfg_.fleet.shard.queue_capacity = 32;
    cfg_.fleet.shard.iters = 4;
    cfg_.fleet.shard.classes = {{"interactive", 1.0, 300},
                                {"standard", 1.0, 20000},
                                {"batch", 1.0, 100000}};
    cfg_.swap.cache_models = 1;
    cfg_.fleet.num_shards = 4;
    cfg_.fleet.placement = serve::PlacementPolicy::kSpread;
    cfg_.fleet.cold_route_classes = 1;
    cfg_.validate();

    {
      const ScopedSpan span("serve", "serve.ModelRegistry");
      registry_ = std::make_unique<serve::ModelRegistry>(
          cfg_.model_names, cfg_.strategy, ctx_.spec, *ctx_.calib,
          cfg_.fleet.shard.max_batch, cfg_.swap, ctx_.pool);
    }
    // Points are handed to the pool highest rate (longest) first, so the
    // fan-out's makespan does not depend on an op order; the seed varies
    // the traffic instead. sweep_index keeps the report's point order.
    for (std::size_t m = 0; m < cfg_.modes.size(); ++m)
      for (std::size_t r = 0; r < cfg_.routes.size(); ++r)
        for (std::size_t q = 0; q < cfg_.rates_rps.size(); ++q)
          ops_.push_back({m, r, q, ops_.size()});
    std::stable_sort(ops_.begin(), ops_.end(), [&](const Op& a, const Op& b) {
      return cfg_.rates_rps[a.rate] > cfg_.rates_rps[b.rate];
    });
    results_.assign(ops_.size(), {});

    auto w = workload_for(ops_.front());
    w.duration_s = ctx_.smoke ? 0.05 : 1.0;
    serve::simulate_fleet_sched(w, *registry_, fleet_for(ops_.front()));
  }

  std::size_t num_ops() const override { return ops_.size(); }
  bool parallel_ops() const override { return true; }
  const char* op_layer() const override { return "serve"; }
  const char* op_call() const override {
    return "serve.simulate_fleet_sched";
  }
  std::string op_label(std::size_t i) const override {
    const Op& op = ops_[i];
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.0f", cfg_.rates_rps[op.rate]);
    return cfg_.modes[op.mode] + "/" +
           serve::route_policy_name(cfg_.routes[op.route]) + "/" + rate;
  }

  void run_op(std::size_t i) override {
    results_[i] = serve::simulate_fleet_sched(workload_for(ops_[i]),
                                              *registry_, fleet_for(ops_[i]));
  }

  bool check_op(std::size_t i, Checker& check) override {
    const auto& t = results_[i].total;
    const std::string key = op_label(i);
    bool ok = check.require(
        t.total.offered == t.total.completed + t.total.dropped + t.total.shed,
        key + ": offered == completed + dropped + shed");
    ok &= check.value(key + "/completed", t.total.completed);
    ok &= check.value(key + "/dropped", t.total.dropped);
    ok &= check.value(key + "/shed", t.total.shed);
    ok &= check.value(key + "/cold_swaps", t.cold_swaps);
    ok &= check.value(key + "/preemptions", t.preemptions);
    ok &= check.value(key + "/p99_us", t.total.p99_us);
    return ok;
  }

  // Warm routing keeps each model on the shards holding its weights, so at
  // equal traffic it must take fewer cold swaps than jsq.
  std::vector<std::size_t> check_round(Checker& check) override {
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (cfg_.routes[ops_[i].route] != serve::RoutePolicy::kWarm) continue;
      for (std::size_t j = 0; j < ops_.size(); ++j) {
        if (cfg_.routes[ops_[j].route] != serve::RoutePolicy::kJsq ||
            ops_[j].mode != ops_[i].mode || ops_[j].rate != ops_[i].rate)
          continue;
        if (!check.require(results_[i].total.cold_swaps <
                               results_[j].total.cold_swaps,
                           op_label(i) + ": warm cold swaps < jsq"))
          failed.push_back(i);
      }
    }
    return failed;
  }

  bool seed_dependent() const override { return true; }

  void add_metrics(const RunSummary& run, Metrics& out) const override {
    if (!run.traced) {
      out.add("sim_requests_per_s", total(&serve::ServeMetrics::offered) /
                                        run.round_s,
              "requests/s");
      return;
    }
    out.add("serve.registry_s", span_seconds(run, "serve.ModelRegistry"), "s");
    std::vector<double> walls = run.op_s;
    std::sort(walls.begin(), walls.end());
    out.add("serve.point_s_p50", walls[walls.size() / 2], "s");
    out.add("serve.point_s_max", walls.back(), "s");
    out.add("serve.point_imbalance", walls.back() / mean(walls), "ratio");
    out.add("serve.pool_busy_frac",
            std::accumulate(walls.begin(), walls.end(), 0.0) /
                (run.round_s * run.threads),
            "ratio");
    out.add("serve.offered", total(&serve::ServeMetrics::offered), "count");
    out.add("serve.completed", total(&serve::ServeMetrics::completed),
            "count");
    out.add("serve.dropped", total(&serve::ServeMetrics::dropped), "count");
    out.add("serve.shed", total(&serve::ServeMetrics::shed), "count");
    double cold = 0.0, preempt = 0.0;
    for (const auto& r : results_) {
      cold += static_cast<double>(r.total.cold_swaps);
      preempt += static_cast<double>(r.total.preemptions);
    }
    out.add("serve.cold_swaps", cold, "count");
    out.add("serve.preemptions", preempt, "count");
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    for (const auto& name : cfg_.model_names)
      in.logs.push_back(
          zoo_log_use(name, cfg_.strategy, cfg_.fleet.shard.max_batch));
    std::vector<serve::FleetSchedPoint> points(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      auto& p = points[ops_[i].sweep_index];
      p.mode = cfg_.modes[ops_[i].mode];
      p.route = cfg_.routes[ops_[i].route];
      p.rate_rps = cfg_.rates_rps[ops_[i].rate];
      p.metrics = results_[i];
    }
    in.report = serve::make_fleet_sched_report(cfg_, points, "vitbit_bench",
                                               ctx_.pool->size());
    return in;
  }

 private:
  struct Op {
    std::size_t mode = 0, route = 0, rate = 0;
    std::size_t sweep_index = 0;
  };

  serve::MixedWorkloadConfig workload_for(const Op& op) const {
    serve::MixedWorkloadConfig w = cfg_.workload;
    w.rate_rps = cfg_.rates_rps[op.rate];
    w.num_models = static_cast<int>(cfg_.model_names.size());
    return w;
  }
  serve::FleetSchedConfig fleet_for(const Op& op) const {
    serve::FleetSchedConfig fc = cfg_.fleet;
    fc.shard.mode = cfg_.modes[op.mode];
    fc.route = cfg_.routes[op.route];
    return fc;
  }
  double total(std::uint64_t serve::ServeMetrics::*field) const {
    double sum = 0.0;
    for (const auto& r : results_)
      sum += static_cast<double>(r.total.total.*field);
    return sum;
  }

  RunContext ctx_;
  serve::FleetSchedSweepConfig cfg_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::vector<Op> ops_;
  std::vector<serve::FleetSchedMetrics> results_;
};

// ---------------------------------------------------------------------------
// functional_vit: integer-only ViT-S/16 forward passes under every
// strategy's functional GEMM executor, single-threaded. ViT-B is out of
// reach: its fc2 (K=3072) exceeds the FP slice's exact range.

std::string digest(const MatrixF32& m) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(m.rows()));
  mix(static_cast<std::uint64_t>(m.cols()));
  for (const float v : m.flat()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

class FunctionalVit final : public Workload {
 public:
  explicit FunctionalVit(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    if (ctx_.smoke) {
      cfg_ = nn::vit_tiny();
    } else {
      cfg_ = nn::vit_small();
      cfg_.num_layers = 6;
    }
    model_ = nn::random_vit(cfg_, ctx_.seed);
    vitbit::Rng rng(ctx_.seed ^ 0x1a2b3c4d5e6f7081ull);
    MatrixF32 image(cfg_.channels * cfg_.image_size, cfg_.image_size);
    for (auto& v : image.flat()) v = static_cast<float>(rng.normal());
    patches_ = nn::extract_patches(image, cfg_);
    ops_ = core::all_strategies();
    permute(ops_, ctx_.seed);
    digests_.assign(ops_.size(), {});

    const auto tiny = nn::vit_tiny();
    const auto warm_model = nn::random_vit(tiny, ctx_.seed);
    MatrixF32 warm_image(tiny.channels * tiny.image_size, tiny.image_size);
    for (auto& v : warm_image.flat()) v = static_cast<float>(rng.normal());
    warm_model.forward(nn::extract_patches(warm_image, tiny),
                       core::make_gemm_executor(core::Strategy::kVitBit));
  }

  std::size_t num_ops() const override { return ops_.size(); }
  const char* op_layer() const override { return "nn"; }
  const char* op_call() const override { return "nn.VitModel::forward"; }
  std::string op_label(std::size_t i) const override {
    return core::strategy_name(ops_[i]);
  }

  void run_op(std::size_t i) override {
    digests_[i] = digest(model_.forward(patches_, executor(ops_[i])));
  }

  bool check_op(std::size_t i, Checker& check) override {
    return check.value(op_label(i) + "/logits_digest",
                       json_quote(digests_[i]));
  }

  // The paper's accuracy claim: every executor is bit-identical to TC.
  std::vector<std::size_t> check_round(Checker& check) override {
    const auto tc = std::find(ops_.begin(), ops_.end(), core::Strategy::kTC);
    const std::string& ref = digests_[tc - ops_.begin()];
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < ops_.size(); ++i)
      if (!check.require(digests_[i] == ref,
                         op_label(i) + " logits bit-identical to TC"))
        failed.push_back(i);
    return failed;
  }

  bool seed_dependent() const override { return true; }

  void add_metrics(const RunSummary& run, Metrics& out) const override {
    if (!run.traced) {
      out.add("forwards_per_s", run.ops_per_s, "forwards/s");
      return;
    }
    const double macs =
        static_cast<double>(nn::build_kernel_log(cfg_).total_macs());
    for (const auto s : core::all_strategies()) {
      const std::string name = core::strategy_name(s);
      const double exec_s = span_seconds(run, "vitbit.exec_gemm", name);
      out.add("vitbit.exec_gemm_s." + name, exec_s, "s");
      out.add("vitbit.exec_gops." + name, 2.0 * macs / exec_s * 1e-9,
              "Gop/s");
    }
    // Forward self time: everything outside the GEMM executors — shiftmax,
    // shift-GELU, I-LayerNorm and requantization.
    std::vector<double> nongemm;
    for (std::size_t i = 0; i < run.spans.size(); ++i)
      if (run.spans[i].name == op_call()) nongemm.push_back(run.self_s[i]);
    out.add("quant.nongemm_s", mean(nongemm), "s");
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.logs.push_back({"vit-s-d" + std::to_string(cfg_.num_layers),
                       [cfg = cfg_] { return nn::build_kernel_log(cfg); },
                       core::all_strategies(),
                       {core::StrategyConfig{}}});
    in.gemms = captured_;
    in.report = base_report("functional_vit", ctx_.seed);
    for (std::size_t i = 0; i < ops_.size(); ++i)
      in.report.meta[op_label(i) + "/logits_digest"] = digests_[i];
    return in;
  }

 private:
  // The strategy's executor behind a span. While tracing, the VitBit
  // executor's operands are kept (one pair per shape) for the replay.
  nn::GemmFn executor(core::Strategy s) {
    auto exec = core::make_gemm_executor(s);
    return [this, exec, s](const MatrixI32& a, const MatrixI32& b) {
      if (s == core::Strategy::kVitBit && tracing()) capture(a, b);
      const ScopedSpan span("vitbit", "vitbit.exec_gemm",
                            core::strategy_name(s));
      return exec(a, b);
    };
  }

  void capture(const MatrixI32& a, const MatrixI32& b) {
    for (const auto& g : captured_)
      if (g.a.rows() == a.rows() && g.a.cols() == a.cols() &&
          g.b.cols() == b.cols())
        return;
    captured_.push_back({a, b});
  }

  RunContext ctx_;
  nn::VitConfig cfg_;
  nn::VitModel model_;
  MatrixF32 patches_;
  std::vector<core::Strategy> ops_;
  std::vector<std::string> digests_;
  std::vector<GemmOperands> captured_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"vit_figures", "zoo_tables", "fleet_serving", "functional_vit"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
  if (name == "vit_figures") return std::make_unique<VitFigures>(ctx);
  if (name == "zoo_tables") return std::make_unique<ZooTables>(ctx);
  if (name == "fleet_serving") return std::make_unique<FleetServing>(ctx);
  if (name == "functional_vit") return std::make_unique<FunctionalVit>(ctx);
  return nullptr;
}

}  // namespace bench
