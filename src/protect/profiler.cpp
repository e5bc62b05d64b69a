#include "protect/profiler.hpp"

#include "numeric/f16.hpp"

namespace ft2 {

BoundStore profile_offline_bounds(const TransformerLM& model,
                                  const DatasetGenerator& gen,
                                  const OfflineProfileOptions& options) {
  FT2_CHECK_MSG(options.quantile >= 0.0 && options.quantile < 0.5,
                "quantile must be in [0, 0.5)");
  const bool need_stats = options.with_typical || options.quantile > 0.0;
  const auto samples = gen.generate_many(options.n_inputs, options.seed);

  BoundRecorderHook recorder(model.config());
  ActivationStatsHook stats(options.stats_range, options.stats_bins);
  InferenceSession session(model);
  const HookRegistration recorder_reg = session.hooks().add(recorder);
  HookRegistration stats_reg;
  if (need_stats) stats_reg = session.hooks().add(stats);

  GenerateOptions gen_options;
  gen_options.max_new_tokens = options.max_new_tokens;
  gen_options.eos_token = Vocab::kEos;
  gen_options.fp16 = true;

  for (const auto& sample : samples) {
    session.generate(prompt_with_bos(sample), gen_options);
  }

  if (options.quantile > 0.0) {
    BoundStore bounds(model.config());
    for (const LayerSite& site : stats.observed_sites()) {
      const auto* s = stats.find(site);
      if (s == nullptr || s->stats.count() == 0) continue;
      Bounds& bd = bounds.at(site);
      bd.lo = static_cast<float>(s->histogram.quantile(options.quantile));
      bd.hi =
          static_cast<float>(s->histogram.quantile(1.0 - options.quantile));
      bd.typical = static_cast<float>(s->histogram.quantile(0.5));
    }
    return bounds;
  }

  BoundStore bounds = recorder.take_bounds();
  if (options.with_typical) {
    for (const LayerSite& site : stats.observed_sites()) {
      const auto* s = stats.find(site);
      if (s != nullptr && bounds.at(site).valid()) {
        bounds.at(site).typical =
            static_cast<float>(s->histogram.quantile(0.5));
      }
    }
  }
  return bounds;
}

void ActivationStatsHook::on_output(const HookContext& ctx,
                                    std::span<float> values) {
  const auto key = std::make_pair(ctx.site.block,
                                  static_cast<int>(ctx.site.kind));
  auto it = sites_.find(key);
  if (it == sites_.end()) {
    it = sites_.emplace(key, SiteStats(range_, bins_)).first;
  }
  SiteStats& s = it->second;
  for (float v : values) {
    s.histogram.add(static_cast<double>(v));
    if (!std::isnan(v)) s.stats.add(static_cast<double>(v));
    if (nan_vulnerable_f16(v)) ++s.nan_vulnerable;
    ++s.total;
  }
}

const ActivationStatsHook::SiteStats* ActivationStatsHook::find(
    const LayerSite& site) const {
  const auto it =
      sites_.find(std::make_pair(site.block, static_cast<int>(site.kind)));
  return it == sites_.end() ? nullptr : &it->second;
}

ActivationStatsHook::SiteStats ActivationStatsHook::aggregate(
    LayerKind kind) const {
  SiteStats agg(range_, bins_);
  for (const auto& [key, s] : sites_) {
    if (key.second != static_cast<int>(kind)) continue;
    agg.histogram.merge(s.histogram);
    agg.stats.merge(s.stats);
    agg.nan_vulnerable += s.nan_vulnerable;
    agg.total += s.total;
  }
  return agg;
}

std::vector<LayerSite> ActivationStatsHook::observed_sites() const {
  std::vector<LayerSite> out;
  for (const auto& [key, s] : sites_) {
    out.push_back(LayerSite{key.first, static_cast<LayerKind>(key.second)});
  }
  return out;
}

}  // namespace ft2
