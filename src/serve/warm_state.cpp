#include "serve/warm_state.h"

namespace skewopt::serve {

core::FlowResult runJobSpecWarm(const tech::TechModel& tech,
                                const eco::StageDelayLut& lut,
                                const JobSpec& spec, WarmStateStore* store) {
  if (store == nullptr) return runJobSpec(tech, lut, spec);
  const std::string key = topologyKey(spec);
  const std::shared_ptr<const core::FlowWarmState> warm_in =
      store->lookup(key);
  auto warm_out = std::make_shared<core::FlowWarmState>();
  network::Design d = buildDesign(tech, spec.source);
  const core::Flow flow(tech, lut, spec.options);
  core::FlowResult res =
      flow.run(d, spec.mode, nullptr, warm_in.get(), warm_out.get());
  store->insert(key, std::move(warm_out));
  return res;
}

}  // namespace skewopt::serve
