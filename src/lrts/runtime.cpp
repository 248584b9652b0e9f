#include "lrts/runtime.hpp"

#include <cstdlib>

#include "lrts/mpi_layer.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"
#include "util/config.hpp"

namespace ugnirt::lrts {

std::unique_ptr<converse::Machine> make_machine(
    converse::LayerKind kind, const converse::MachineOptions& options_in) {
  converse::MachineOptions options = options_in;
  options.layer = kind;
  // UGNIRT_<KEY> overrides land directly on the fields, so every value
  // the caller set and no variable names reaches the machine bit-exact.
  apply_env_knobs(options.mc);
  apply_env_knobs(options.fault);
  apply_env_knobs(options.retry);
  apply_env_knobs(options.aggregation);
  apply_env_knobs(options.flow);
  apply_env_knobs(options.tenancy);
  if (const char* q = std::getenv("UGNIRT_SIM_QUEUE")) {
    sim::queue_kind_from_string(q, &options.sim_queue);
  }
  std::unique_ptr<converse::MachineLayer> layer;
  switch (kind) {
    case converse::LayerKind::kUgni:
      if (options.smp_mode) {
        layer = std::make_unique<SmpLayer>();
      } else {
        layer = std::make_unique<UgniLayer>();
      }
      break;
    case converse::LayerKind::kMpi:
      layer = std::make_unique<MpiLayer>();
      break;
  }
  return std::make_unique<converse::Machine>(options, std::move(layer));
}

}  // namespace ugnirt::lrts
