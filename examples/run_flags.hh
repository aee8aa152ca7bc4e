/**
 * @file
 * The per-run rows shared by sweep_tool, where they are `--flags`,
 * and experiment_from_config, where they are `[experiment:*]` keys:
 * one definition of each name, range and parser for both tools.
 */

#ifndef CLLM_EXAMPLES_RUN_FLAGS_HH
#define CLLM_EXAMPLES_RUN_FLAGS_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "util/flags.hh"

namespace cllm {

/** Every CPU backend, in the order the tools print them. */
inline const std::vector<core::Backend> kAllBackends = {
    core::Backend::Bare, core::Backend::Vm, core::Backend::Sgx,
    core::Backend::Tdx};

/**
 * The run rows, named `prefix + key`: "--" for sweep_tool's flags, a
 * section tag (configSectionPrefix) for an INI section's keys.
 */
inline Flags
runFlags(const std::string &prefix, llm::RunParams &p,
         llm::ModelPreset &model, std::vector<core::Backend> &backends)
{
    return {
        choiceFlag(prefix + "model", model, llm::kModelPresets,
                   "model preset"),
        {prefix + "backend",
         std::string("<") + core::kBackendNames.choices() + "|all>",
         "backend to run against bare metal; all = bare, vm, sgx and "
         "tdx (default all)",
         [&backends, name = prefix + "backend"](const char *v) {
             backends = std::string_view(v) == "all"
                            ? kAllBackends
                            : std::vector{
                                  core::kBackendNames.parse(v, name)};
         }},
        choiceFlag(prefix + "dtype", p.dtype, hw::kDtypeNames,
                   "weight and activation dtype"),
        numberFlag(prefix + "input", p.inLen, "prompt tokens", 1),
        numberFlag(prefix + "output", p.outLen, "generated tokens", 1),
        numberFlag(prefix + "beam", p.beam, "beam width", 1),
        numberFlag(prefix + "sockets", p.sockets, "sockets used", 1),
        numberFlag(prefix + "cores", p.cores,
                   "total cores; 0 = all cores of the sockets", 0),
    };
}

} // namespace cllm

#endif // CLLM_EXAMPLES_RUN_FLAGS_HH
