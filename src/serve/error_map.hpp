// Exception -> core::Status mapping for the serving boundary.
//
// serve::Engine, and the ShardRouter that builds engines, translate the
// exceptions thrown below them — loader failures, allocation exhaustion,
// worker-pool aggregates, injected faults — into one machine-readable Status
// vocabulary; the wire server classifies its own injected faults the same
// way and forwards every code in its error frames.  The map_* functions
// must be called from inside a catch block (they rethrow the in-flight
// exception to classify it).
#pragma once

#include <string_view>

#include "core/status.hpp"

namespace bitflow::serve {

/// Classifies an injected fault by the subsystem prefix of its failpoint
/// name, so the fault matrix sees the same code a real fault of that
/// subsystem would produce.
[[nodiscard]] core::ErrorCode code_for_failpoint(std::string_view point);

/// Exception -> Status mapping for the model-building phase.
[[nodiscard]] core::Status map_open_error();

/// Exception -> Status mapping for the inference phase.
[[nodiscard]] core::Status map_infer_error();

}  // namespace bitflow::serve
