// The one factory that links an application against an LRTS layer.
//
// "All the following benchmark programs and applications are written in
// CHARM++, but linked with either MPI- or uGNI-based message-driven runtime
// for comparison" (paper §V) — this factory is that link step.
//
// `make_machine(kind, options)` is the canonical entry point: the layer is
// an explicit argument (it *is* the link decision, not another tunable
// buried in the options bag).  Every config sub-struct riding in
// MachineOptions — the gemini::MachineConfig cost model, the
// fault::FaultPlan, the fault::RetryPolicy and the aggregation, flow and
// tenancy configs — takes its UGNIRT_<KEY> environment overrides through
// its own knob list (util/config.hpp's apply_env_knobs), straight onto the
// fields: a value no variable names reaches the machine unchanged (bar the
// struct's clamps), and a malformed variable warns and keeps the caller's
// value.
#pragma once

#include <memory>

#include "converse/machine.hpp"

namespace ugnirt::lrts {

/// Build a machine running layer `kind` (overrides `options.layer`), with
/// UGNIRT_GEMINI_* / UGNIRT_FAULT_* / UGNIRT_RETRY_* / UGNIRT_AGG_* /
/// UGNIRT_FLOW_* / UGNIRT_TENANCY_* / UGNIRT_SIM_QUEUE overrides applied on
/// top of the passed-in options and each struct's clamps (normalize()) run.
std::unique_ptr<converse::Machine> make_machine(
    converse::LayerKind kind, const converse::MachineOptions& options = {});

}  // namespace ugnirt::lrts
