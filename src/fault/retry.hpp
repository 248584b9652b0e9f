// Shared retry/backoff policy for the LRTS machine layers.
//
// Real uGNI code paths treat GNI_RC_NOT_DONE, GNI_RC_ERROR_RESOURCE and
// GNI_RC_TRANSACTION_ERROR as *transient*: the Gemini driver expects the
// caller to back off and re-issue (credits return, CQ space frees, the
// adapter retransmits).  All three layers (UgniLayer / SmpLayer / MpiLayer)
// share this one policy object so an experiment tunes retry behavior once:
//
//   * bounded "polite" phase — `max_retries` attempts with exponential
//     backoff in *virtual* time (base * mult^attempt, capped);
//   * escalation — after the polite phase the stall is logged once and
//     counted in the `retry_escalations` metric, but the runtime keeps
//     retrying at the capped backoff so no message is ever dropped
//     (the simulated fault processes are transient by construction);
//   * demotion — an SMSG send that stays credit-starved for
//     `demote_after` attempts is demoted to the rendezvous (INIT/GET/ACK)
//     path, which does not consume mailbox credits.
//
// Config keys live under "retry.*", listed once in for_each_knob below, and
// are overridable via UGNIRT_RETRY_<NAME> environment variables;
// `lrts::make_machine` applies them straight to the fields.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::fault {

struct RetryPolicy {
  /// Attempts before a stall is escalated (logged + counted).
  int max_retries = 8;
  /// First backoff interval, virtual nanoseconds.
  SimTime backoff_base_ns = 500;
  /// Multiplier applied per attempt.
  double backoff_mult = 2.0;
  /// Ceiling on a single backoff interval.
  SimTime backoff_max_ns = 64000;
  /// Credit-starved SMSG sends demote to rendezvous after this many
  /// attempts (UgniLayer only; 0 disables demotion).
  int demote_after = 4;

  /// Backoff before retry number `attempt` (1-based): capped exponential.
  SimTime backoff_for(int attempt) const {
    if (attempt < 1) attempt = 1;
    double b = static_cast<double>(backoff_base_ns);
    for (int i = 1; i < attempt && b < static_cast<double>(backoff_max_ns);
         ++i) {
      b *= backoff_mult;
    }
    return std::min(static_cast<SimTime>(b), backoff_max_ns);
  }

  /// Every knob, keyed "retry.<field>" (UGNIRT_RETRY_<FIELD>); see
  /// util/config.hpp for the generic reader, writer and env applier.
  template <class Self, class F>
  static void for_each_knob(Self& p, F&& f) {
    f("retry.max_retries", p.max_retries);
    f("retry.backoff_base_ns", p.backoff_base_ns);
    f("retry.backoff_mult", p.backoff_mult);
    f("retry.backoff_max_ns", p.backoff_max_ns);
    f("retry.demote_after", p.demote_after);
  }
};

}  // namespace ugnirt::fault
