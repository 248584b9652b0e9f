#!/usr/bin/env bash
# Lint: the deprecated MachineLayer send virtuals are GONE.  The
# `sync_send` / layer-level `send_persistent` shims were deleted from
# MachineLayer once every caller had moved to the unified
# Machine::submit()/send()/broadcast() path, so today the symbol
# `sync_send` must not exist anywhere in the tree — not as a
# declaration, not as a call, not behind a typedef.  The public
# Machine::send_persistent API remains; only layer-qualified calls
# (the old per-layer virtual) are forbidden.
#
# Usage: check_deprecated_sends.sh [repo-root]
# Exits non-zero and prints offending lines if the dead symbols resurface.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

status=0

# 1. `sync_send` is a dead symbol: zero occurrences allowed anywhere
#    (runtime core included).  Mentioning it in a comment would only
#    confuse readers about an API that no longer exists, so comments
#    are not exempt.
dead=$(grep -rEn '\bsync_send\b' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null)
if [ -n "$dead" ]; then
  echo "error: 'sync_send' was removed from MachineLayer; the symbol" >&2
  echo "must not reappear (use Machine::submit()/send() or Cmi*):" >&2
  echo "$dead" >&2
  status=1
fi

# 2. The layer-level send_persistent virtual is equally dead: no code may
#    invoke send_persistent through a MachineLayer (layer()-qualified).
#    Machine::send_persistent — the public API used by benches and tests —
#    is fine and not matched here.
layer_calls=$(grep -rEn 'layer\(\)(\.|->)send_persistent[[:space:]]*\(' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null)
if [ -n "$layer_calls" ]; then
  echo "error: layer-level send_persistent was removed; call" >&2
  echo "Machine::send_persistent (persistent channels) instead:" >&2
  echo "$layer_calls" >&2
  status=1
fi

# 3. Belt and braces: MachineLayer itself must not re-grow the virtual.
#    A declaration would slip past rule 2 (no call site) and rule 1 only
#    covers sync_send.
decl=$(grep -En 'virtual[^;]*send_persistent' src/converse/machine.hpp 2>/dev/null)
if [ -n "$decl" ]; then
  echo "error: MachineLayer declares a send_persistent virtual again;" >&2
  echo "the per-layer send surface is submit() only:" >&2
  echo "$decl" >&2
  status=1
fi

# 4. `ensure_channel` is a dead symbol: the eager per-layer channel-setup
#    helpers were deleted when lazy first-touch connection moved into
#    ugni::Nic::get_or_connect.  Re-introducing a layer-side setup path
#    would quietly bring back O(N^2) job-wide endpoint state, so zero
#    occurrences are allowed anywhere (comments included, same rationale
#    as rule 1).
eager=$(grep -rEn '\bensure_channel\b' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null)
if [ -n "$eager" ]; then
  echo "error: 'ensure_channel' was removed; per-peer channels are" >&2
  echo "established lazily by ugni::Nic::get_or_connect (first touch):" >&2
  echo "$eager" >&2
  status=1
fi

# 5. The old Engine constructors are gone: Engine() sniffed UGNIRT_SIM_QUEUE
#    from the environment and Engine(QueueKind) took the queue backend as
#    a bare argument.  All construction goes through explicit
#    sim::EngineOptions now — tests use
#    EngineOptions{} (hermetic defaults), drivers opt into the environment
#    with EngineOptions::from_env().  queue_kind_from_env() is the from_env
#    helper's implementation detail and must not be called outside src/sim.
#    Matched shapes: the ctor declarations themselves (Engine(); /
#    Engine(QueueKind)) and instances built from a bare QueueKind
#    (Engine name{QueueKind...}).  Plain member declarations
#    (sim::Engine engine_;) are fine — with no default ctor the compiler
#    already forces an EngineOptions initializer.
legacy_ctor=$(grep -rEn \
    -e 'Engine[[:space:]]*\([[:space:]]*\)[[:space:]]*;' \
    -e 'Engine[[:space:]]*\([[:space:]]*(sim::)?QueueKind' \
    -e '\bEngine[[:space:]]+[[:alnum:]_]+[[:space:]]*[({][[:space:]]*(sim::)?QueueKind' \
    -e 'new[[:space:]]+(sim::)?Engine[[:space:]]*[({][[:space:]]*(sim::)?QueueKind' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null \
    | grep -v 'EngineOptions' | grep -v '~Engine')
if [ -n "$legacy_ctor" ]; then
  echo "error: legacy sim::Engine constructors were removed; construct with" >&2
  echo "sim::EngineOptions{...} or sim::EngineOptions::from_env():" >&2
  echo "$legacy_ctor" >&2
  status=1
fi
env_sniff=$(grep -rEn '\bqueue_kind_from_env[[:space:]]*\(' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null \
    | grep -v '^src/sim/')
if [ -n "$env_sniff" ]; then
  echo "error: queue_kind_from_env() is private to src/sim; callers must" >&2
  echo "use sim::EngineOptions::from_env() for environment-driven config:" >&2
  echo "$env_sniff" >&2
  status=1
fi

# 6. InjectionGovernor is built ONLY through flowcontrol::make_governor.
#    Direct construction (stack instance, make_unique, new) outside
#    src/flowcontrol/ and src/tenancy/ would mint a governor the tenancy
#    subsystem never sees, silently bypassing per-job QoS window bounds
#    and drain quotas.  Type mentions (pointers, references, accessors,
#    unique_ptr members) are fine and not matched here.
gov_ctor=$(grep -rEn \
    -e 'new[[:space:]]+(flowcontrol::)?InjectionGovernor' \
    -e 'make_unique<[[:space:]]*(flowcontrol::)?InjectionGovernor' \
    -e '\bInjectionGovernor[[:space:]]+[[:alnum:]_]+[[:space:]]*[({]' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null \
    | grep -v '^src/flowcontrol/' | grep -v '^src/tenancy/')
if [ -n "$gov_ctor" ]; then
  echo "error: InjectionGovernor must be constructed via" >&2
  echo "flowcontrol::make_governor() (QoS classes bind there); direct" >&2
  echo "construction is confined to src/flowcontrol/ + src/tenancy/:" >&2
  echo "$gov_ctor" >&2
  status=1
fi

if [ "$status" -ne 0 ]; then
  exit 1
fi

echo "check_deprecated_sends: OK (deprecated send symbols absent from the tree)"
exit 0
