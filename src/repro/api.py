"""Public facade: one factory for every protocol endpoint pair.

The library implements three executable link protocols — LAMS-DLC
(:mod:`repro.core`), SR-HDLC / Go-Back-N (:mod:`repro.hdlc`), and NBDT
(:mod:`repro.nbdt`) — all with the same endpoint shape.  This module is
the single entry point that makes them interchangeable:

>>> from repro.api import make_endpoint_pair
>>> from repro.simulator.engine import Simulator
>>> from repro.workloads import preset
>>> scenario = preset("nominal")
>>> sim = Simulator()
>>> link = scenario.build_link(sim, seed=1)
>>> a, b = make_endpoint_pair("lams", sim, link, scenario.lams_config())
>>> a.start(send=True, receive=False); b.start(send=False, receive=True)

Protocol names accept the experiment-level aliases (``"gbn"`` is HDLC
with ``selective=False``, ``"nbdt-multiphase"`` is NBDT with
``mode="multiphase"``, ...); :func:`available_protocols` lists them
all.  New protocol families plug in through
:func:`repro.core.endpoint.register_pair_factory` and are immediately
constructible here.

For the common "one scenario, one protocol, one-way transfer" case,
:func:`build_simulation` goes one level higher and returns a
ready-to-run :class:`~repro.workloads.scenarios.SimulationSetup`.

Construction is spec-based as of the topology layer: a
:class:`~repro.topology.spec.LinkSpec` bundles everything a link needs
(scenario, protocol config, per-side wiring, error models, fault plan,
seed) into one declarative value, and a
:class:`~repro.topology.graph.Topology` of such specs scales the same
machinery to M concurrent links in one engine via
:class:`~repro.topology.builder.ConstellationBuilder` — see
``docs/TOPOLOGY.md``.  :func:`make_endpoint_pair` and
:func:`build_simulation` are kept as thin wrappers over that spec path,
so both construction styles are behaviourally identical.

The runtime-verification surface is re-exported here too: pass
``run_with_invariants=True`` to :func:`build_simulation` (or call
:func:`attach_monitors` yourself) to arm the :class:`MonitorSuite`
of protocol invariants, and :func:`run_soak` drives randomized chaos
episodes under that suite (see ``docs/INVARIANTS.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

# Importing the protocol modules registers the built-in families.
from . import core as _core  # noqa: F401  (registration side effect)
from . import hdlc as _hdlc  # noqa: F401
from . import nbdt as _nbdt  # noqa: F401
from .core.endpoint import (
    Endpoint,
    EndpointPair,
    TransportBackend,
    available_backends,
    available_protocols,
    build_endpoint_pair,
    register_backend,
    register_pair_factory,
    resolve_backend,
    resolve_protocol,
)
from .chaos import EpisodeSpec, SoakResult, generate_episodes, run_soak
from .faults import FaultInjector, FaultPlan, RecoveryMetrics
from .invariants import InvariantMonitor, MonitorSuite, Violation, attach_monitors
from .simulator.errormodel import (
    ErrorModelSpec,
    available_error_models,
    make_error_model,
    register_error_model,
    resolve_error_model,
)
from .topology import (
    Constellation,
    ConstellationBuilder,
    EndpointSpec,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    Topology,
    build_constellation,
    chain_topology,
    cross_traffic,
    grid_topology,
    ring_topology,
)
from .topology.spec import instantiate_pair, spec_from_kwargs

__all__ = [
    "Constellation",
    "ConstellationBuilder",
    "Endpoint",
    "EndpointPair",
    "EndpointSpec",
    "EpisodeSpec",
    "ErrorModelSpec",
    "FaultInjector",
    "FaultPlan",
    "FlowSpec",
    "InvariantMonitor",
    "LinkSpec",
    "MonitorSuite",
    "NodeSpec",
    "RecoveryMetrics",
    "SoakResult",
    "Topology",
    "TransportBackend",
    "Violation",
    "attach_monitors",
    "available_backends",
    "available_error_models",
    "available_protocols",
    "build_constellation",
    "build_simulation",
    "chain_topology",
    "cross_traffic",
    "generate_episodes",
    "grid_topology",
    "make_endpoint_pair",
    "make_error_model",
    "register_backend",
    "register_error_model",
    "register_pair_factory",
    "resolve_backend",
    "resolve_error_model",
    "resolve_protocol",
    "ring_topology",
    "run_soak",
]


def make_endpoint_pair(
    protocol: str,
    sim: Any,
    link: Any,
    config: Any,
    *,
    backend: str = "des",
    config_b: Any = None,
    tracer: Any = None,
    deliver_a: Optional[Callable[[Any], None]] = None,
    deliver_b: Optional[Callable[[Any], None]] = None,
    error_model: Optional[ErrorModelSpec] = None,
    fault_plan: Optional[FaultPlan] = None,
    **extras: Any,
) -> EndpointPair:
    """Build a wired endpoint pair for any implemented protocol.

    Parameters
    ----------
    protocol:
        A name from :func:`available_protocols` (``"lams"``, ``"hdlc"``,
        ``"gbn"``, ``"nbdt-continuous"``, ...).  Alias-implied config
        adjustments (e.g. ``selective=False`` for ``"gbn"``) are applied
        to *config* automatically.
    backend:
        A name from :func:`available_backends`.  ``"des"`` (default)
        runs on the discrete-event simulator; ``"udp"`` runs the same
        state machines over real asyncio-UDP sockets, in which case
        *sim* must be a :class:`~repro.transport.clock.AsyncioClock`
        and *link* a :class:`~repro.transport.udp.UdpLink` (see
        ``docs/TRANSPORT.md``).
    sim, link:
        The simulator/clock and the full-duplex link to wire across.
    config, config_b:
        The protocol configuration (``LamsDlcConfig`` / ``HdlcConfig`` /
        ``NbdtConfig``); *config_b* overrides the B side when the two
        ends differ.
    tracer, deliver_a, deliver_b:
        Shared tracer and per-side delivery callbacks.
    error_model:
        Optional :data:`~repro.simulator.errormodel.ErrorModelSpec` — a
        registered name (``"perfect"``, ``"bernoulli"``,
        ``"gilbert-elliott"``), ``(name, kwargs)``, a mapping with a
        ``"model"`` key, or a ready instance.  Applied to the I-frame
        error process of *both* link directions, replacing whatever the
        link was built with.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; when given, a
        :class:`~repro.faults.injector.FaultInjector` is constructed and
        its faults scheduled on *sim* before the pair is returned (the
        simulator's event heap keeps it alive).
    extras:
        Family-specific keywords, passed through (LAMS-DLC accepts
        ``on_failure_a``/``on_failure_b``/``delivery_interval_b``).

    Returns ``(endpoint_a, endpoint_b)`` — created and wired but not
    started; call ``start(send=..., receive=...)`` per the roles the
    experiment needs.

    .. note:: This kwargs signature is the legacy construction surface,
       kept working indefinitely; it is now a thin wrapper that folds
       the arguments into a :class:`LinkSpec` and runs the spec path
       (:func:`repro.topology.spec.instantiate_pair`).  New code —
       anything that stores, sweeps, or templates link configurations,
       and any multi-link topology — should build a :class:`LinkSpec`
       directly.
    """
    if backend != "des":
        # Non-DES substrates bypass the LinkSpec path (specs describe
        # simulated links); construction dispatches through the
        # (protocol, backend) registry, then the shared error-model /
        # fault-plan semantics are applied to the live channels.
        pair = build_endpoint_pair(
            protocol, sim, link, config, backend=backend,
            config_b=config_b, tracer=tracer,
            deliver_a=deliver_a, deliver_b=deliver_b, **extras,
        )
        if error_model is not None:
            for channel in (link.forward, link.reverse):
                channel.iframe_errors = resolve_error_model(
                    error_model, bit_rate=channel.bit_rate,
                )
        if fault_plan is not None and len(fault_plan):
            FaultInjector(sim, link, fault_plan,
                          tracer=getattr(link, "tracer", None))
        return pair
    spec = spec_from_kwargs(
        protocol, config, config_b=config_b,
        deliver_a=deliver_a, deliver_b=deliver_b,
        error_model=error_model, fault_plan=fault_plan,
        **extras,
    )
    return instantiate_pair(spec, sim, link, tracer=tracer, apply_error_model=True)


def build_simulation(scenario, protocol: str = "lams", *, backend: str = "des", **kwargs):
    """One-way transfer for any protocol over *scenario*, any backend.

    With ``backend="des"`` (default) this is a convenience re-export of
    :func:`repro.workloads.scenarios.build_simulation` (kept there so
    the scenario module remains self-contained); see that function for
    the keyword arguments, and it returns a ready-to-run
    :class:`~repro.workloads.scenarios.SimulationSetup`.

    Other backends dispatch through the backend registry: for
    ``backend="udp"`` the result is an *awaitable*
    :class:`~repro.transport.session.TransportSetup` (the UDP substrate
    lives on the asyncio event loop) — or use
    :func:`repro.transport.run_transfer` for a blocking whole-transfer
    facade.

    .. note:: Legacy surface, kept working indefinitely — internally it
       now builds a one-link :class:`LinkSpec` and runs the spec path.
       For anything beyond a single one-way link, describe the system
       as a :class:`Topology` and use :func:`build_constellation`.
    """
    if backend != "des":
        impl = resolve_backend(backend)
        if impl.build_simulation is None:
            raise ValueError(
                f"backend {backend!r} does not support build_simulation"
            )
        return impl.build_simulation(scenario, protocol, **kwargs)
    from .workloads.scenarios import build_simulation as _build

    return _build(scenario, protocol, **kwargs)
