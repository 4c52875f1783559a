"""Software-defined battery switch (Eq. 5 / Fig. 1 of the paper).

The switch regulates each node's power source: when instantaneous green
power exceeds demand, the node runs on green energy alone and the excess
charges the battery (subject to the θ SoC cap of Eq. 21); otherwise the
battery and the green source power the node together.  This realizes the
energy balance of Eq. (5):

.. math::

    ψ_u[t] = ψ_u[t-1] + y_u[t] E^g_u[t] - x_u[t] E^{tx}_u
             - (1 - x_u[t]) E^{sleep}_u

with the on-sensor simplification (Eq. 21) fixing ``y_u[t]`` to "charge
up to θ, spill the rest".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..battery import Battery
from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class WindowEnergyResult:
    """Accounting of one forecast window's energy flows, in joules."""

    #: Demand covered directly by the green source.
    green_used_j: float
    #: Demand covered by discharging the battery.
    battery_used_j: float
    #: Surplus green energy accepted by the battery.
    charged_j: float
    #: Surplus green energy spilled (battery full or above θ).
    spilled_j: float
    #: Demand that could not be met (battery empty): > 0 means brown-out.
    shortfall_j: float

    @property
    def balanced(self) -> bool:
        """Whether the full demand was met this window."""
        return self.shortfall_j <= 1e-12


class SoftwareDefinedSwitch:
    """Applies one forecast window's energy flows to a battery.

    The switch is deliberately stateless: all state lives in the
    :class:`~repro.battery.Battery` so the SoC trace (and therefore the
    degradation computation) sees exactly one update per window, matching
    the paper's discrete-time model where "the discrete trace is
    generated after each time slot".
    """

    def __init__(
        self,
        soc_cap: float = 1.0,
        on_brownout: Optional[Callable[[float], None]] = None,
    ) -> None:
        if not 0.0 < soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        self._soc_cap = soc_cap
        #: Hook fired with the shortfall (joules) whenever a window's
        #: demand cannot be met — the fault layer counts brown-outs (and
        #: may escalate them to full node reboots) through it.
        self._on_brownout = on_brownout
        #: Optional :class:`~repro.obs.TraceBus`; None keeps tracing free.
        self._trace = None
        self._trace_node: Optional[int] = None

    def bind_trace(self, bus, node_id: Optional[int] = None) -> None:
        """Attach a trace bus so brown-outs publish ``energy`` events."""
        self._trace = bus
        self._trace_node = node_id

    @property
    def soc_cap(self) -> float:
        """The θ threshold limiting stored energy (Section III-B)."""
        return self._soc_cap

    def apply_window(
        self,
        battery: Battery,
        harvested_j: float,
        demand_j: float,
        window_end_s: float,
    ) -> WindowEnergyResult:
        """Settle one forecast window's energy balance on the battery.

        Green energy covers demand first; surplus charges the battery up
        to θ; deficit is drawn from the battery.  If the battery cannot
        cover the deficit, the remainder is reported as ``shortfall_j``
        (the node browns out — in the MAC this surfaces as a dropped
        packet, the FAIL branch of Algorithm 1).
        """
        if harvested_j < 0 or demand_j < 0:
            raise ConfigurationError("energies cannot be negative")

        green_used = min(harvested_j, demand_j)
        surplus = harvested_j - green_used
        deficit = demand_j - green_used

        charged = 0.0
        spilled = 0.0
        battery_used = 0.0
        shortfall = 0.0

        if surplus > 0.0:
            charged = battery.charge(surplus, window_end_s, soc_cap=self._soc_cap)
            spilled = surplus - charged
        elif deficit > 0.0:
            battery_used = min(deficit, battery.stored_j)
            shortfall = deficit - battery_used
            battery.discharge(battery_used, window_end_s)
        else:
            battery.settle(window_end_s)

        if shortfall > 1e-12:
            self.report_brownout(
                window_end_s, shortfall, demand_j, harvested_j, battery.soc
            )

        return WindowEnergyResult(
            green_used_j=green_used,
            battery_used_j=battery_used,
            charged_j=charged,
            spilled_j=spilled,
            shortfall_j=shortfall,
        )

    def report_brownout(
        self,
        window_end_s: float,
        shortfall_j: float,
        demand_j: float,
        harvested_j: float,
        soc: float,
    ) -> None:
        """Publish one brown-out window: trace event, then the hook.

        :meth:`apply_window` calls it for its own window; the fused
        settle pass returns its brown-out chunks and the caller replays
        each through here, in chunk order.
        """
        if self._trace is not None:
            self._trace.emit(
                window_end_s,
                "energy",
                "energy.brownout",
                severity="warning",
                node_id=self._trace_node,
                shortfall_j=shortfall_j,
                demand_j=demand_j,
                harvested_j=harvested_j,
                soc=soc,
            )
        if self._on_brownout is not None:
            self._on_brownout(shortfall_j)

    def can_sustain(
        self, battery: Battery, harvested_j: float, demand_j: float
    ) -> bool:
        """Feasibility check of Eq. (20): ψ[t−1] + e^g[t] ≥ demand."""
        return battery.stored_j + harvested_j + 1e-12 >= demand_j
