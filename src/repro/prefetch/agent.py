"""Prefetch agents (paper Sec. IV-B, IV-C).

SimFS associates every analysis with a *prefetch agent* that monitors its
access pattern (direction, stride ``k``, inter-access time ``τcli``) and
launches re-simulations ahead of demand:

* **masking restart latency** — each batch is sized by the planner's ``n``
  so that analysing it covers the next job's restart latency, and the next
  batch is triggered at the *prefetching step* (``lead`` accesses before
  coverage runs out);
* **matching analysis bandwidth** — strategy (1) raises the parallelism
  level of future jobs while that still speeds the simulator up; strategy
  (2) launches ``s`` parallel re-simulations, optionally ramping
  ``s = 1, 2, 4, ...`` up to ``min(s_opt, smax)``;
* **backward trajectories** — batches are laid out below the covered
  window, sized to hide both the restart latency and the re-simulation
  time;
* **pollution detection** — an access that misses on a step this agent
  prefetched means the step was produced and evicted before use; the agent
  reports it so the DV can reset all agents (Sec. IV-C).

Agents are deliberately I/O-free: :meth:`observe_access` returns a
:class:`PrefetchDecision` and the DV coordinator (real mode) or the DES
(virtual-time mode) executes it, so both modes run identical logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.context import ContextConfig
from repro.core.errors import InvalidArgumentError
from repro.core.perfmodel import PerformanceModel
from repro.core.steps import StepGeometry
from repro.prefetch import planner
from repro.prefetch.pattern import Direction, PatternDetector
from repro.util.ema import ExponentialMovingAverage

__all__ = ["PrefetchAction", "PrefetchDecision", "PrefetchAgent"]


@dataclass(frozen=True)
class PrefetchAction:
    """One re-simulation to launch: restart-interval extent + parallelism."""

    start_restart: int
    stop_restart: int
    parallelism_level: int = 0

    def __post_init__(self) -> None:
        if self.stop_restart <= self.start_restart:
            raise InvalidArgumentError(
                f"empty prefetch extent [{self.start_restart}, {self.stop_restart})"
            )


@dataclass(frozen=True)
class PrefetchDecision:
    """What the DV should do after one observed access."""

    launch: tuple[PrefetchAction, ...] = ()
    #: the analysis changed direction/stride: prefetched sims for the old
    #: pattern may be killed (if nobody else waits on them)
    pattern_broken: bool = False
    #: a prefetched step was evicted before use: reset all agents
    pollution: bool = False


#: The two outcomes of almost every access launch nothing: shared.
_NOTHING = PrefetchDecision()
_PATTERN_BROKEN = PrefetchDecision(pattern_broken=True)


class PrefetchAgent:
    """Per-analysis prefetching state machine."""

    def __init__(
        self,
        config: ContextConfig,
        perf: PerformanceModel,
        alpha_estimate: ExponentialMovingAverage,
    ) -> None:
        self.config = config
        self.geometry: StepGeometry = config.geometry
        self.perf = perf
        #: shared per-context restart-latency estimator (Sec. IV-C1c)
        self.alpha_estimate = alpha_estimate
        self.detector = PatternDetector(config.ema_smoothing)
        self.level = config.default_parallelism_level
        self._ramp_s = 0           # last batch size (0: nothing launched yet)
        self._frontier: int | None = None  # restart-index edge of coverage
        self._prefetched_keys: set[int] = set()
        self._launched_actions = 0

    # ------------------------------------------------------------------ #
    # Bookkeeping fed by the coordinator
    # ------------------------------------------------------------------ #
    def note_demand_job(self, start_restart: int, stop_restart: int) -> None:
        """The DV launched a demand re-simulation for this analysis' miss;
        extend coverage so prefetching continues from its edge."""
        if self._frontier is None:
            self._frontier = (
                stop_restart
                if self.detector.direction is not Direction.BACKWARD
                else start_restart
            )
        elif self.detector.direction is Direction.BACKWARD:
            self._frontier = min(self._frontier, start_restart)
        else:
            self._frontier = max(self._frontier, stop_restart)

    def reset(self) -> None:
        """Full reset (pollution signal or analysis termination)."""
        self.detector.reset()
        self._frontier = None
        self._ramp_s = 0
        self._prefetched_keys.clear()
        self.level = self.config.default_parallelism_level

    @property
    def prefetched_keys(self) -> frozenset[int]:
        """Output steps covered by prefetch launches (for tests)."""
        return frozenset(self._prefetched_keys)

    @property
    def launched_actions(self) -> int:
        """Total prefetch jobs this agent has requested."""
        return self._launched_actions

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def observe_access(
        self,
        key: int,
        now: float,
        hit: bool,
        processing_time: float | None = None,
    ) -> PrefetchDecision:
        """Record an access to output step ``key`` and decide what to do.

        ``processing_time`` — seconds of pure analysis work since the
        previous access was served (excludes blocking waits); the DV
        coordinator supplies it from its serve timestamps so ``τcli``
        reflects the analysis' full-bandwidth consumption rate.
        """
        # Cache-pollution signal: a step we prefetched was evicted before
        # the analysis got to it (Sec. IV-C).
        pollution = not hit and key in self._prefetched_keys
        if pollution:
            self._prefetched_keys.discard(key)

        state = self.detector.observe(key, now, processing_time)
        broken = state.just_reset
        if broken:
            self._frontier = None
            self._ramp_s = 0
            self._prefetched_keys.clear()

        launch: list[PrefetchAction] = []
        if (
            self.config.prefetch_enabled
            and state.confirmed
            and state.tau_cli is not None
        ):
            k = state.stride or 1
            tau_cli = max(state.tau_cli, 1e-9)
            tau_sim = self.perf.tau(self.level)
            alpha = self.alpha_estimate.value

            # Strategy (1): raise the parallelism level of future jobs
            # while the analysis outpaces the simulation and more nodes
            # still help.
            while k * tau_sim > tau_cli and self.perf.next_level_is_faster(self.level):
                self.level += 1
                tau_sim = self.perf.tau(self.level)

            if state.direction is Direction.FORWARD:
                self._plan_forward(launch, key, k, tau_sim, tau_cli, alpha)
            elif state.direction is Direction.BACKWARD:
                self._plan_backward(launch, key, k, tau_sim, tau_cli, alpha)
        if launch or pollution:
            return PrefetchDecision(tuple(launch), broken, pollution)
        return _PATTERN_BROKEN if broken else _NOTHING

    # ------------------------------------------------------------------ #
    def _next_batch_size(self, s_opt: int) -> int:
        """Strategy (2) ramp: double per prefetch step, capped by both
        ``s_opt`` and the context's ``smax``."""
        cap = min(max(1, s_opt), self.config.smax)
        if not self.config.prefetch_ramp_doubling:
            return cap
        nxt = 1 if self._ramp_s == 0 else self._ramp_s * 2
        return min(nxt, cap)

    def _intervals_of(self, n_outputs: int) -> int:
        geo = self.geometry
        return max(1, math.ceil(n_outputs * geo.delta_d / geo.delta_r))

    def _max_restart(self) -> int | None:
        geo = self.geometry
        if geo.num_timesteps is None:
            return None
        return math.ceil(geo.num_timesteps / geo.delta_r)

    def _record_launch(self, launch: list[PrefetchAction], action: PrefetchAction) -> None:
        launch.append(action)
        self._launched_actions += 1
        for out_key in self.geometry.outputs_between_restarts(
            action.start_restart, action.stop_restart
        ):
            self._prefetched_keys.add(out_key)

    def _plan_forward(
        self,
        launch: list[PrefetchAction],
        key: int,
        k: int,
        tau_sim: float,
        tau_cli: float,
        alpha: float,
    ) -> None:
        geo = self.geometry
        per_step = max(k * tau_sim, tau_cli)
        lead_keys = math.ceil(alpha / per_step) * k if alpha > 0 else 0

        if self._frontier is None:
            # No coverage known yet: treat the current access' canonical
            # job as the base (the coordinator launched it on the miss).
            self._frontier = geo.restart_after(key)
        frontier_key = self._frontier * geo.delta_r // geo.delta_d

        # Prefetching step: launch when the analysis is within `lead_keys`
        # of the end of the covered window (Sec. IV-B1a).
        if frontier_key - key > lead_keys:
            return
        max_r = self._max_restart()
        if max_r is not None and self._frontier >= max_r:
            return  # simulation end reached; nothing left to prefetch

        # This is the prefetching step: only now size the batch.
        n = planner.forward_resim_length(alpha, tau_sim, tau_cli, k, geo)
        s = self._next_batch_size(planner.s_opt_forward(tau_sim, tau_cli, k))
        q = self._intervals_of(n)
        start = self._frontier
        for _ in range(s):
            stop = start + q
            if max_r is not None:
                stop = min(stop, max_r)
            if stop <= start:
                break
            self._record_launch(
                launch,
                PrefetchAction(start, stop, parallelism_level=self.level),
            )
            start = stop
        self._frontier = start
        self._ramp_s = max(len(launch), self._ramp_s, 1)

    def _plan_backward(
        self,
        launch: list[PrefetchAction],
        key: int,
        k: int,
        tau_sim: float,
        tau_cli: float,
        alpha: float,
    ) -> None:
        geo = self.geometry
        per_step = max(k * tau_sim, tau_cli)
        lead_keys = math.ceil(alpha / per_step) * k if alpha > 0 else 0

        if self._frontier is None:
            self._frontier = geo.restart_before(key)
        frontier_key = self._frontier * geo.delta_r // geo.delta_d

        # Launch when the analysis approaches the bottom of the coverage.
        if key - frontier_key > lead_keys + int(geo.outputs_per_restart_interval):
            return
        if self._frontier <= 0:
            return  # reached the beginning of the simulation

        # This is the prefetching step: only now size the batch.
        if tau_cli > k * tau_sim:
            # Analysis slower than the simulation: one job of length n
            # hides both latency and simulation time (Sec. IV-B2).
            n = planner.backward_resim_length(alpha, tau_sim, tau_cli, k, geo)
            s_cap = 1
        else:
            # Analysis faster: parallel jobs of one restart interval each.
            n = geo.round_up_to_restart_outputs(
                max(1, int(geo.outputs_per_restart_interval))
            )
            s_cap = planner.backward_parallel_sims(alpha, tau_sim, tau_cli, k, n)
        s = min(self._next_batch_size(s_cap), self.config.smax)
        q = self._intervals_of(n)
        stop = self._frontier
        for _ in range(s):
            start = max(0, stop - q)
            if start >= stop:
                break
            self._record_launch(
                launch,
                PrefetchAction(start, stop, parallelism_level=self.level),
            )
            stop = start
        self._frontier = stop
        self._ramp_s = max(len(launch), self._ramp_s, 1)
