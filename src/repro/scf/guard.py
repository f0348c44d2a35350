"""SCF convergence guard: watchdog, staged remediation, graceful degradation.

PR 4 made the *distributed* layer fault tolerant; this module does the
same for the *numerical* layer.  Production SCF codes treat convergence
failure as a first-class recoverable fault: an iteration is never just
"another loop trip", it is classified, and a bad classification triggers
a staged response instead of silently burning ``max_iter`` or returning
NaN energies.

Three pieces:

* :class:`ConvergenceClassifier` -- labels each iteration from the
  energy / density-change history plus NaN/Inf sentinels as one of
  ``healthy`` / ``stagnating`` / ``oscillating`` / ``diverging`` /
  ``non_finite``;
* the **remediation ladder** -- a declarative sequence of
  :class:`Rung` steps the guard escalates through on bad
  classifications: density damping -> level shifting -> DIIS reset ->
  canonical orthogonalization with a tightened linear-dependence
  threshold -> fallback from the batched ERI kernel to the reference
  path.  Remediation is never free and never silent: every activation
  is a typed :class:`GuardEvent`, an obs metric
  (``repro_scf_guard_*``), and a tracer instant;
* :class:`SCFGuard` -- the per-run state machine the SCF drivers
  (:class:`~repro.scf.hf.RHF`, :class:`~repro.scf.uhf.UHF`) consult
  once per iteration.  Healthy runs are untouched bit for bit: the
  guard only observes until a bad classification appears, and relaxes
  (decays damping / level shift) after a healthy streak so terminal
  convergence is to the true fixed point.

The guard state round-trips through the PR-4 checkpoint format
(:meth:`SCFGuard.state_dict` / :meth:`SCFGuard.load_state`), so a
restarted run resumes with the same remediation -- including the sticky
rungs (canonical orthogonalization, reference ERI path) that must be
re-applied to the rebuilt ``X`` and engine.

See ``docs/ROBUSTNESS.md`` ("Numerical robustness") for the classifier
rules, the ladder, and the metric names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.obs import get_metrics, get_tracer
from repro.util.validation import check_positive, require

# -- classifier states -------------------------------------------------------

HEALTHY = "healthy"
STAGNATING = "stagnating"
OSCILLATING = "oscillating"
DIVERGING = "diverging"
NON_FINITE = "non_finite"

#: every state the classifier can emit, worst last
STATES = (HEALTHY, STAGNATING, OSCILLATING, DIVERGING, NON_FINITE)


class GuardError(RuntimeError):
    """SCF aborted by the guard after remediation was exhausted.

    Carries the full typed event trail so the failure is actionable:
    ``exc.events[-1]`` says what the last classification and remediation
    attempt were.
    """

    def __init__(self, message: str, events: list["GuardEvent"]):
        super().__init__(message)
        self.events = events


@dataclass(frozen=True)
class GuardEvent:
    """One guard decision: a classification, remediation, or rescue."""

    iteration: int
    classification: str
    #: ``observe`` (classification only), a ladder action (``damp``,
    #: ``level_shift``, ``diis_reset``, ``canonical_orth``,
    #: ``reference_eri``), ``discard_iterate``, ``relax``, or ``abort``
    action: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "classification": self.classification,
            "action": self.action,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GuardEvent":
        return cls(
            iteration=int(doc["iteration"]),
            classification=str(doc["classification"]),
            action=str(doc["action"]),
            detail=dict(doc.get("detail", {})),
        )

    def describe(self) -> str:
        extra = ""
        if self.detail:
            extra = " " + " ".join(
                f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(self.detail.items())
            )
        return (
            f"it {self.iteration}: {self.classification} -> {self.action}{extra}"
        )


# -- the remediation ladder --------------------------------------------------


@dataclass(frozen=True)
class Rung:
    """One declarative remediation step.

    ``action`` names what the driver must do; ``params`` parameterize it
    (damping factor, level shift in hartree, tightened eigenvalue
    threshold).  Rungs are cumulative: escalating to ``level_shift``
    keeps the damping set by the rung below it.
    """

    action: str
    params: dict = field(default_factory=dict)

    _ACTIONS = ("damp", "level_shift", "diis_reset", "canonical_orth", "reference_eri")

    def __post_init__(self) -> None:
        require(
            self.action in self._ACTIONS,
            f"unknown remediation action {self.action!r} (choose from {self._ACTIONS})",
        )


#: the default ladder, exactly the staged order of docs/ROBUSTNESS.md:
#: mild damping, stronger damping, level shift, DIIS reset, canonical
#: orthogonalization with a tightened threshold, reference ERI path
DEFAULT_LADDER: tuple[Rung, ...] = (
    Rung("damp", {"factor": 0.3}),
    Rung("damp", {"factor": 0.6}),
    Rung("level_shift", {"shift": 0.25}),
    Rung("level_shift", {"shift": 1.0}),
    Rung("diis_reset", {}),
    Rung("canonical_orth", {"threshold": 1e-6}),
    Rung("reference_eri", {}),
)


@dataclass(frozen=True)
class GuardConfig:
    """Tunables of the watchdog and ladder (all validated on build).

    Parameters
    ----------
    window:
        History length (iterations) the classifier looks back over.
    min_history:
        Iterations before anything but ``non_finite`` can be flagged.
    patience:
        Consecutive bad classifications before escalating one rung.
    healthy_window:
        Consecutive healthy iterations before the guard relaxes (halves
        damping; level shift and sticky rungs are kept -- they do not
        move the SCF fixed point).
    max_nonfinite:
        Non-finite events tolerated before the run is aborted with a
        :class:`GuardError` (carrying the event trail).
    divergence_rise:
        Energy rise (hartree) over the window that flags ``diverging``.
    oscillation_tol:
        Energy-difference magnitude below which sign flips are noise.
    stagnation_factor:
        The window counts as flat (``stagnating``) when its smallest
        density change exceeds this fraction of its largest.
    eri_sentinel:
        Arm the NaN/Inf sentinel on every computed ERI chunk
        (non-finite rows are recomputed on the reference kernel; see
        ``ERIEngine.finite_check``).
    ladder:
        The remediation rungs, mildest first.
    """

    window: int = 6
    min_history: int = 3
    patience: int = 2
    healthy_window: int = 4
    max_nonfinite: int = 3
    divergence_rise: float = 0.5
    oscillation_tol: float = 1e-7
    stagnation_factor: float = 0.95
    eri_sentinel: bool = True
    ladder: tuple[Rung, ...] = DEFAULT_LADDER

    def __post_init__(self) -> None:
        for name in ("window", "min_history", "patience", "healthy_window",
                     "max_nonfinite"):
            check_positive(getattr(self, name), name)
        check_positive(self.divergence_rise, "divergence_rise")
        check_positive(self.oscillation_tol, "oscillation_tol")
        require(
            0.0 < self.stagnation_factor < 1.0,
            f"stagnation_factor must be in (0, 1), got {self.stagnation_factor!r}",
        )
        require(len(self.ladder) > 0, "ladder must have at least one rung")
        require(
            self.window >= 3,
            f"window must be >= 3 to detect oscillation, got {self.window}",
        )


# -- classification ----------------------------------------------------------


class ConvergenceClassifier:
    """Stateless iteration classifier over (energy, density-change) history."""

    def __init__(self, config: GuardConfig, e_tol: float, d_tol: float):
        self.config = config
        self.e_tol = e_tol
        self.d_tol = d_tol

    def classify(
        self, energies: Sequence[float], d_changes: Sequence[float]
    ) -> str:
        """Label the latest iteration given the trailing history."""
        c = self.config
        if not energies:
            return HEALTHY
        if not np.isfinite(energies[-1]) or (
            d_changes and not np.isfinite(d_changes[-1])
        ):
            return NON_FINITE
        if len(energies) < c.min_history:
            return HEALTHY
        e = np.asarray(energies[-c.window:], dtype=float)
        dd = np.asarray(d_changes[-c.window:], dtype=float)
        if not (np.isfinite(e).all() and np.isfinite(dd).all()):
            return NON_FINITE
        diffs = np.diff(e)
        converged_scale = dd[-1] <= self.d_tol
        # diverging: the energy is climbing, and has climbed far
        if (
            diffs.size >= 2
            and np.all(diffs[-2:] > 0)
            and float(e[-1] - e.min()) > c.divergence_rise
        ):
            return DIVERGING
        # oscillating: repeated sign flips of significant energy steps
        sig = diffs[np.abs(diffs) > max(c.oscillation_tol, 10.0 * self.e_tol)]
        if sig.size >= 3 and not converged_scale:
            flips = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
            if flips >= 2:
                return OSCILLATING
        # stagnating: a full window of density changes that refuse to drop
        if (
            dd.size >= c.window
            and not converged_scale
            and float(dd.min()) > c.stagnation_factor * float(dd.max())
        ):
            return STAGNATING
        return HEALTHY


# -- the guard state machine -------------------------------------------------


class SCFGuard:
    """Per-run convergence watchdog + remediation ladder executor.

    The SCF driver calls, per iteration:

    1. :meth:`check_matrix` on F (and optionally D) -- NaN/Inf sentinel;
    2. :meth:`observe` with the iteration's energy and density change --
       classifies and possibly escalates;
    3. :meth:`damp` when forming the next density, and reads
       :attr:`level_shift` when diagonalizing;
    4. the one-shot action consumers
       (:meth:`consume_diis_reset` / :meth:`consume_canonical_orth` /
       :meth:`consume_reference_eri`) to execute escalations.

    Attributes
    ----------
    level:
        Index of the highest rung activated so far (-1 = none).
    damping:
        Current density-mixing fraction of the *old* density (0 = off).
    level_shift:
        Current virtual-orbital shift (hartree, 0 = off).
    events:
        The typed :class:`GuardEvent` trail, chronological.
    """

    def __init__(
        self,
        config: GuardConfig | None = None,
        e_tol: float = 1e-9,
        d_tol: float = 1e-7,
        molecule: str = "",
    ):
        self.config = config if config is not None else GuardConfig()
        self.classifier = ConvergenceClassifier(self.config, e_tol, d_tol)
        self.molecule = molecule
        self.level = -1
        self.damping = 0.0
        self.level_shift = 0.0
        self.bad_streak = 0
        self.healthy_streak = 0
        self.nonfinite_count = 0
        self.events: list[GuardEvent] = []
        #: per-iteration record for reports: (it, energy, d_change, state)
        self.iterations: list[dict] = []
        self._energies: list[float] = []
        self._d_changes: list[float] = []
        self._pending_diis_reset = False
        self._pending_canonical: float | None = None
        self._pending_reference = False
        #: sticky flags (survive checkpoint/restart)
        self.canonical_threshold: float | None = None
        self.reference_eri = False

    # -- event plumbing ------------------------------------------------------

    def _emit(
        self, iteration: int, classification: str, action: str, **detail: Any
    ) -> GuardEvent:
        ev = GuardEvent(iteration, classification, action, dict(detail))
        self.events.append(ev)
        metrics = get_metrics()
        if action == "observe":
            metrics.counter(
                "repro_scf_guard_classifications_total",
                "guard iteration classifications", labelnames=("state",),
            ).inc(state=classification)
        else:
            metrics.counter(
                "repro_scf_guard_remediations_total",
                "guard remediation actions", labelnames=("action",),
            ).inc(action=action)
        metrics.gauge(
            "repro_scf_guard_level", "active remediation-ladder rung (-1 = none)"
        ).set(self.level)
        metrics.gauge(
            "repro_scf_guard_damping", "active density-damping fraction"
        ).set(self.damping)
        metrics.gauge(
            "repro_scf_guard_level_shift", "active level shift (hartree)"
        ).set(self.level_shift)
        get_tracer().instant(
            "guard_event", cat="scf", molecule=self.molecule,
            iteration=iteration, classification=classification, action=action,
        )
        return ev

    # -- sentinels -----------------------------------------------------------

    def check_matrix(self, name: str, a: np.ndarray, iteration: int) -> bool:
        """NaN/Inf sentinel on an SCF matrix; records the event when bad."""
        if np.isfinite(a).all():
            return True
        self.nonfinite_count += 1
        get_metrics().counter(
            "repro_scf_guard_nonfinite_total",
            "non-finite sentinel trips", labelnames=("where",),
        ).inc(where=name)
        self._emit(iteration, NON_FINITE, "observe", where=name)
        return False

    def fail(self, iteration: int, reason: str) -> GuardError:
        """Abort the run: record the terminal event, build the error."""
        self._emit(iteration, NON_FINITE, "abort", reason=reason)
        return GuardError(
            f"SCF aborted at iteration {iteration}: {reason} "
            f"(after {self.nonfinite_count} non-finite events and "
            f"{len(self.events)} guard events; see GuardError.events)",
            self.events,
        )

    def nonfinite_exhausted(self) -> bool:
        return self.nonfinite_count > self.config.max_nonfinite

    def on_nonfinite(self, iteration: int, where: str) -> None:
        """Escalate straight to graceful degradation after a sentinel trip.

        A non-finite matrix means arithmetic is broken, not merely slow:
        the guard jumps past the convergence rungs to the fallback rungs
        (DIIS reset onward, ending at the reference ERI path).
        """
        ladder = self.config.ladder
        jump_to = next(
            (i for i, r in enumerate(ladder) if r.action == "diis_reset"),
            len(ladder) - 1,
        )
        if self.level < jump_to:
            for lvl in range(self.level + 1, jump_to + 1):
                self._activate(lvl, iteration, NON_FINITE)
        else:
            self._escalate(iteration, NON_FINITE)
        self.bad_streak = 0
        self.healthy_streak = 0

    # -- observation + escalation -------------------------------------------

    def observe(self, iteration: int, energy: float, d_change: float) -> str:
        """Classify this iteration; escalate / relax as the ladder dictates."""
        self._energies.append(float(energy))
        self._d_changes.append(float(d_change))
        state = self.classifier.classify(self._energies, self._d_changes)
        self.iterations.append(
            {
                "iteration": iteration,
                "energy": float(energy),
                "d_change": float(d_change),
                "state": state,
                "level": self.level,
                "damping": self.damping,
                "level_shift": self.level_shift,
            }
        )
        if state == NON_FINITE:
            self.nonfinite_count += 1
            self._emit(iteration, state, "observe")
            self.on_nonfinite(iteration, "iterate")
            return state
        if state == HEALTHY:
            self.bad_streak = 0
            self.healthy_streak += 1
            if self.healthy_streak >= self.config.healthy_window:
                self._relax(iteration)
            return state
        self.healthy_streak = 0
        self.bad_streak += 1
        self._emit(iteration, state, "observe", d_change=float(d_change))
        if self.bad_streak >= self.config.patience:
            self._escalate(iteration, state)
            self.bad_streak = 0
        return state

    def _escalate(self, iteration: int, classification: str) -> None:
        if self.level + 1 >= len(self.config.ladder):
            return  # ladder exhausted; keep the strongest remediation active
        self._activate(self.level + 1, iteration, classification)

    def _activate(self, level: int, iteration: int, classification: str) -> None:
        rung = self.config.ladder[level]
        self.level = level
        if rung.action == "damp":
            self.damping = float(rung.params.get("factor", 0.5))
        elif rung.action == "level_shift":
            self.level_shift = float(rung.params.get("shift", 0.25))
        elif rung.action == "diis_reset":
            self._pending_diis_reset = True
        elif rung.action == "canonical_orth":
            self._pending_canonical = float(rung.params.get("threshold", 1e-6))
            self.canonical_threshold = self._pending_canonical
        elif rung.action == "reference_eri":
            self._pending_reference = True
            self.reference_eri = True
        self._emit(
            iteration, classification, rung.action, level=level, **rung.params
        )

    def _relax(self, iteration: int) -> None:
        """Decay damping after a healthy streak (fixed point is unshifted)."""
        if self.damping <= 0.0:
            self.healthy_streak = 0
            return
        new = 0.0 if self.damping < 0.05 else self.damping * 0.5
        self._emit(
            iteration, HEALTHY, "relax",
            damping=new, previous=self.damping,
        )
        self.damping = new
        self.healthy_streak = 0

    # -- remediation application --------------------------------------------

    def damp(self, d_new: np.ndarray, d_old: np.ndarray) -> np.ndarray:
        """Mix the previous density in (no-op while damping is 0)."""
        if self.damping <= 0.0:
            return d_new
        a = self.damping
        return (1.0 - a) * d_new + a * d_old

    def discard_iterate(self, iteration: int, where: str) -> None:
        """Record that a non-finite iterate was dropped (D kept as-is)."""
        self._emit(iteration, NON_FINITE, "discard_iterate", where=where)

    def consume_diis_reset(self) -> bool:
        """True exactly once after a ``diis_reset`` rung activates."""
        pending, self._pending_diis_reset = self._pending_diis_reset, False
        return pending

    def consume_canonical_orth(self) -> float | None:
        """Tightened threshold exactly once after ``canonical_orth`` fires."""
        pending, self._pending_canonical = self._pending_canonical, None
        return pending

    def consume_reference_eri(self) -> bool:
        """True exactly once after the ``reference_eri`` rung activates."""
        pending, self._pending_reference = self._pending_reference, False
        return pending

    # -- persistence (PR-4 checkpoint format) --------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable remediation state for checkpointing."""
        return {
            "level": self.level,
            "damping": self.damping,
            "level_shift": self.level_shift,
            "bad_streak": self.bad_streak,
            "healthy_streak": self.healthy_streak,
            "nonfinite_count": self.nonfinite_count,
            "canonical_threshold": self.canonical_threshold,
            "reference_eri": self.reference_eri,
            "events": [ev.to_json() for ev in self.events],
            "energies": self._energies,
            "d_changes": self._d_changes,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (restart path).

        The driver must still re-apply the sticky rungs to the rebuilt
        objects: :attr:`canonical_threshold` to the orthogonalizer and
        :attr:`reference_eri` to the engine.
        """
        self.level = int(state.get("level", -1))
        self.damping = float(state.get("damping", 0.0))
        self.level_shift = float(state.get("level_shift", 0.0))
        self.bad_streak = int(state.get("bad_streak", 0))
        self.healthy_streak = int(state.get("healthy_streak", 0))
        self.nonfinite_count = int(state.get("nonfinite_count", 0))
        ct = state.get("canonical_threshold")
        self.canonical_threshold = float(ct) if ct is not None else None
        self.reference_eri = bool(state.get("reference_eri", False))
        self.events = [GuardEvent.from_json(d) for d in state.get("events", [])]
        self._energies = [float(e) for e in state.get("energies", [])]
        self._d_changes = [float(d) for d in state.get("d_changes", [])]

    def state_json(self) -> str:
        return json.dumps(self.state_dict())

    @classmethod
    def from_state_json(
        cls,
        text: str,
        config: GuardConfig | None = None,
        e_tol: float = 1e-9,
        d_tol: float = 1e-7,
        molecule: str = "",
    ) -> "SCFGuard":
        guard = cls(config, e_tol=e_tol, d_tol=d_tol, molecule=molecule)
        guard.load_state(json.loads(text))
        return guard

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Compact run summary for results, reports, and the torture CLI."""
        by_state: dict[str, int] = {}
        by_action: dict[str, int] = {}
        for ev in self.events:
            if ev.action == "observe":
                by_state[ev.classification] = by_state.get(ev.classification, 0) + 1
            else:
                by_action[ev.action] = by_action.get(ev.action, 0) + 1
        last_state = self.iterations[-1]["state"] if self.iterations else HEALTHY
        return {
            "events": len(self.events),
            "level": self.level,
            "damping": self.damping,
            "level_shift": self.level_shift,
            "nonfinite": self.nonfinite_count,
            "canonical_threshold": self.canonical_threshold,
            "reference_eri": self.reference_eri,
            "by_state": by_state,
            "by_action": by_action,
            "final_state": last_state,
        }

    def trail(self) -> list[str]:
        """Human-readable event trail (one line per event)."""
        return [ev.describe() for ev in self.events]
