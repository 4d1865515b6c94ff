"""Yield-targeted design selection -- the paper's core algorithm.

Given the combined performance + variation model (a Pareto front with
per-point variation percentages) and a required specification, section 4.4
of the paper proceeds:

1. interpolate the variation at the specified performance
   (gain > 50 dB -> dGain = 0.51 %);
2. **guard-band** the requirement by that variation:
   ``new = required + (delta/100)*required`` (50 dB -> 50.26 dB), so that
   even a worst-case (k-sigma) downward excursion still meets the original
   spec -- "this will ensure that the required 50 dB gain will be achieved
   within the process extremes";
3. interpolate the designable parameters at the guard-banded performance
   from the performance table;
4. the resulting design "will produce 100 % yield", verified by Monte
   Carlo.

:class:`CombinedYieldModel` packages steps 1-3 (Table 3 = one
:meth:`guard_band` call per spec; Table 4's design = one
:meth:`design_for_specs` call); :mod:`repro.yieldmodel.estimator` provides
step 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpecificationError, YieldModelError
from ..measure.specs import Spec, SpecSet
from ..tablemodel.pareto_table import ParetoTableModel
from .variation import VARIATION_SUFFIX

__all__ = ["GuardBandedTarget", "YieldTargetedDesign", "CombinedYieldModel"]


@dataclass(frozen=True)
class GuardBandedTarget:
    """One row of the paper's Table 3.

    Attributes
    ----------
    name:
        Performance name.
    required:
        The original specification limit.
    variation_pct:
        Variation interpolated at the required performance [%].
    new_value:
        The guard-banded ("new performance") target.
    kind:
        Spec direction (``"ge"``/``"le"``).
    """

    name: str
    required: float
    variation_pct: float
    new_value: float
    kind: str = "ge"


@dataclass
class YieldTargetedDesign:
    """Result of yield-targeted design selection.

    Attributes
    ----------
    parameters:
        Interpolated designable parameter values (natural units).
    nominal_performance:
        The front's nominal performance at the selected point.
    targets:
        The guard-banded target per objective (Table 3 rows).
    front_position:
        The key-objective value at which the front was sampled.
    """

    parameters: dict[str, float]
    nominal_performance: dict[str, float]
    targets: dict[str, GuardBandedTarget]
    front_position: float


class CombinedYieldModel:
    """The paper's combined performance + variation behavioural model.

    Parameters
    ----------
    table:
        A :class:`ParetoTableModel` over the two objectives whose columns
        include every designable parameter and, for each objective, a
        ``"<objective>_delta_pct"`` variation column, and optionally an
        ``ro_ohms`` column holding the measured output resistance per
        front point (used by the behavioural output stage).
    parameter_names:
        The designable parameter column names, in GA-string order (they
        become ``lp1..lpN`` in the generated Verilog-A).
    """

    def __init__(self, table: ParetoTableModel, parameter_names) -> None:
        self.table = table
        self.parameter_names = tuple(parameter_names)
        self.ro_column = "ro_ohms" if "ro_ohms" in table.columns else None
        for name in self.parameter_names:
            if name not in table.columns:
                raise YieldModelError(
                    f"performance table lacks parameter column {name!r}")
        for objective in table.objective_names:
            if self.variation_column(objective) not in table.columns:
                raise YieldModelError(
                    f"performance table lacks variation column for "
                    f"{objective!r}")

    # -- naming helpers ---------------------------------------------------------
    @property
    def objective_names(self) -> tuple[str, ...]:
        """The modelled objectives, key objective first."""
        return self.table.objective_names

    @property
    def objective_aliases(self) -> tuple[str, ...]:
        """Short aliases used in the Verilog-A text (``gain_db -> gain``)."""
        return tuple(name.split("_")[0] for name in self.objective_names)

    def variation_column(self, objective: str) -> str:
        """Name of the variation column belonging to ``objective``."""
        return f"{objective}{VARIATION_SUFFIX}"

    # -- queries -----------------------------------------------------------------
    def variation_at(self, objective: str, value) -> float:
        """Interpolated variation [%] at a performance value.

        The paper's ``$table_model(gain, "gain_delta.tbl", "3E")``.  One
        deliberate deviation: when the queried performance lies *outside*
        the sampled front (a specification looser than any front point),
        the variation is clamped to the nearest sampled value instead of
        raising -- variation percentages vary slowly along the front, and
        a spec looser than the whole front must still be guard-bandable.
        Design-*parameter* lookups keep the strict no-extrapolation
        behaviour.
        """
        lo, hi = self.table.key_range(objective)
        extrapolation = "E" if lo <= value <= hi else "C"
        return float(self.table.lookup(objective, value,
                                       self.variation_column(objective),
                                       extrapolation=extrapolation))

    def guard_band(self, spec: Spec) -> GuardBandedTarget:
        """Steps 1+2: variation look-up and guard-banded target (a Table 3
        row).  ``new = required +/- (delta/100)*|required|`` with the sign
        chosen to make the requirement *harder*."""
        if spec.name not in self.objective_names:
            raise SpecificationError(
                f"spec {spec.name!r} is not a model objective "
                f"{self.objective_names}")
        variation = self.variation_at(spec.name, spec.limit)
        shift = (variation / 100.0) * abs(spec.limit)
        new_value = spec.limit + shift if spec.kind == "ge" else spec.limit - shift
        return GuardBandedTarget(spec.name, spec.limit, variation,
                                 new_value, spec.kind)

    def parameters_at(self, key_objective: str, value) -> dict[str, float]:
        """Step 3: designable parameters interpolated at a front position.

        Each interpolated parameter is clamped into the range its column
        actually spans: the cubic table can overshoot between front points
        whose parameter sets differ sharply (the performance-to-parameter
        map is many-valued), and no interpolation should ever leave the
        sampled design box.
        """
        parameters = {}
        for name in self.parameter_names:
            column = self.table.columns[name]
            raw = float(self.table.lookup(key_objective, value, name))
            parameters[name] = float(np.clip(raw, column.min(), column.max()))
        return parameters

    def performance_at(self, key_objective: str, value) -> dict[str, float]:
        """Both nominal objectives at a front position."""
        other = [n for n in self.objective_names if n != key_objective][0]
        return {
            key_objective: float(value),
            other: float(self.table.trade_off(key_objective, value)),
        }

    def nominal_ro(self) -> float:
        """Representative output resistance for the behavioural stage
        (median over the front; a plain 1 Mohm default when the table has
        no measured column)."""
        if self.ro_column is None:
            return 1e6
        return float(np.median(self.table.columns[self.ro_column]))

    def ro_at(self, key_objective: str, value) -> float:
        """Output resistance interpolated at a front position."""
        if self.ro_column is None:
            return self.nominal_ro()
        return float(self.table.lookup(key_objective, value, self.ro_column))

    # -- the headline algorithm ---------------------------------------------------
    def design_for_specs(self, specs: SpecSet, *,
                         strategy: str = "interpolate") -> YieldTargetedDesign:
        """Select the yield-targeted design for a full specification.

        Every spec is guard-banded, the feasible stretch of the front is
        intersected, and the design is read at the *cheapest* feasible
        point: the lowest key-objective value that satisfies every
        guard-banded target (the paper picks exactly its 50.26 dB gain
        point this way).

        Parameters
        ----------
        strategy:
            ``"interpolate"`` (the paper's method) reads the design
            parameters from the cubic-spline table exactly at the
            guard-banded performance.  ``"snap"`` instead takes the
            parameters of the nearest *actual* front point at or beyond
            the target -- robust on sparse fronts, where the
            performance-to-parameter map jumps between neighbouring
            points and interpolated parameters can miss the predicted
            performance (the interpolation error the paper's Table 4
            quantifies at ~1 % for its dense 1022-point front).

        Raises
        ------
        YieldModelError
            If no front point satisfies all guard-banded targets (the
            specs cannot reach 100 % yield on this topology/process).
        """
        if strategy not in ("interpolate", "snap"):
            raise YieldModelError(f"unknown strategy {strategy!r}")
        key = self.objective_names[0]
        other = self.objective_names[1]
        key_lo, key_hi = self.table.key_range(key)

        targets: dict[str, GuardBandedTarget] = {}
        lo, hi = key_lo, key_hi
        for spec in specs:
            target = self.guard_band(spec)
            targets[spec.name] = target
            if spec.name == key:
                if spec.kind == "ge":
                    lo = max(lo, target.new_value)
                else:
                    hi = min(hi, target.new_value)
            else:
                # Constraint on the second objective: map to a key-value
                # bound through the (monotone) front.
                bound = self._key_bound_for(other, target)
                if bound is None:
                    continue  # spec is loose: no constraint on this front
                side, value = bound
                if side == "max":
                    hi = min(hi, value)
                else:
                    lo = max(lo, value)

        if lo > hi:
            descriptions = ", ".join(
                f"{t.name} -> {t.new_value:.4g}" for t in targets.values())
            raise YieldModelError(
                f"guard-banded targets ({descriptions}) admit no point on "
                f"the Pareto front (key range [{key_lo:.4g}, {key_hi:.4g}]); "
                "the specification cannot reach 100% yield here")

        position = lo
        if strategy == "snap":
            keys = self.table.objectives[:, 0]
            at_or_above = keys[keys >= lo - 1e-12]
            if at_or_above.size == 0 or at_or_above.min() > hi + 1e-12:
                raise YieldModelError(
                    "no actual front point lies inside the feasible "
                    f"key interval [{lo:.4g}, {hi:.4g}]")
            position = float(at_or_above.min())

        return YieldTargetedDesign(
            parameters=self.parameters_at(key, position),
            nominal_performance=self.performance_at(key, position),
            targets=targets,
            front_position=float(position),
        )

    def _key_bound_for(self, objective: str,
                       target: GuardBandedTarget) -> tuple[str, float] | None:
        """Translate a target on the *second* objective into a bound on the
        key objective via inverse interpolation along the front."""
        values = self.table._column(objective)
        keys = self.table.objectives[:, 0]
        v_min, v_max = float(values.min()), float(values.max())
        needs_at_least = target.kind == "ge"
        if needs_at_least and target.new_value <= v_min:
            return None  # always satisfied
        if not needs_at_least and target.new_value >= v_max:
            return None
        if needs_at_least and target.new_value > v_max:
            raise YieldModelError(
                f"guard-banded target {objective} >= {target.new_value:.4g} "
                f"exceeds the front maximum {v_max:.4g}")
        if not needs_at_least and target.new_value < v_min:
            raise YieldModelError(
                f"guard-banded target {objective} <= {target.new_value:.4g} "
                f"is below the front minimum {v_min:.4g}")
        # The front is monotone: invert by interpolating key against value.
        order = np.argsort(values)
        key_at_value = float(np.interp(target.new_value, values[order],
                                       keys[order]))
        # On a genuine trade-off front the second objective is
        # anti-correlated with the key (more gain -> less phase margin).
        anti = keys[order][0] > keys[order][-1]
        if needs_at_least:
            # "objective >= target" caps the key from above when the
            # objective falls as the key rises.
            return ("max" if anti else "min", key_at_value)
        return ("min" if anti else "max", key_at_value)
