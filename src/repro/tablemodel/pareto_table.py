"""Table models over Pareto-front data.

The paper's performance and variation tables are sampled *along the Pareto
front*: a one-dimensional curve in the (gain, phase-margin) plane, not a
rectangular grid.  Its 2-input ``$table_model`` calls
(``lp1 = $table_model(gain_prop, pm_prop, "lp1_data.tbl", "3E,3E")``)
therefore key into a curve: because a two-objective front is *monotone*
(more gain always costs phase margin), either objective uniquely indexes a
front position, and any attached quantity -- the other objective, a design
parameter ``lpN``, a variation percentage -- can be interpolated against it.

:class:`ParetoTableModel` captures exactly that structure:

* front rows sorted by the first objective, with monotonicity validated;
* arbitrary attached data columns (design parameters, variations);
* cubic-spline interpolation of any column keyed on any objective, with
  the paper's no-extrapolation ("E") behaviour by default;
* 2-D queries ``lookup2(obj0_value, obj1_value)`` reproducing the paper's
  two-input ``$table_model`` calls: each objective proposes a front
  position and the two are blended, so slightly inconsistent
  (off-the-front) queries still resolve sensibly;
* ``.tbl`` round-tripping so the same files drive real Verilog-A.
"""

from __future__ import annotations

import numpy as np

from ..errors import TableModelError
from .datafile import write_table
from .spline import make_interpolator
from .table import _dedupe_knots

__all__ = ["ParetoTableModel"]


class ParetoTableModel:
    """Interpolation over a two-objective Pareto front (see module doc).

    Parameters
    ----------
    objectives:
        Front points, shape ``(K, 2)``, in *natural* units.
    objective_names:
        The two objective names, e.g. ``("gain_db", "pm_deg")``.
    columns:
        Attached per-point data: mapping name -> shape-``(K,)`` array
        (design parameters, variation percentages, ...).

    The points must form a monotone two-objective trade-off (one
    objective falls as the other rises), else :class:`TableModelError`.
    """

    def __init__(self, objectives, objective_names=("f1", "f2"), *,
                 columns: dict | None = None) -> None:
        objectives = np.asarray(objectives, dtype=float)
        if objectives.ndim != 2 or objectives.shape[1] != 2:
            raise TableModelError(
                f"need (K, 2) objective data, got {objectives.shape}")
        if objectives.shape[0] < 2:
            raise TableModelError("a Pareto table needs at least two points")
        self.objective_names = tuple(objective_names)

        order = np.argsort(objectives[:, 0])
        self.objectives = objectives[order]
        self.columns: dict[str, np.ndarray] = {}
        for name, data in (columns or {}).items():
            data = np.asarray(data, dtype=float).reshape(-1)
            if data.size != objectives.shape[0]:
                raise TableModelError(
                    f"column {name!r} has {data.size} entries, "
                    f"expected {objectives.shape[0]}")
            self.columns[name] = data[order]

        self._validate_front()

    def _validate_front(self) -> None:
        """A sorted two-objective front must trade off monotonically."""
        f0, f1 = self.objectives[:, 0], self.objectives[:, 1]
        order = np.argsort(f0)
        f1_sorted = f1[order]
        # As f0 increases, f1 must not increase (otherwise some point
        # dominates another).
        violations = np.diff(f1_sorted) > 1e-9 * max(1.0, np.abs(f1).max())
        if np.any(violations):
            raise TableModelError(
                "points do not form a Pareto front: objective "
                f"{self.objective_names[1]!r} improves together with "
                f"{self.objective_names[0]!r} at "
                f"{int(np.count_nonzero(violations))} transition(s)")

    # -- helpers ---------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of front points."""
        return self.objectives.shape[0]

    def _axis_index(self, objective) -> int:
        if isinstance(objective, (int, np.integer)):
            if objective not in (0, 1):
                raise TableModelError("objective index must be 0 or 1")
            return int(objective)
        try:
            return self.objective_names.index(objective)
        except ValueError:
            raise TableModelError(
                f"unknown objective {objective!r} "
                f"(have {self.objective_names})") from None

    def _column(self, name: str) -> np.ndarray:
        if name in self.columns:
            return self.columns[name]
        axis = self._axis_index(name) if name in self.objective_names else None
        if axis is not None:
            return self.objectives[:, axis]
        raise TableModelError(
            f"unknown column {name!r} (have {sorted(self.columns)} and "
            f"objectives {self.objective_names})")

    def key_range(self, objective) -> tuple[float, float]:
        """Sampled range of an objective (for range checks / reports)."""
        axis = self._axis_index(objective)
        column = self.objectives[:, axis]
        return float(column.min()), float(column.max())

    # -- interpolation -------------------------------------------------------------
    def lookup(self, key_objective, key_value, column: str, *,
               extrapolation: str = "E"):
        """Interpolate ``column`` at a front position keyed by an objective.

        This is the paper's one-input ``$table_model`` call: e.g.
        ``lookup("gain_db", 50.0, "gain_delta_pct")`` reads the variation
        table at a 50 dB gain (section 4.4's interpolation between design
        points 24 and 25).
        """
        axis = self._axis_index(key_objective)
        key = self.objectives[:, axis]
        data = self._column(column)
        order = np.argsort(key)
        x, y = _dedupe_knots(key[order], data[order])
        if x.size < 2:
            raise TableModelError(
                f"objective {key_objective!r} is constant along the front; "
                "cannot key on it")
        kernel = make_interpolator("3", x, y)
        return kernel(key_value, extrapolation)

    def lookup2(self, value0, value1, column: str):
        """Two-input lookup reproducing ``$table_model(f1, f2, ..., "3E,3E")``.

        Each objective value independently indexes a front position; the
        two answers are averaged.  For queries lying exactly on the front
        the two agree and this equals either 1-D lookup.
        """
        return 0.5 * (self.lookup(0, value0, column)
                      + self.lookup(1, value1, column))

    def trade_off(self, key_objective, key_value):
        """The other objective's value at a front position (cubic,
        linear extrapolation)."""
        axis = self._axis_index(key_objective)
        return self.lookup(key_objective, key_value,
                           self.objective_names[1 - axis])

    # -- persistence ---------------------------------------------------------------
    def write_tbl(self, path, column: str, *, key_objective=0,
                  header: str = "") -> None:
        """Write one column keyed by one objective as a ``.tbl`` file
        (e.g. ``gain_delta.tbl``)."""
        axis = self._axis_index(key_objective)
        key = self.objectives[:, axis]
        data = self._column(column)
        order = np.argsort(key)
        write_table(path, key[order], data[order], header=header)

    def write_tbl2(self, path, column: str, header: str = "") -> None:
        """Write one column against *both* objectives (the paper's
        ``lpN_data.tbl`` layout: ``gain pm value`` rows)."""
        write_table(path, self.objectives, self._column(column),
                    header=header)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ParetoTableModel {self.size} points "
                f"{self.objective_names} columns={sorted(self.columns)}>")
