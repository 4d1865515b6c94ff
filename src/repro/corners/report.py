"""Corner-sweep reporting: per-corner spec-margin tables.

Two consumers:

* ad-hoc sweeps (:meth:`repro.corners.sweep.CornerSweepResult.table`)
  format one design's performance and margins per grid point;
* the model-building flow's corner-verification stage wraps the whole
  Pareto front's sweep in a :class:`CornerVerification`, whose tables
  land in the flow artefacts next to the Monte-Carlo variation model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..measure.specs import SpecSet
from ..yieldmodel.cornercheck import CornerMCCheck, compare_corners_to_mc
from .grid import CornerGrid

__all__ = ["format_corner_table", "CornerVerification"]


def format_corner_table(grid: CornerGrid,
                        performance: dict[str, np.ndarray],
                        specs: SpecSet | None = None) -> str:
    """One design's per-corner table: performance values + spec margins.

    Rows follow grid lane order; margin columns (one per spec, positive =
    pass) appear when ``specs`` is given, plus a worst-corner footer.
    """
    names = list(performance)
    headers = ["corner"] + names
    spec_list = list(specs) if specs is not None else []
    headers += [f"margin({spec.name})" for spec in spec_list]

    rows = []
    labels = grid.labels()
    margins = {spec.name: spec.margin(performance[spec.name])
               for spec in spec_list}
    for lane, label in enumerate(labels):
        row = [label]
        row += [f"{float(np.asarray(performance[name]).reshape(-1)[lane]):.4g}"
                for name in names]
        row += [f"{float(margins[spec.name][lane]):+.4g}"
                for spec in spec_list]
        rows.append(row)

    widths = [max(len(header), *(len(row[i]) for row in rows))
              for i, header in enumerate(headers)]
    lines = ["  ".join(header.ljust(widths[i])
                       for i, header in enumerate(headers))]
    lines.append("  ".join("-" * width for width in widths))
    lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
              for row in rows]
    for spec in spec_list:
        worst_lane = int(np.argmin(margins[spec.name]))
        lines.append(f"worst {spec.name}: "
                     f"{float(margins[spec.name][worst_lane]):+.4g} "
                     f"at {labels[worst_lane]}")
    return "\n".join(lines)


@dataclass
class CornerVerification:
    """The flow's corner-verification stage output over a Pareto front.

    Attributes
    ----------
    grid:
        The swept PVT grid.
    samples:
        Mapping performance name -> ``(K, grid.size)`` corner-swept
        values for the ``K`` front designs (corner analogue of the MC
        sample arrays).
    specs:
        The specification the margins are measured against (the paper's
        OTA requirement by default).
    mc_check:
        Corner-vs-Monte-Carlo comparison per performance, filled by
        :meth:`attach_mc_check` when the flow also ran its MC stage.
    """

    grid: CornerGrid
    samples: dict[str, np.ndarray]
    specs: SpecSet
    mc_check: dict[str, CornerMCCheck] = field(default_factory=dict,
                                               init=False)

    @property
    def design_count(self) -> int:
        first = next(iter(self.samples.values()))
        return int(np.atleast_2d(first).shape[0])

    def attach_mc_check(self, mc_samples: dict[str, np.ndarray], *,
                        k_sigma: float = 3.0) -> None:
        """Compute and store the corner-vs-MC comparison."""
        self.mc_check = compare_corners_to_mc(self.samples, mc_samples,
                                              k_sigma=k_sigma)

    def design_performance(self, index: int) -> dict[str, np.ndarray]:
        """One design's per-lane performance arrays, shape ``(grid.size,)``."""
        return {name: np.atleast_2d(values)[index]
                for name, values in self.samples.items()}

    def design_table(self, index: int) -> str:
        """Per-corner margin table of one front design."""
        return format_corner_table(self.grid,
                                   self.design_performance(index), self.specs)

    def pass_counts(self) -> np.ndarray:
        """Per grid point: how many front designs meet every spec there."""
        mask = None
        for spec in self.specs:
            ok = spec.satisfied(np.atleast_2d(self.samples[spec.name]))
            mask = ok if mask is None else (mask & ok)
        return np.count_nonzero(mask, axis=0)

    def best_worst_margins(self) -> dict[str, np.ndarray]:
        """Per spec, per grid point: the best margin any design achieves.

        A negative entry means *no* design on the front can meet that
        spec at that PVT point -- the model's coverage hole.
        """
        return {spec.name:
                np.max(spec.margin(np.atleast_2d(self.samples[spec.name])),
                       axis=0)
                for spec in self.specs}

    def summary_table(self) -> str:
        """The flow-artefact table: front coverage at every PVT point."""
        counts = self.pass_counts()
        best = self.best_worst_margins()
        k = self.design_count
        headers = (["corner", "designs passing"]
                   + [f"best margin({spec.name})" for spec in self.specs])
        rows = []
        for lane, label in enumerate(self.grid.labels()):
            row = [label, f"{int(counts[lane])}/{k}"]
            row += [f"{float(best[spec.name][lane]):+.4g}"
                    for spec in self.specs]
            rows.append(row)
        widths = [max(len(header), *(len(row[i]) for row in rows))
                  for i, header in enumerate(headers)]
        lines = [f"spec: {self.specs.describe()}",
                 "  ".join(header.ljust(widths[i])
                           for i, header in enumerate(headers)),
                 "  ".join("-" * width for width in widths)]
        lines += ["  ".join(cell.ljust(widths[i])
                            for i, cell in enumerate(row)) for row in rows]
        worst_lane = int(np.argmin(counts))
        lines.append(f"weakest PVT point: {self.grid.labels()[worst_lane]} "
                     f"({int(counts[worst_lane])}/{k} designs pass)")
        for check in self.mc_check.values():
            lines.append(check.describe())
        return "\n".join(lines)
