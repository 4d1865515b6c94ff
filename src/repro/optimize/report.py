"""Human-readable reports of yield-aware search results.

Three formatters feed the flow's stage-7 artefacts and the
``yield_pareto`` benchmark:

* :func:`format_yield_front`      -- the annotated front as a table
  (objectives + yield estimate + fidelity + simulator cost per point);
* :func:`format_ladder_summary`   -- the per-fidelity accounting table;
* :func:`format_guardband_comparison` -- the in-loop front next to a
  reference design (the paper's guard-banded selection, or any nominal
  design), answering "what did optimising yield *in the loop* buy".
"""

from __future__ import annotations

import numpy as np

from .ladder import LadderCounts
from .search import YieldSearchResult

__all__ = ["format_yield_front", "format_ladder_summary",
           "format_guardband_comparison"]


def _subsample(count: int, limit: int) -> np.ndarray:
    if count <= limit:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, limit).astype(int))


def format_yield_front(result: YieldSearchResult) -> str:
    """The yield-annotated Pareto front as an aligned text table,
    sorted by the first base objective (evenly subsampled past 16
    rows)."""
    objectives = result.front_objectives()
    annotations = result.front_annotations()
    names = result.objective_names
    order = np.argsort(objectives[:, 0])
    picks = order[_subsample(order.size, 16)]

    header = "".join(f"{name:>14}" for name in names)
    header += f"{'yield':>9}{'+/-':>8}{'fid':>5}{'sims':>7}"
    lines = [f"yield-annotated Pareto front ({objectives.shape[0]} points, "
             f"{picks.size} shown)", header]
    for i in picks:
        row = "".join(f"{objectives[i, j]:>14.4g}"
                      for j in range(len(names)))
        y = annotations["yield"][i]
        err = annotations["yield_std_error"][i]
        row += (f"{100 * y:>8.2f}%" if np.isfinite(y) else f"{'n/a':>9}")
        row += (f"{100 * err:>7.2f}%" if np.isfinite(err) else f"{'n/a':>8}")
        row += f"{int(annotations['fidelity'][i]):>5d}"
        row += f"{int(annotations['ladder_sims'][i]):>7d}"
        lines.append(row)
    return "\n".join(lines)


def format_ladder_summary(counts: LadderCounts) -> str:
    """Per-fidelity candidate/cost accounting (one table)."""
    return counts.table()


def format_guardband_comparison(result: YieldSearchResult,
                                reference_label: str,
                                reference_performance: dict[str, float],
                                reference_yield: float | None = None) -> str:
    """Compare the in-loop front against a reference design.

    Parameters
    ----------
    result:
        A completed yield-aware search.
    reference_label:
        Name of the reference row (e.g. ``"guard-banded (Table 3)"``).
    reference_performance:
        Nominal performance of the reference design, keyed like the
        base objectives (missing keys print as ``n/a``).
    reference_yield:
        Optional yield estimate of the reference design (printed when
        given).

    The in-loop rows are the front points meeting the search's yield
    target: the one best in each base objective.  When no front point
    meets the target, the highest-yield point is shown instead.
    """
    objectives = result.front_objectives()
    annotations = result.front_annotations()
    base_names = tuple(obj.name for obj in result.problem.base.objectives)
    n_base = len(base_names)
    target = result.config.yield_target
    yields = annotations["yield"]

    header = f"{'design':<28}" + "".join(f"{name:>14}"
                                         for name in base_names)
    header += f"{'yield':>10}"
    lines = [f"in-loop yield front vs reference "
             f"(target yield {100 * target:.0f}%)", header]

    ref_row = f"{reference_label:<28}"
    for name in base_names:
        value = reference_performance.get(name)
        ref_row += f"{value:>14.4g}" if value is not None else f"{'n/a':>14}"
    ref_row += (f"{100 * reference_yield:>9.2f}%"
                if reference_yield is not None else f"{'n/a':>10}")
    lines.append(ref_row)

    meets = np.flatnonzero(np.nan_to_num(yields, nan=-1.0) >= target)
    oriented = result.problem.base.oriented(objectives[:, :n_base])
    if meets.size == 0:
        best = int(np.nanargmax(yields))
        row = f"{'in-loop best yield':<28}"
        row += "".join(f"{objectives[best, j]:>14.4g}"
                       for j in range(n_base))
        row += f"{100 * yields[best]:>9.2f}%"
        lines.append(row)
        lines.append("(no front point met the target yield)")
        return "\n".join(lines)
    for j, name in enumerate(base_names):
        best = meets[int(np.argmax(oriented[meets, j]))]
        row = f"{'in-loop best ' + name:<28}"
        row += "".join(f"{objectives[best, k]:>14.4g}"
                       for k in range(n_base))
        row += f"{100 * yields[best]:>9.2f}%"
        lines.append(row)
    return "\n".join(lines)
