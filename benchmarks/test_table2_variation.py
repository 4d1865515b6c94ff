"""E-T2: the paper's Table 2 -- per-Pareto-point performance + variation.

Regenerates the (design, gain, dGain%, PM, dPM%) rows from the flow's
Monte-Carlo stage and checks the paper's two structural trends in the
50-dB region it tabulates: gain rises while PM falls along the front, and
dPM grows toward the high-gain end.  Benchmarks the variation-model
reduction (200 MC samples -> one percentage per point).
"""

import numpy as np

from repro.yieldmodel import variation_columns
from repro.yieldmodel.variation import DEFAULT_K_SIGMA


def test_table2_rows(flow_result, emit, benchmark):
    columns = benchmark(variation_columns, flow_result.mc_samples,
                        k_sigma=DEFAULT_K_SIGMA)
    assert set(columns) == {"gain_db_delta_pct", "pm_deg_delta_pct"}

    rows = flow_result.table2_rows(10)
    lines = [f"{'Design:':>7} {'Gain (dB):':>11} {'dGain (%):':>11} "
             f"{'PM (deg):':>10} {'dPM (%):':>9}"]
    for row in rows:
        lines.append(f"{row['design']:>7d} {row['gain_db']:>11.2f} "
                     f"{row['dgain_pct']:>11.2f} {row['pm_deg']:>10.1f} "
                     f"{row['dpm_pct']:>9.2f}")
    lines.append("")
    lines.append("paper reference rows (Table 2): gain 49.78..51.62 dB, "
                 "dGain 0.52->0.42 %, PM 76.3->73.2 deg, dPM 1.50->1.68 %")
    emit("table2_variation", "\n".join(lines))

    gains = np.array([r["gain_db"] for r in rows])
    pms = np.array([r["pm_deg"] for r in rows])
    dgains = np.array([r["dgain_pct"] for r in rows])
    dpms = np.array([r["dpm_pct"] for r in rows])

    # Monotone trade-off along the sampled rows.
    assert np.all(np.diff(gains) > 0)
    assert np.all(np.diff(pms) < 1e-9)
    # Variations are small percentages of the right magnitude.
    assert np.all((dgains > 0.05) & (dgains < 5.0))
    assert np.all((dpms > 0.05) & (dpms < 8.0))
    # Paper trend: dPM grows toward the high-gain (low-PM) end.
    assert dpms[-3:].mean() > dpms[:3].mean() * 0.9
