"""E-F11: the paper's Figure 11 -- the designed filter's response.

Regenerates the section-5 demonstration: OTA chosen from the combined
model (gain > 50 dB, PM > 60 deg with guard-banding), capacitors from the
behavioural-model MOO (30 x 40), transistor-level response of the final
filter, and the 500-sample Monte-Carlo yield check ("confirmed a yield of
100%").  Benchmarks the transistor-level filter AC solve.
"""


from repro.analysis import ac_analysis
from repro.designs import build_filter_transistor
from repro.designs.filter2 import DEFAULT_FILTER_SPEC, filter_frequency_grid


def test_fig11_response(filter_result, emit, benchmark):
    spec = DEFAULT_FILTER_SPEC
    caps = filter_result.caps
    circuit = build_filter_transistor(caps, filter_result.ota_parameters)
    freqs = filter_frequency_grid(10)

    result = benchmark(ac_analysis, circuit, freqs)
    mag = result.magnitude_db("v2")[0]

    lines = [
        f"OTA selection: gain "
        f"{filter_result.ota_design.nominal_performance['gain_db']:.2f} dB "
        f"(guard-banded from {spec.ota_gain_db:g} dB), PM "
        f"{filter_result.ota_design.nominal_performance['pm_deg']:.1f} deg",
        f"capacitors: C1={caps.c1 * 1e12:.1f} pF, C2={caps.c2 * 1e12:.1f} pF, "
        f"C3={caps.c3 * 1e12:.2f} pF",
        f"behavioural prediction: ripple "
        f"{filter_result.nominal_performance['ripple_db']:.2f} dB, "
        f"attenuation {filter_result.nominal_performance['atten_db']:.1f} dB",
        f"transistor measurement: ripple "
        f"{filter_result.transistor_performance['ripple_db']:.2f} dB, "
        f"attenuation {filter_result.transistor_performance['atten_db']:.1f} dB",
        "",
        filter_result.yield_estimate.describe(),
        "",
        f"{'freq (Hz)':>12} {'|H| (dB)':>9}",
    ]
    for k in range(0, freqs.size, max(1, freqs.size // 24)):
        lines.append(f"{freqs[k]:>12.3g} {mag[k]:>9.2f}")
    lines.append("")
    lines.append("paper: filter meets the Figure-10 mask; 500-sample MC "
                 "confirmed 100% yield")
    emit("fig11_filter_response", "\n".join(lines))

    # The transistor response meets the mask.
    assert filter_result.transistor_performance["ripple_db"] <= \
        spec.max_ripple_db
    assert filter_result.transistor_performance["atten_db"] >= \
        spec.min_atten_db
    # And the verified yield is ~100%.
    assert filter_result.yield_estimate.fraction >= 0.95
