"""Tour of the circuit-simulation substrate with SPICE-style netlists.

The paper's flow sits on a full analogue simulator; this example drives
it the classic way -- text netlists -- through its DC and AC analyses:

* DC operating point of a two-stage amplifier described in SPICE,
* AC transfer function of an RLC bandpass,
* a subcircuit-based R-2R ladder DAC sanity check.

Run:  python examples/spice_netlist_tour.py
"""

import numpy as np

from repro.analysis import ac_analysis, dc_operating_point, log_frequencies
from repro.circuit.parser import parse_netlist
from repro.process import C35

TWO_STAGE_AMP = """
* two-stage NMOS amplifier on the C35 process models
VDD vdd 0 3.3
VIN in 0 DC 0.75 AC 1
RD1 vdd d1 20k
M1 d1 in 0 0 nmos W=20u L=1u
RD2 vdd out 20k
M2 out d1 0 0 nmos W=20u L=1u
CL out 0 1p
"""

RLC_BANDPASS = """
* parallel RLC driven by a current source
I1 0 n DC 0 AC 1
R1 n 0 1k
L1 n 0 10u
C1 n 0 1n
"""

R2R_LADDER = """
* 3-bit R-2R ladder (all bits high)
.subckt rung in out bit
R1 in out 10k
R2 out bit 20k
.ends
V1 b2 0 3.3
V2 b1 0 3.3
V3 b0 0 3.3
Rterm n0 0 20k
X0 n0 n1 b0 rung
X1 n1 n2 b1 rung
X2 n2 vout b2 rung
Rload vout 0 100meg
"""


def main() -> None:
    # -- DC + AC of the two-stage amplifier ------------------------------------
    amp = parse_netlist(TWO_STAGE_AMP, models=C35.models)
    op = dc_operating_point(amp)
    print("two-stage amplifier bias:")
    print(f"  V(d1) = {op.v('d1')[0]:.3f} V, V(out) = {op.v('out')[0]:.3f} V")
    freqs = log_frequencies(10, 1e9, 8)
    ac = ac_analysis(amp, freqs, op=op)
    mag = ac.magnitude_db("out")[0]
    print(f"  low-frequency gain: {mag[0]:.1f} dB "
          f"(two inverting stages => positive net gain)")
    gain = ac.v("out")[0][0].real
    if gain <= 1.0:
        # VIN sits where both stages are saturated; a gain that is not
        # a positive amplification means one stage has left saturation.
        raise SystemExit(f"two-stage amplifier is mis-biased: "
                         f"low-frequency gain {gain:+.3g} V/V")

    # -- RLC bandpass ---------------------------------------------------------
    rlc = parse_netlist(RLC_BANDPASS)
    f0 = 1 / (2 * np.pi * np.sqrt(10e-6 * 1e-9))
    sweep = ac_analysis(rlc, log_frequencies(f0 / 100, f0 * 100, 10))
    impedance = np.abs(sweep.v("n")[0])
    peak = sweep.freqs[np.argmax(impedance)]
    print(f"\nRLC bandpass: analytic f0 = {f0 / 1e6:.3f} MHz, "
          f"measured peak = {peak / 1e6:.3f} MHz, "
          f"|Z| at peak = {impedance.max():.1f} ohm (R = 1k)")

    # -- R-2R ladder ---------------------------------------------------------------
    ladder = parse_netlist(R2R_LADDER)
    op = dc_operating_point(ladder)
    print(f"\nR-2R ladder, all bits high: v(out) = {op.v('vout')[0]:.4f} V "
          f"(full-scale 3.3 V x 7/8 x ladder division)")
    print(f"  flattened elements: {len(ladder)} "
          f"(subcircuits expanded with dotted names)")


if __name__ == "__main__":
    main()
