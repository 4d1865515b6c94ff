"""Verilog-A source emission.

The paper's deliverable is a Verilog-A behavioural module plus its
``.tbl`` data files.  This module *generates* that artefact from a built
:class:`~repro.yieldmodel.targeting.CombinedYieldModel`: the emitted source
follows the listing in the paper's section 4.4 line for line --
``$table_model`` reads of the variation tables, guard-banded
``gain_prop``/``pm_prop`` computation, design-parameter look-ups
(``lp1..lpN``), parameter file write-out, and the output contribution
``V(out) <+ V(inp)*(-gain_in_v) - I(out)*ro``.

The Python flow never executes this text (the :class:`BehavioralOTA`
element is its executable twin); it exists so the generated model + tables
can be dropped into a real Spectre/Verilog-A environment unchanged.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["generate_verilog_a", "write_verilog_a_package"]

_HEADER = """\
// Combined performance / variation behavioural model
// Generated by the repro library (reproduction of Ali et al., DATE 2008,
// "A New Approach for Combining Yield and Performance in Behavioural
//  Models for Analogue Integrated Circuits").
`include "constants.vams"
`include "disciplines.vams"
"""


#: Name of the emitted Verilog-A module (and of its ``.va`` file).
MODULE_NAME = "ota_yield_model"


def generate_verilog_a(*, objective_tables: dict[str, str],
                       parameter_tables: dict[str, str],
                       ro_ohms: float) -> str:
    """Render the Verilog-A module source.

    Parameters
    ----------
    objective_tables:
        Mapping objective alias -> variation table file, e.g.
        ``{"gain": "gain_delta.tbl", "pm": "pm_delta.tbl"}`` (order:
        gain-like first, phase-like second, as in the paper).
    parameter_tables:
        Mapping design parameter name (``lp1``...) -> 2-input table file.
    ro_ohms:
        Output resistance used in the contribution statement.

    The module's two objective parameters default to 50 (dB) and 75
    (degrees).
    """
    aliases = list(objective_tables)
    if len(aliases) != 2:
        raise ValueError("the paper's module uses exactly two objectives")
    first, second = aliases
    lp_names = list(parameter_tables)

    lines: list[str] = [_HEADER]
    lines.append(f"module {MODULE_NAME}(inp, inn, out);")
    lines.append("  inout inp, inn, out;")
    lines.append("  electrical inp, inn, out;")
    lines.append("")
    lines.append("  // Required performance (specification inputs).")
    lines.append(f"  parameter real {first} = 50;")
    lines.append(f"  parameter real {second} = 75;")
    lines.append(f"  parameter real ro = {ro_ohms:.6g};")
    lines.append("")
    reals = [f"{first}_delta", f"{second}_delta",
             f"{first}_prop", f"{second}_prop", *lp_names, "gain_in_v"]
    lines.append(f"  real {', '.join(reals)};")
    lines.append("  integer fptr;")
    lines.append("")
    lines.append("  analog begin")
    lines.append("")
    lines.append("    // Variation look-up (3E: cubic spline, no extrapolation).")
    for alias, table in objective_tables.items():
        lines.append(
            f'    {alias}_delta = $table_model ({alias}, "{table}", "3E");')
    lines.append("")
    lines.append("    // Guard-banded performance targets (section 4.4).")
    for alias in aliases:
        lines.append(
            f"    {alias}_prop = (({alias}_delta/100)*{alias})+{alias};")
    lines.append("")
    lines.append(f'    $display ("Propose Gain : %e", {first}_prop);')
    lines.append(f'    $display ("propose PM : %e", {second}_prop);')
    lines.append("")
    lines.append("    // Design-parameter interpolation from the performance table.")
    for lp, table in parameter_tables.items():
        lines.append(
            f'    {lp} = $table_model ({first}_prop,{second}_prop,'
            f'"{table}","3E,3E");')
    lines.append("")
    lines.append('    fptr=$fopen("params.dat");')
    lines.append('    $fwrite(fptr, "\\n Generated Design Parameters\\n ");')
    fmt = " ".join(["%e"] * len(lp_names))
    args = ",".join(lp_names)
    lines.append(f'    $fwrite(fptr, "{fmt}", {args});')
    lines.append("    $fclose(fptr);")
    lines.append(f'    $display ("params: = {fmt}", {args});')
    lines.append("")
    lines.append("    // First-order behavioural output stage.")
    lines.append(f"    gain_in_v = pow(10,{first}_prop/20);")
    lines.append("    V(out) <+ (V(inp)-V(inn))*(gain_in_v)-I(out)*ro;")
    lines.append("")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog_a_package(model, directory) -> dict[str, Path]:
    """Write the complete Verilog-A package for a combined model.

    Emits the variation tables (1-input, keyed by their own objective),
    the design-parameter tables (2-input ``gain pm value`` rows), and the
    module source.  Returns the mapping of artefact name -> path.

    ``model`` is a :class:`~repro.yieldmodel.targeting.CombinedYieldModel`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = model.table
    written: dict[str, Path] = {}

    aliases = model.objective_aliases
    objective_tables: dict[str, str] = {}
    for axis, (name, alias) in enumerate(zip(model.objective_names, aliases, strict=True)):
        filename = f"{alias}_delta.tbl"
        table.write_tbl(directory / filename, model.variation_column(name),
                        key_objective=axis,
                        header=f"{name} variation [%] vs {name}")
        objective_tables[alias] = filename
        written[f"{alias}_delta"] = directory / filename

    parameter_tables: dict[str, str] = {}
    for index, param in enumerate(model.parameter_names, start=1):
        lp = f"lp{index}"
        filename = f"{lp}_data.tbl"
        table.write_tbl2(directory / filename, param,
                         header=f"design parameter {param} vs "
                                f"({', '.join(model.objective_names)})")
        parameter_tables[lp] = filename
        written[lp] = directory / filename

    source = generate_verilog_a(
        objective_tables=objective_tables,
        parameter_tables=parameter_tables,
        ro_ohms=float(model.nominal_ro()),
    )
    module_path = directory / f"{MODULE_NAME}.va"
    module_path.write_text(source)
    written["module"] = module_path
    return written
