"""PVT grid definition: process corners x supply voltages x temperatures.

A :class:`CornerGrid` names the deterministic scenario set a design must
survive: every process corner of a :class:`~repro.process.pdk.ProcessKit`
(``tm/wp/ws/wo/wz`` for the AMS C35 kit), crossed with a supply-voltage
set (typically nominal +/-10 %) and a temperature set (typically the
industrial -40/27/125 deg C).  The grid is *declarative* -- it only
enumerates lanes; :func:`~repro.corners.sweep.corner_sweep` realises all
of them as extra batch lanes of one stacked MNA solve.

Lane order is corner-major (``itertools.product(corners, vdds, temps)``),
matching :meth:`~repro.process.pdk.ProcessKit.pvt_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..process.pdk import ProcessKit, ProcessSample

__all__ = ["PVTPoint", "CornerGrid", "DEFAULT_TEMPS_C",
           "DEFAULT_VDD_SCALES", "default_vdds"]

#: Default temperature set [deg C]: the industrial qualification range.
DEFAULT_TEMPS_C = (-40.0, 27.0, 125.0)

#: Default supply set as multiples of the kit's nominal supply (+/-10 %).
DEFAULT_VDD_SCALES = (0.9, 1.0, 1.1)


def default_vdds(pdk: ProcessKit) -> tuple[float, ...]:
    """The default supply sweep for a kit: nominal +/-10 %."""
    return tuple(round(scale * pdk.supply, 6) for scale in DEFAULT_VDD_SCALES)


@dataclass(frozen=True)
class PVTPoint:
    """One lane of a PVT grid: (process corner, supply, temperature)."""

    corner: str
    vdd: float
    temp_c: float

    @property
    def label(self) -> str:
        """Compact display form, e.g. ``"ws/3.0V/125C"``."""
        return f"{self.corner}/{self.vdd:g}V/{self.temp_c:g}C"


@dataclass(frozen=True)
class CornerGrid:
    """A full PVT scenario grid (see module docstring)."""

    corners: tuple[str, ...]
    vdds: tuple[float, ...]
    temps_c: tuple[float, ...] = (27.0,)

    def __post_init__(self) -> None:
        if not self.corners:
            raise ReproError("a CornerGrid needs at least one corner")
        if not self.vdds:
            raise ReproError("a CornerGrid needs at least one supply voltage")
        if not self.temps_c:
            raise ReproError("a CornerGrid needs at least one temperature")

    @classmethod
    def full(cls, pdk: ProcessKit) -> "CornerGrid":
        """Every corner of ``pdk`` x nominal +/-10 % supplies x the
        industrial -40/27/125 deg C set."""
        return cls(corners=tuple(pdk.corners), vdds=default_vdds(pdk),
                   temps_c=DEFAULT_TEMPS_C)

    @classmethod
    def from_spec(cls, pdk: ProcessKit, corners: str = "all",
                  vdds: str = "", temps: str = "") -> "CornerGrid":
        """Build a grid from CLI-style comma-separated specs.

        ``corners`` is ``"all"`` or a comma list of corner names;
        ``vdds``/``temps`` are comma lists of floats (empty = defaults).
        Unknown corner names raise :class:`~repro.errors.ReproError`.
        """
        if corners.strip().lower() in ("", "all"):
            names = tuple(pdk.corners)
        else:
            names = tuple(token.strip().lower()
                          for token in corners.split(",") if token.strip())
            for name in names:
                pdk.corner_def(name)  # validate early, with a helpful error
        try:
            vdd_values = tuple(float(token) for token in vdds.split(",")
                               if token.strip())
            temp_values = tuple(float(token) for token in temps.split(",")
                                if token.strip())
        except ValueError as error:
            raise ReproError(f"bad PVT grid spec: {error}") from None
        return cls(corners=names,
                   vdds=vdd_values or default_vdds(pdk),
                   temps_c=temp_values or DEFAULT_TEMPS_C)

    @property
    def size(self) -> int:
        """Total lane count ``len(corners) * len(vdds) * len(temps_c)``."""
        return len(self.corners) * len(self.vdds) * len(self.temps_c)

    def points(self) -> list[PVTPoint]:
        """All grid points in lane (corner-major) order."""
        return [PVTPoint(corner, vdd, temp)
                for corner in self.corners
                for vdd in self.vdds
                for temp in self.temps_c]

    def labels(self) -> list[str]:
        """Display labels of every lane, in lane order."""
        return [point.label for point in self.points()]

    def realize(self, pdk: ProcessKit) -> ProcessSample:
        """The stacked deterministic :class:`ProcessSample` of the grid."""
        return pdk.pvt_sample(self.corners, self.vdds, self.temps_c)

    def describe(self) -> str:
        return (f"{len(self.corners)} corners x {len(self.vdds)} supplies "
                f"x {len(self.temps_c)} temperatures = {self.size} lanes")
