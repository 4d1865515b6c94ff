"""Process design kit (PDK) abstraction.

A :class:`ProcessKit` bundles everything the flow needs from a foundry:

* nominal MOSFET model cards (one per polarity),
* process **corners** (deterministic worst-case shifts, e.g. WP/WS),
* the **global** (inter-die) statistical model -- threshold and
  current-factor spreads shared by every device of a polarity on a die,
* the **local mismatch** model (Pelgrom law) -- per-device random
  deviations that shrink with gate area.

The paper runs its Monte Carlo with "foundry process variation and
mismatch models" on an AMS 0.35 um process (C35B4); our equivalent kit is
:data:`repro.process.c35.C35`.

Sampled variation is delivered as a :class:`ProcessSample`: a batch of
``n`` die realisations.  Circuit builders ask it for per-device
``(delta_vto, beta_scale)`` arrays; those plug straight into the
:class:`~repro.circuit.mosfet.Mosfet` statistical hooks, giving one batched
circuit that carries the entire Monte-Carlo population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.mosfet import MOSModel
from ..errors import ReproError
from .mismatch import MismatchModel

__all__ = ["GLOBAL_DIMS", "CornerDef", "GlobalVariation", "ProcessSample",
           "ProcessKit"]

#: Canonical order of the global (inter-die) statistical dimensions in
#: every sigma-unit coordinate vector (:meth:`ProcessKit.sample_from_sigma`,
#: :meth:`ProcessKit.sigma_coordinates`, the importance-sampling shift
#: vectors, and the surrogate feature space all share it).
GLOBAL_DIMS = ("dvto_n", "kp_n", "dvto_p", "kp_p", "cap")

#: 0 degrees Celsius in Kelvin (temperatures cross the API in Celsius).
_ZERO_CELSIUS_K = 273.15


@dataclass(frozen=True)
class CornerDef:
    """A deterministic process corner.

    Shifts are expressed in the NMOS-frame convention of
    :class:`~repro.circuit.mosfet.Mosfet`: positive ``dvto`` increases
    ``|VT|`` (slower device); ``kp_scale`` multiplies the current factor.
    """

    name: str
    description: str
    dvto_n: float
    kp_scale_n: float
    dvto_p: float
    kp_scale_p: float


@dataclass(frozen=True)
class GlobalVariation:
    """Inter-die (global) statistical model.

    Attributes
    ----------
    sigma_vto_n, sigma_vto_p:
        1-sigma threshold spread [V] (NMOS-frame sign convention).
    sigma_kp_n, sigma_kp_p:
        1-sigma *relative* current-factor spread.
    sigma_cap:
        1-sigma *relative* capacitance spread (poly/MIM capacitor process
        variation).  Capacitors on one die track, so this is a single
        per-die scale factor; it moves pole frequencies (and hence phase
        margin and filter corners) without touching DC gain.
    """

    sigma_vto_n: float = 0.020
    sigma_kp_n: float = 0.03
    sigma_vto_p: float = 0.025
    sigma_kp_p: float = 0.03
    sigma_cap: float = 0.04


class ProcessSample:
    """A batch of sampled die realisations.

    Parameters
    ----------
    size:
        Number of Monte-Carlo samples ``B``.
    dvto_n, kp_scale_n, dvto_p, kp_scale_p:
        Global per-die parameter arrays, shape ``(B,)``.
    mismatch:
        The local mismatch model, or ``None`` to disable mismatch.
    rng:
        Generator used for the per-device mismatch draws.  Each call to
        :meth:`device_variation` consumes fresh randoms, so circuit
        builders must instantiate devices in a deterministic order for
        bit-reproducibility (all builders in :mod:`repro.designs` do).
    vdd:
        Optional per-lane supply voltage [V].  ``None`` (the default)
        means "use the kit's nominal supply"; circuit builders consult
        this when stamping their supply sources, which is how a PVT sweep
        batches several VDD values into one stacked solve.
    temp_k:
        Optional per-lane junction temperature [K].  ``None`` means the
        model cards' nominal temperature; otherwise
        :meth:`device_variation` folds the first-order temperature model
        (:meth:`~repro.circuit.mosfet.MOSModel.temperature_shift`) into
        every device's ``(delta_vto, beta_scale)``.
    """

    def __init__(self, size: int, *, dvto_n, kp_scale_n, dvto_p, kp_scale_p,
                 cap_scale=1.0,
                 mismatch: MismatchModel | None = None,
                 rng: np.random.Generator | None = None,
                 vdd=None, temp_k=None) -> None:
        self.size = int(size)
        self.dvto_n = np.broadcast_to(np.asarray(dvto_n, float), (size,))
        self.kp_scale_n = np.broadcast_to(np.asarray(kp_scale_n, float), (size,))
        self.dvto_p = np.broadcast_to(np.asarray(dvto_p, float), (size,))
        self.kp_scale_p = np.broadcast_to(np.asarray(kp_scale_p, float), (size,))
        self.cap_scale = np.broadcast_to(np.asarray(cap_scale, float), (size,))
        self.vdd = None if vdd is None else \
            np.broadcast_to(np.asarray(vdd, float), (size,))
        self.temp_k = None if temp_k is None else \
            np.broadcast_to(np.asarray(temp_k, float), (size,))
        self.mismatch = mismatch
        if mismatch is not None and rng is None:
            raise ReproError("mismatch sampling requires an rng")
        #: ``(start, stop, rng)`` lane segments, each with its own mismatch
        #: stream: one segment here, one per input after :meth:`concatenate`.
        self.segments = ((0, self.size, rng),)

    @classmethod
    def concatenate(cls, samples) -> "ProcessSample":
        """Stack several samples into one batch, lanes in list order.

        Each input becomes a segment that keeps its own mismatch rng:
        :meth:`device_variation` draws every segment's Pelgrom mismatch
        from that segment's stream with the segment's size, so each
        segment's lanes get exactly the randoms they would get if the
        sample were evaluated alone.  Either every input carries mismatch
        (with the same model) or none does; likewise for ``vdd`` and
        ``temp_k``.
        """
        samples = list(samples)
        if not samples:
            raise ReproError("concatenate needs at least one sample")
        if any(s.mismatch != samples[0].mismatch for s in samples):
            raise ReproError(
                "cannot stack samples with different mismatch models "
                "(mix of mismatch and no-mismatch segments?)")

        def stacked(attr):
            arrays = [getattr(s, attr) for s in samples]
            if all(a is None for a in arrays):
                return None
            if any(a is None for a in arrays):
                raise ReproError(f"cannot stack samples with and without "
                                 f"per-lane {attr}")
            return np.concatenate(arrays)

        size = sum(s.size for s in samples)
        out = cls(size, dvto_n=stacked("dvto_n"),
                  kp_scale_n=stacked("kp_scale_n"),
                  dvto_p=stacked("dvto_p"), kp_scale_p=stacked("kp_scale_p"),
                  cap_scale=stacked("cap_scale"), vdd=stacked("vdd"),
                  temp_k=stacked("temp_k"))
        out.mismatch = samples[0].mismatch
        offset, segments = 0, []
        for s in samples:
            segments += [(offset + start, offset + stop, rng)
                         for start, stop, rng in s.segments]
            offset += s.size
        out.segments = tuple(segments)
        return out

    def _rebuild(self, size: int, transform) -> "ProcessSample":
        """A derived deterministic sample with every lane array mapped
        through ``transform`` (mismatch streams cannot be re-sliced)."""
        if self.mismatch is not None:
            raise ReproError(
                "cannot derive lanes from a sample with live mismatch "
                "(the per-device stream is not sliceable)")
        optional = {
            "vdd": None if self.vdd is None else transform(self.vdd),
            "temp_k": None if self.temp_k is None else transform(self.temp_k),
        }
        return ProcessSample(
            size,
            dvto_n=transform(self.dvto_n), kp_scale_n=transform(self.kp_scale_n),
            dvto_p=transform(self.dvto_p), kp_scale_p=transform(self.kp_scale_p),
            cap_scale=transform(self.cap_scale), **optional)

    def lanes(self, start: int, stop: int) -> "ProcessSample":
        """The deterministic sub-sample of lanes ``[start, stop)``
        (chunked corner sweeps slice one grid realisation this way)."""
        return self._rebuild(stop - start, lambda a: a[start:stop])

    def tiled(self, repeats: int) -> "ProcessSample":
        """The whole lane block repeated ``repeats`` times
        (grid x design-point sweeps tile one realisation per point)."""
        return self._rebuild(self.size * repeats,
                             lambda a: np.tile(a, repeats))

    def device_variation(self, model: MOSModel, w, l
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Per-device ``(delta_vto, beta_scale)`` arrays of shape ``(B,)``.

        Combines the die-level global shift (shared by all devices of the
        polarity) with the lane's temperature shift (when ``temp_k`` is
        set) and a fresh Pelgrom mismatch draw for this device's gate
        area (one draw per :attr:`segments` entry, from that segment's
        rng, on a stacked sample).
        """
        if model.polarity == "n":
            dvto = self.dvto_n.copy()
            beta_scale = self.kp_scale_n.copy()
        else:
            dvto = self.dvto_p.copy()
            beta_scale = self.kp_scale_p.copy()
        if self.temp_k is not None:
            dvt_temp, kp_temp = model.temperature_shift(self.temp_k)
            dvto = dvto + dvt_temp
            beta_scale = beta_scale * kp_temp
        if self.mismatch is not None:
            leff = np.asarray(l, float) - 2.0 * model.ld
            area = np.asarray(w, float) * leff
            draws = [self.mismatch.draw(
                         model.polarity,
                         area if area.ndim == 0 else area[start:stop],
                         stop - start, rng)
                     for start, stop, rng in self.segments]
            dvt_local = np.concatenate([dvt for dvt, _ in draws])
            dbeta_local = np.concatenate([dbeta for _, dbeta in draws])
            dvto = dvto + dvt_local
            beta_scale = beta_scale * (1.0 + dbeta_local)
        return dvto, beta_scale


@dataclass
class ProcessKit:
    """A complete process description (see module docstring)."""

    name: str
    nmos: MOSModel
    pmos: MOSModel
    supply: float = 3.3
    global_variation: GlobalVariation = field(default_factory=GlobalVariation)
    mismatch: MismatchModel = field(default_factory=MismatchModel)
    corners: dict[str, CornerDef] = field(default_factory=dict)

    def model(self, polarity: str) -> MOSModel:
        """Nominal model card for ``polarity`` (``'n'`` or ``'p'``)."""
        if polarity == "n":
            return self.nmos
        if polarity == "p":
            return self.pmos
        raise ReproError(f"unknown polarity {polarity!r}")

    @property
    def models(self) -> dict[str, MOSModel]:
        """Model cards keyed by SPICE model name (for the parser)."""
        return {self.nmos.name: self.nmos, self.pmos.name: self.pmos}

    def corner_def(self, corner: str) -> CornerDef:
        """Look up a :class:`CornerDef` by (case-insensitive) name."""
        try:
            return self.corners[corner.lower()]
        except KeyError:
            known = ", ".join(sorted(self.corners))
            raise ReproError(
                f"unknown corner {corner!r} (known: {known})") from None

    def corner_sample(self, corner: str, *, vdd: float | None = None,
                      temp_c: float | None = None) -> ProcessSample:
        """The deterministic :class:`ProcessSample` of a named corner.

        ``vdd`` and ``temp_c`` optionally pin the environmental axes of
        the PVT space (supply voltage [V], temperature [deg C]); left as
        ``None`` they mean "nominal supply / model-card temperature".
        """
        c = self.corner_def(corner)
        return ProcessSample(
            1, dvto_n=c.dvto_n, kp_scale_n=c.kp_scale_n,
            dvto_p=c.dvto_p, kp_scale_p=c.kp_scale_p, vdd=vdd,
            temp_k=None if temp_c is None else temp_c + _ZERO_CELSIUS_K)

    def pvt_sample(self, corners, vdds=None, temps_c=None) -> ProcessSample:
        """One stacked :class:`ProcessSample` covering a full PVT grid.

        Lanes enumerate ``corners x vdds x temps_c`` in corner-major
        (``itertools.product``) order, so a grid of 5 corners, 3 supplies
        and 3 temperatures yields a 45-lane sample that one batched MNA
        solve evaluates in a single stacked factorisation.

        Parameters
        ----------
        corners:
            Iterable of corner names (see :attr:`corners`).
        vdds:
            Supply voltages [V]; ``None`` or empty means the nominal
            :attr:`supply` only.
        temps_c:
            Junction temperatures [deg C]; ``None`` or empty means the
            model cards' nominal temperature only.
        """
        corners = list(corners)
        if not corners:
            raise ReproError("pvt_sample needs at least one corner")
        defs = [self.corner_def(name) for name in corners]
        vdds = [float(v) for v in (vdds or [self.supply])]
        temps_c = [float(t) for t in temps_c] if temps_c else [None]
        n_env = len(vdds) * len(temps_c)
        size = len(defs) * n_env

        def per_corner(attr):
            return np.repeat([getattr(c, attr) for c in defs], n_env)

        vdd_lane = np.tile(np.repeat(vdds, len(temps_c)), len(defs))
        if temps_c == [None]:
            temp_lane = None
        else:
            temp_lane = np.tile(np.asarray(temps_c, float) + _ZERO_CELSIUS_K,
                                len(defs) * len(vdds))
        return ProcessSample(
            size,
            dvto_n=per_corner("dvto_n"), kp_scale_n=per_corner("kp_scale_n"),
            dvto_p=per_corner("dvto_p"), kp_scale_p=per_corner("kp_scale_p"),
            vdd=vdd_lane, temp_k=temp_lane)

    def global_sigmas(self) -> np.ndarray:
        """1-sigma scales of the global parameters, :data:`GLOBAL_DIMS` order."""
        gv = self.global_variation
        return np.array([gv.sigma_vto_n, gv.sigma_kp_n, gv.sigma_vto_p,
                         gv.sigma_kp_p, gv.sigma_cap])

    def sample_from_sigma(self, x, *, rng: np.random.Generator | None = None,
                          include_mismatch: bool = False) -> ProcessSample:
        """Die realisations at explicit sigma-unit global coordinates.

        The deterministic counterpart of :meth:`sample`: instead of
        drawing the global parameters internally, the caller supplies
        them as standard-normal-frame coordinates ``x`` of shape
        ``(B, len(GLOBAL_DIMS))`` (:data:`GLOBAL_DIMS` order).  This is
        the entry point of every estimator that *controls* the sampling
        plan -- the importance sampler's shifted proposal, the surrogate
        trainer's Latin-hypercube seed batch -- while sharing one
        definition of the sigma -> natural-unit map, including the
        -4-sigma positivity clip on the relative current-factor and
        capacitance deviates.

        Parameters
        ----------
        x:
            Sigma-unit coordinates, shape ``(B, 5)`` (a single ``(5,)``
            vector is promoted to one lane).
        rng, include_mismatch:
            As in :meth:`sample`; local (Pelgrom) mismatch stays an
            internal draw because it is per-device, not per-die.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != len(GLOBAL_DIMS):
            raise ReproError(
                f"sigma coordinates must have shape (B, {len(GLOBAL_DIMS)}), "
                f"got {x.shape}")
        sig = self.global_sigmas()
        return ProcessSample(
            x.shape[0],
            dvto_n=x[:, 0] * sig[0],
            kp_scale_n=1.0 + np.clip(x[:, 1] * sig[1], -4.0 * sig[1], None),
            dvto_p=x[:, 2] * sig[2],
            kp_scale_p=1.0 + np.clip(x[:, 3] * sig[3], -4.0 * sig[3], None),
            cap_scale=1.0 + np.clip(x[:, 4] * sig[4], -4.0 * sig[4], None),
            mismatch=self.mismatch if include_mismatch else None,
            rng=rng if include_mismatch else None)

    def sigma_coordinates(self, sample: ProcessSample) -> np.ndarray:
        """Sigma-unit global coordinates of a sample, shape ``(B, 5)``.

        Inverse of :meth:`sample_from_sigma` (and of the global part of
        :meth:`sample`) up to the -4-sigma positivity clip: a relative
        deviate that was clipped (probability ~3e-5 per dimension) maps
        back to exactly -4, not to its pre-clip value.  Mismatch is
        per-device state and has no die-level coordinate; it simply does
        not appear.
        """
        sig = self.global_sigmas()
        return np.stack([
            sample.dvto_n / sig[0],
            (sample.kp_scale_n - 1.0) / sig[1],
            sample.dvto_p / sig[2],
            (sample.kp_scale_p - 1.0) / sig[3],
            (sample.cap_scale - 1.0) / sig[4],
        ], axis=1)

    def sample(self, size: int, rng: np.random.Generator, *,
               include_global: bool = True,
               include_mismatch: bool = True) -> ProcessSample:
        """Draw ``size`` Monte-Carlo die realisations.

        Global parameters are normal; current factors are applied as
        ``1 + N(0, sigma)`` (clipped at -4 sigma to stay positive).
        """
        gv = self.global_variation
        if include_global:
            dvto_n = rng.normal(0.0, gv.sigma_vto_n, size)
            kp_n = 1.0 + np.clip(rng.normal(0.0, gv.sigma_kp_n, size),
                                 -4.0 * gv.sigma_kp_n, None)
            dvto_p = rng.normal(0.0, gv.sigma_vto_p, size)
            kp_p = 1.0 + np.clip(rng.normal(0.0, gv.sigma_kp_p, size),
                                 -4.0 * gv.sigma_kp_p, None)
            cap = 1.0 + np.clip(rng.normal(0.0, gv.sigma_cap, size),
                                -4.0 * gv.sigma_cap, None)
        else:
            dvto_n = dvto_p = np.zeros(size)
            kp_n = kp_p = np.ones(size)
            cap = np.ones(size)
        return ProcessSample(
            size, dvto_n=dvto_n, kp_scale_n=kp_n,
            dvto_p=dvto_p, kp_scale_p=kp_p, cap_scale=cap,
            mismatch=self.mismatch if include_mismatch else None,
            rng=rng if include_mismatch else None)
