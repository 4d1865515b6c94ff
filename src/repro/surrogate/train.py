"""Surrogate training: seed batches, backends, persistence.

Training a surrogate is itself a (small) Monte-Carlo campaign, so it
reuses the library's whole sampling stack:

* the seed batch is a **Latin-hypercube-stratified normal** draw
  (:func:`repro.mc.sampler.latin_hypercube_normal`) over the sigma-unit
  global-parameter space -- stratification buys the regression maximum
  information per simulator call;
* the batch is realised as die samples by
  :meth:`repro.process.ProcessKit.sample_from_sigma` and evaluated in
  lane-bounded chunks through the :mod:`repro.exec` backends, with one
  child random stream per chunk for the mismatch draws -- the same
  bit-reproducibility contract as :mod:`repro.mc.engine` (fixed
  configuration including ``chunk_lanes`` => identical training data on
  any backend);
* the fitted :class:`SurrogateBundle` exposes
  :meth:`~SurrogateBundle.as_evaluator`, which satisfies the
  ``(ProcessSample) -> dict[name, (S,) array]`` evaluator contract of
  :func:`repro.mc.engine.monte_carlo` -- a trained bundle is a drop-in
  replacement for the transistor-level evaluator anywhere the MC engine
  is used -- and serialises to a single ``.npz`` via
  :func:`save_surrogates` / :func:`load_surrogates` so the flow pipeline
  can persist trained models into its artefact directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import telemetry
from ..errors import SurrogateError
from ..exec import chunk_bounds
from ..mc.engine import evaluate_sigma_batch
from ..mc.sampler import latin_hypercube_normal, stream
from ..process.pdk import GLOBAL_DIMS, ProcessKit
from .regression import (SURROGATE_KINDS, PolynomialSurrogate, RBFSurrogate,
                         fit_surrogate)

__all__ = ["SurrogateBundle", "train_surrogates", "save_surrogates",
           "load_surrogates"]


def _surrogate_batch(evaluator, pdk: ProcessKit, x: np.ndarray, *,
                     stage: str, chunk_lanes: int = 4000,
                     **options) -> dict[str, np.ndarray]:
    """Simulate surrogate training samples at sigma coordinates ``x``.

    :func:`repro.mc.engine.evaluate_sigma_batch` (``options`` are its
    ``seed``, ``include_mismatch``, ``backend`` and ``workers``) under
    one ``surrogate.batch`` span, counting the lanes in
    ``surrogate.evaluations``.
    """
    total = len(x)
    with telemetry.span("surrogate.batch", stage=stage, samples=total,
                        chunks=len(chunk_bounds(total, chunk_lanes))):
        telemetry.counter_add("surrogate.evaluations", total)
        return evaluate_sigma_batch(evaluator, pdk, x, stage=stage,
                                    chunk_lanes=chunk_lanes, **options)


class SurrogateBundle:
    """Trained surrogates of every performance measure of one design.

    Parameters
    ----------
    models:
        Mapping performance name -> fitted surrogate
        (:class:`~repro.surrogate.regression.PolynomialSurrogate` or
        :class:`~repro.surrogate.regression.RBFSurrogate`).
    kind:
        The model family the bundle was trained as
        (:data:`~repro.surrogate.regression.SURROGATE_KINDS`).
    x_train, y_train:
        The training data (sigma-unit inputs and per-performance
        responses), retained so adaptive refinement can append new
        samples and refit.
    pdk_name:
        Name of the :class:`~repro.process.ProcessKit` the coordinates
        refer to (a bundle is meaningless against a different kit).
    """

    def __init__(self, models: dict, kind: str, x_train: np.ndarray,
                 y_train: dict[str, np.ndarray], pdk_name: str) -> None:
        self.models = dict(models)
        self.kind = str(kind)
        self.x_train = np.asarray(x_train, dtype=float)
        self.y_train = {name: np.asarray(y, dtype=float)
                        for name, y in y_train.items()}
        self.pdk_name = str(pdk_name)

    @property
    def names(self) -> tuple[str, ...]:
        """The modelled performance names."""
        return tuple(self.models)

    @property
    def n_train(self) -> int:
        """Training-sample count behind the current fit."""
        return self.x_train.shape[0]

    @property
    def cv_errors(self) -> dict[str, float]:
        """Leave-one-out CV RMSE per performance (the noise floor every
        downstream ambiguity band and refusal check is scaled by)."""
        return {name: model.cv_error for name, model in self.models.items()}

    def predict(self, x) -> dict[str, np.ndarray]:
        """Predict every performance at sigma-unit coordinates ``x``."""
        return {name: model.predict(x) for name, model in self.models.items()}

    def as_evaluator(self, pdk: ProcessKit):
        """A drop-in :func:`~repro.mc.engine.monte_carlo` evaluator.

        The returned callable maps an incoming :class:`ProcessSample` to
        sigma coordinates (:meth:`ProcessKit.sigma_coordinates`) and
        predicts -- so ``monte_carlo(bundle.as_evaluator(pdk), pdk, ...)``
        runs a full MC campaign without a single MNA solve.  Predictions
        are the *conditional mean* given the die's global parameters:
        per-device mismatch has no die-level coordinate, so its spread is
        absent from the predicted population (it lives in
        :attr:`cv_errors` instead).
        """
        if pdk.name != self.pdk_name:
            raise SurrogateError(
                f"bundle was trained on kit {self.pdk_name!r}, "
                f"asked to evaluate under {pdk.name!r}")

        def evaluator(sample):
            return self.predict(pdk.sigma_coordinates(sample))

        return evaluator

    def augmented(self, x_new: np.ndarray,
                  y_new: dict[str, np.ndarray]) -> "SurrogateBundle":
        """A new bundle refitted with extra training samples appended.

        The adaptive-refinement step: ``x_new`` are the sigma
        coordinates whose predicted spec margins fell inside the CV
        error band, ``y_new`` their true (simulated) responses.
        """
        x_new = np.asarray(x_new, dtype=float)
        if x_new.size == 0:
            return self
        x_all = np.concatenate([self.x_train, x_new], axis=0)
        y_all = {name: np.concatenate([self.y_train[name],
                                       np.asarray(y_new[name], float)])
                 for name in self.y_train}
        models = {name: fit_surrogate(self.kind, x_all, y_all[name])
                  for name in y_all}
        return SurrogateBundle(models, self.kind, x_all, y_all, self.pdk_name)

    def describe(self) -> str:
        """One-line-per-performance training summary."""
        lines = [f"surrogate bundle ({self.kind}, {self.n_train} training "
                 f"samples, kit {self.pdk_name})"]
        for name, model in self.models.items():
            lines.append(f"  {name}: LOO CV RMSE {model.cv_error:.4g}")
        return "\n".join(lines)


def train_surrogates(evaluator, pdk: ProcessKit, *, n_train: int = 96,
                     seed: int = 2008, kind: str = "quadratic",
                     include_mismatch: bool = True,
                     backend=None, workers: int = 0,
                     chunk_lanes: int = 4000) -> SurrogateBundle:
    """Train surrogates for every performance an evaluator produces.

    Draws an ``n_train``-sample Latin-hypercube seed batch over the
    sigma-unit global-parameter space (stream ``(seed,
    "surrogate-lhs")``), evaluates it through the configured execution
    backend, and fits one ``kind`` surrogate per returned performance.

    Parameters
    ----------
    evaluator:
        ``(ProcessSample) -> dict[name, (S,) array]`` -- the same
        callable :func:`repro.mc.engine.monte_carlo` consumes.
    n_train:
        Seed-batch size (the simulator budget of the initial fit).
    include_mismatch:
        Carry local mismatch in the training evaluations.  Keep it on
        when the surrogate will be cross-checked against full MC: the
        mismatch spread then shows up honestly in the CV error.
    """
    if kind not in SURROGATE_KINDS:
        raise SurrogateError(f"unknown surrogate kind {kind!r} "
                             f"(known: {', '.join(SURROGATE_KINDS)})")
    with telemetry.span("surrogate.train", n_train=n_train, kind=kind):
        x = latin_hypercube_normal(stream(seed, "surrogate-lhs"), n_train,
                                   len(GLOBAL_DIMS))
        y = _surrogate_batch(evaluator, pdk, x, seed=seed,
                             stage="surrogate-train",
                             include_mismatch=include_mismatch,
                             backend=backend, workers=workers,
                             chunk_lanes=chunk_lanes)
        models = {name: fit_surrogate(kind, x, values)
                  for name, values in y.items()}
    return SurrogateBundle(models, kind, x, y, pdk.name)


def surrogate_arrays(bundle: SurrogateBundle) -> dict[str, np.ndarray]:
    """A trained bundle as a flat name -> array mapping.

    The payload is pure arrays plus string metadata -- no pickling -- so
    it can be written to an ``.npz`` artefact (:func:`save_surrogates`)
    or stored in the content-addressed result cache
    (:mod:`repro.cache`) and reconstructed bit-identically with
    :func:`surrogates_from_arrays`.
    """
    arrays: dict[str, np.ndarray] = {
        "kind": np.array(bundle.kind),
        "pdk_name": np.array(bundle.pdk_name),
        "names": np.array(list(bundle.names)),
        "x_train": bundle.x_train,
    }
    for name in bundle.names:
        arrays[f"y::{name}"] = bundle.y_train[name]
        model = bundle.models[name]
        arrays[f"family::{name}"] = np.array(model.kind)
        for key, value in model.to_arrays().items():
            arrays[f"model::{name}::{key}"] = value
    return arrays


def surrogates_from_arrays(data) -> SurrogateBundle:
    """Rebuild a bundle from :func:`surrogate_arrays`' flat mapping.

    ``data`` may be a plain dict or an open ``np.load`` handle.
    """
    families = {"polynomial": PolynomialSurrogate, "rbf": RBFSurrogate}
    files = list(getattr(data, "files", None) or data.keys())
    names = [str(name) for name in np.asarray(data["names"])]
    models = {}
    y_train = {}
    for name in names:
        family = str(np.asarray(data[f"family::{name}"]))
        if family not in families:
            raise SurrogateError(
                f"unknown surrogate family {family!r} in bundle payload")
        prefix = f"model::{name}::"
        payload = {key[len(prefix):]: np.asarray(data[key]).copy()
                   for key in files if key.startswith(prefix)}
        models[name] = families[family].from_arrays(payload)
        y_train[name] = np.asarray(data[f"y::{name}"]).copy()
    return SurrogateBundle(models, str(np.asarray(data["kind"])),
                           np.asarray(data["x_train"]).copy(), y_train,
                           str(np.asarray(data["pdk_name"])))


def save_surrogates(bundle: SurrogateBundle, path) -> Path:
    """Persist a trained bundle to one ``.npz`` file.

    The payload is pure arrays plus string metadata -- no pickling -- so
    saved surrogates are portable artefacts like the flow's ``.tbl``
    tables.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **surrogate_arrays(bundle))
    return path


def load_surrogates(path) -> SurrogateBundle:
    """Reload a bundle written by :func:`save_surrogates`."""
    with np.load(Path(path), allow_pickle=False) as data:
        return surrogates_from_arrays(data)
