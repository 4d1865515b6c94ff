"""Regression metamodels (response surfaces) for performance measures.

The paper's central economics -- replace expensive circuit-level
evaluation with a cheap behavioural stand-in -- applied one level down:
instead of a table model over *design* parameters, a regression model of
one performance measure as a function of the **process-sample
coordinates** (the sigma-unit global-parameter vector of
:data:`repro.process.GLOBAL_DIMS`).  iVAMS-style polynomial metamodels
(Mohanty & Kougianos, 2019) are the classic instance; a Gaussian RBF
(kernel-ridge) variant handles responses a quadratic cannot bend around.

Two model families, one contract:

* :class:`PolynomialSurrogate` -- ordinary least squares on a degree-1
  (linear) or degree-2 (full quadratic, cross terms included) feature
  expansion.  Five process dimensions make the quadratic 21 coefficients
  -- tiny, fast, and surprisingly accurate for mildly nonlinear analogue
  responses.
* :class:`RBFSurrogate` -- Gaussian kernel ridge regression with a
  median-distance length-scale heuristic.

Every fit reports a **leave-one-out cross-validation RMSE** computed in
closed form (no refits): for a linear smoother with hat matrix ``H``,
the LOO residual is ``r_i / (1 - H_ii)``.  That number is the model's
honest noise floor -- it includes both model-form error *and* whatever
the features cannot explain (local mismatch appears here as irreducible
noise) -- and everything downstream (ambiguity bands, refusal
thresholds, classification probabilities) is calibrated against it.

Models serialise to plain arrays (:meth:`to_arrays` /
:meth:`from_arrays`) so a trained surrogate can be persisted inside a
flow's artefact directory and reloaded without retraining.
"""

from __future__ import annotations

import numpy as np

from ..errors import SurrogateError

__all__ = ["PolynomialSurrogate", "RBFSurrogate", "fit_surrogate",
           "SURROGATE_KINDS"]

#: Model-family names accepted by :func:`fit_surrogate`.
SURROGATE_KINDS = ("linear", "quadratic", "rbf")


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise SurrogateError(f"inputs must have shape (N, D), got {x.shape}")
    return x


def _polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Feature expansion ``[1, x_i, (x_i x_j)_{i<=j}]`` up to ``degree``."""
    n, d = x.shape
    columns = [np.ones(n)]
    columns.extend(x[:, i] for i in range(d))
    if degree >= 2:
        for i in range(d):
            for j in range(i, d):
                columns.append(x[:, i] * x[:, j])
    return np.stack(columns, axis=1)


class PolynomialSurrogate:
    """A least-squares polynomial response surface.

    Build with :meth:`fit`; query with :meth:`predict`.  ``cv_error``
    holds the leave-one-out RMSE of the fit (see the module docstring).

    Attributes
    ----------
    degree:
        1 (linear) or 2 (full quadratic with cross terms).
    coefficients:
        Feature-space coefficient vector, :func:`_polynomial_features`
        order.
    cv_error:
        Leave-one-out cross-validation RMSE.
    n_train:
        Training-sample count.
    """

    kind = "polynomial"

    def __init__(self, dims: int, degree: int, coefficients: np.ndarray,
                 cv_error: float, n_train: int) -> None:
        self.dims = int(dims)
        self.degree = int(degree)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.cv_error = float(cv_error)
        self.n_train = int(n_train)

    @classmethod
    def fit(cls, x, y, *, degree: int = 2) -> "PolynomialSurrogate":
        """Fit a polynomial surface to ``(x, y)`` training data.

        Parameters
        ----------
        x:
            Sigma-unit inputs, shape ``(N, D)``.
        y:
            Response values, shape ``(N,)``.
        degree:
            Polynomial degree (1 or 2).

        A tiny Tikhonov term (1e-9) keeps the normal equations
        well-conditioned when training points nearly repeat.

        Raises
        ------
        SurrogateError
            If the training set is smaller than the coefficient count
            (the LOO error would be meaningless noise).
        """
        if degree not in (1, 2):
            raise SurrogateError(f"polynomial degree must be 1 or 2, "
                                 f"got {degree}")
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != x.shape[0]:
            raise SurrogateError(
                f"{x.shape[0]} inputs vs {y.size} responses")
        features = _polynomial_features(x, degree)
        n, p = features.shape
        if n < p + 2:
            raise SurrogateError(
                f"need at least {p + 2} training samples for a degree-"
                f"{degree} surface over {x.shape[1]} dims, got {n}")
        gram = features.T @ features + 1e-9 * np.eye(p)
        gram_inv = np.linalg.inv(gram)
        beta = gram_inv @ (features.T @ y)
        # Closed-form LOO: hat diagonal of the linear smoother.
        hat = np.einsum("ij,jk,ik->i", features, gram_inv, features)
        residuals = y - features @ beta
        loo = residuals / np.maximum(1.0 - hat, 1e-9)
        cv_error = float(np.sqrt(np.mean(loo ** 2)))
        return cls(x.shape[1], degree, beta, cv_error, n)

    def predict(self, x) -> np.ndarray:
        """Evaluate the surface at ``x`` (shape ``(M, D)``) -> ``(M,)``."""
        x = _as_2d(x)
        if x.shape[1] != self.dims:
            raise SurrogateError(
                f"expected {self.dims}-dim inputs, got {x.shape[1]}")
        return _polynomial_features(x, self.degree) @ self.coefficients

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Serialisable array payload (inverse of :meth:`from_arrays`)."""
        return {
            "meta": np.array([self.dims, self.degree, self.n_train], float),
            "coefficients": self.coefficients,
            "cv_error": np.array([self.cv_error]),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PolynomialSurrogate":
        """Rebuild a surrogate from :meth:`to_arrays` output."""
        dims, degree, n_train = (int(v) for v in arrays["meta"])
        return cls(dims, degree, arrays["coefficients"],
                   float(arrays["cv_error"][0]), n_train)


class RBFSurrogate:
    """A Gaussian radial-basis-function (kernel ridge) response surface.

    The kernel is ``exp(-|x - c|^2 / (2 l^2))`` over the training
    centres; the length scale ``l`` defaults to the median pairwise
    training distance (the standard heuristic), and a ridge term
    regularises the kernel system.  ``cv_error`` is the closed-form
    kernel-ridge LOO RMSE ``alpha_i / (K + lambda I)^{-1}_{ii}``.
    """

    kind = "rbf"

    def __init__(self, centers: np.ndarray, weights: np.ndarray,
                 length_scale: float, mean: float, cv_error: float) -> None:
        self.centers = np.asarray(centers, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.length_scale = float(length_scale)
        self.mean = float(mean)
        self.cv_error = float(cv_error)
        self.n_train = self.centers.shape[0]
        self.dims = self.centers.shape[1]

    @staticmethod
    def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.sum(a * a, axis=1)[:, None]
                + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T))

    @classmethod
    def fit(cls, x, y) -> "RBFSurrogate":
        """Fit a Gaussian-kernel ridge model to ``(x, y)``.

        The kernel width is the median pairwise distance of the training
        inputs; the kernel-ridge regularisation ``lambda`` is 1e-6.
        """
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != x.shape[0]:
            raise SurrogateError(f"{x.shape[0]} inputs vs {y.size} responses")
        if x.shape[0] < 4:
            raise SurrogateError("RBF surrogate needs at least 4 samples")
        sq = np.maximum(cls._sq_distances(x, x), 0.0)
        off_diagonal = sq[~np.eye(x.shape[0], dtype=bool)]
        length_scale = max(float(np.sqrt(np.median(off_diagonal))), 1e-6)
        kernel = np.exp(-sq / (2.0 * length_scale ** 2))
        mean = float(np.mean(y))
        system_inv = np.linalg.inv(kernel + 1e-6 * np.eye(x.shape[0]))
        weights = system_inv @ (y - mean)
        # Closed-form kernel-ridge LOO residuals.
        loo = weights / np.maximum(np.diag(system_inv), 1e-300)
        cv_error = float(np.sqrt(np.mean(loo ** 2)))
        return cls(x, weights, length_scale, mean, cv_error)

    def predict(self, x) -> np.ndarray:
        """Evaluate the surface at ``x`` (shape ``(M, D)``) -> ``(M,)``."""
        x = _as_2d(x)
        if x.shape[1] != self.dims:
            raise SurrogateError(
                f"expected {self.dims}-dim inputs, got {x.shape[1]}")
        sq = np.maximum(self._sq_distances(x, self.centers), 0.0)
        kernel = np.exp(-sq / (2.0 * self.length_scale ** 2))
        return self.mean + kernel @ self.weights

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Serialisable array payload (inverse of :meth:`from_arrays`)."""
        return {
            "centers": self.centers,
            "weights": self.weights,
            "meta": np.array([self.length_scale, self.mean, self.cv_error]),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "RBFSurrogate":
        """Rebuild a surrogate from :meth:`to_arrays` output."""
        length_scale, mean, cv_error = (float(v) for v in arrays["meta"])
        return cls(arrays["centers"], arrays["weights"], length_scale,
                   mean, cv_error)


def fit_surrogate(kind: str, x, y):
    """Fit a surrogate of family ``kind`` (see :data:`SURROGATE_KINDS`).

    ``"linear"`` and ``"quadratic"`` map to :class:`PolynomialSurrogate`
    of degree 1/2, ``"rbf"`` to :class:`RBFSurrogate`.
    """
    if kind == "linear":
        return PolynomialSurrogate.fit(x, y, degree=1)
    if kind == "quadratic":
        return PolynomialSurrogate.fit(x, y, degree=2)
    if kind == "rbf":
        return RBFSurrogate.fit(x, y)
    raise SurrogateError(
        f"unknown surrogate kind {kind!r} (known: {', '.join(SURROGATE_KINDS)})")
