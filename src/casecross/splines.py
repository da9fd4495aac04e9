"""Natural cubic spline bases, interaction bases, and design matrices.

The 1-d basis is the truncated-power natural spline reduced by the boundary
constraint: with knots b0 < k_1 < ... < k_{df-1} < b1 the basis functions are

    N_1(x) = x,
    N_{j+1}(x) = d_j(x) - d_{df-1}(x),    j = 1..df-1,

where d_j(x) = [(x - k_j)_+^3 - (x - b1)_+^3] / (b1 - k_j) and the boundary
knots act as k_0 = b0, k_df = b1. Each N is cubic between knots, C^2
everywhere, and exactly linear outside the boundary knots (second derivative
zero at and beyond them). The intercept is omitted: conditional-likelihood
models identify coefficients only through within-set contrasts.

Interaction bases are either the single product t*a or the row-major outer
product of two marginal natural cubic bases (tensor product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import MatchedRows
from .errors import ConfigurationError, DegenerateDataError
from .quantiles import type1_index

__all__ = [
    "LINEAR_INTERACTION",
    "TENSOR_PRODUCT",
    "BasisSpec",
    "InteractionSpec",
    "ModelBasis",
    "DesignMatrix",
    "fit_knots",
    "eval_natural_cubic",
    "eval_interaction",
    "fit_model_basis",
    "design_matrix",
]

LINEAR_INTERACTION = "linear_interaction"
TENSOR_PRODUCT = "tensor_product"


@dataclass(frozen=True)
class BasisSpec:
    """Declarative description of one natural cubic spline basis."""

    df: int
    interior_knots: tuple[float, ...]
    boundary_knots: tuple[float, float]

    def __post_init__(self):
        if self.df < 1:
            raise ConfigurationError(f"df must be >= 1, got {self.df}")
        lo, hi = self.boundary_knots
        if not lo < hi:
            raise ConfigurationError(f"boundary knots must be increasing, got {self.boundary_knots}")
        if len(self.interior_knots) != self.df - 1:
            raise ConfigurationError(
                f"df={self.df} needs {self.df - 1} interior knots, got {len(self.interior_knots)}"
            )
        ks = (lo, *self.interior_knots, hi)
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ConfigurationError(f"knots must be strictly increasing, got {ks}")

    @property
    def knots(self) -> tuple[float, ...]:
        """All knots in increasing order, boundaries included."""
        return (self.boundary_knots[0], *self.interior_knots, self.boundary_knots[1])


def fit_knots(values, df: int) -> BasisSpec:
    """Place knots from a sample: boundaries at min/max, interiors at
    equally spaced type-1 quantiles (df=3 puts them at 1/3 and 2/3)."""
    xs = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DegenerateDataError("knot fitting needs a nonempty 1-d sample")
    if not np.all(np.isfinite(xs)):
        raise DegenerateDataError("knot fitting sample contains non-finite values")
    if df < 1:
        raise ConfigurationError(f"df must be >= 1, got {df}")
    lo, hi = float(xs.min()), float(xs.max())
    xs = np.sort(xs, kind="stable")     # one sort for the count and every knot
    n_distinct = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))
    if n_distinct < df + 1:
        raise DegenerateDataError(
            f"need at least {df + 1} distinct values for {df + 1} knots, got {n_distinct}"
        )
    interior = tuple(float(xs[type1_index(xs.size, j / df)]) for j in range(1, df))
    ks = (lo, *interior, hi)
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise DegenerateDataError(
            f"sample too concentrated: quantile knots {ks} are not strictly increasing"
        )
    return BasisSpec(df, interior, (lo, hi))


def eval_natural_cubic(spec: BasisSpec, x) -> np.ndarray:
    """Evaluate the df basis functions at x (scalar or array).

    Returns an array of shape ``x.shape + (df,)``. Points outside the
    boundary knots are evaluated by the basis itself, which is linear there.
    """
    x = np.asarray(x, dtype=float)
    knots = np.asarray(spec.knots)
    out = np.empty(x.shape + (spec.df,))
    out[..., 0] = x
    if spec.df > 1:
        upper = knots[-1]
        d_last = _tp_ratio(x, knots[-2], upper)
        for j in range(spec.df - 1):
            out[..., j + 1] = _tp_ratio(x, knots[j], upper) - d_last
    return out


def _tp_ratio(x, knot, upper):
    # cubes by explicit multiplication: identical bits whether x arrives as a
    # scalar or inside an array, which keeps self-contrasts exactly zero
    u = np.maximum(x - knot, 0.0)
    v = np.maximum(x - upper, 0.0)
    return (u * u * u - v * v * v) / (upper - knot)


@dataclass(frozen=True)
class InteractionSpec:
    """Interaction basis: a single product term or a tensor product."""

    kind: str
    t_basis: BasisSpec | None = None
    a_basis: BasisSpec | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR_INTERACTION, TENSOR_PRODUCT):
            raise ConfigurationError(f"unknown interaction kind {self.kind!r}")
        if self.kind == TENSOR_PRODUCT and (self.t_basis is None or self.a_basis is None):
            raise ConfigurationError("tensor interaction needs both marginal bases")

    @property
    def df(self) -> int:
        if self.kind == LINEAR_INTERACTION:
            return 1
        return self.t_basis.df * self.a_basis.df


def eval_interaction(spec: InteractionSpec, t, a) -> np.ndarray:
    """Evaluate the interaction block at (t, a); shapes broadcast.

    For the tensor product the output is the outer product of the marginal
    basis vectors flattened row-major (t-index major, a-index minor).
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if spec.kind == LINEAR_INTERACTION:
        return (t * a)[..., np.newaxis]
    bt = eval_natural_cubic(spec.t_basis, t)
    ba = eval_natural_cubic(spec.a_basis, a)
    outer = bt[..., :, np.newaxis] * ba[..., np.newaxis, :]
    return outer.reshape(outer.shape[:-2] + (spec.df,))


@dataclass(frozen=True)
class ModelBasis:
    """The full covariate map (t, a) -> design row for one model kind."""

    temperature: BasisSpec
    pm25: BasisSpec
    interaction: InteractionSpec

    @property
    def dimension(self) -> int:
        return self.temperature.df + self.pm25.df + self.interaction.df

    @property
    def column_labels(self) -> tuple[str, ...]:
        labels = [f"temp_s{i + 1}" for i in range(self.temperature.df)]
        labels += [f"pm25_s{i + 1}" for i in range(self.pm25.df)]
        if self.interaction.kind == LINEAR_INTERACTION:
            labels.append("inter_ta")
        else:
            labels += [
                f"inter_t{i + 1}a{j + 1}"
                for i in range(self.interaction.t_basis.df)
                for j in range(self.interaction.a_basis.df)
            ]
        return tuple(labels)

    @property
    def blocks(self) -> tuple[tuple[str, slice], ...]:
        p, q = self.temperature.df, self.pm25.df
        return (
            ("temperature", slice(0, p)),
            ("pm25", slice(p, p + q)),
            ("interaction", slice(p + q, p + q + self.interaction.df)),
        )

    def rows(self, t, a) -> np.ndarray:
        """Design rows for broadcastable t, a; shape ``broadcast + (dimension,)``."""
        t = np.asarray(t, dtype=float)
        a = np.asarray(a, dtype=float)
        t, a = np.broadcast_arrays(t, a)
        return np.concatenate(
            [
                eval_natural_cubic(self.temperature, t),
                eval_natural_cubic(self.pm25, a),
                eval_interaction(self.interaction, t, a),
            ],
            axis=-1,
        )


def fit_model_basis(
    rows: MatchedRows,
    kind: str = "spline_linear",
    temperature_df: int = 3,
    pm25_df: int = 3,
) -> ModelBasis:
    """Fit knots on the pooled (case and control) day values of the table.

    ``kind`` is ``spline_linear`` (splines plus a single product interaction)
    or ``spline_tensor`` (splines plus a tensor-product interaction sharing
    the marginal knots).
    """
    if not rows.temperature.size:
        raise DegenerateDataError("no rows to fit knots on")
    t_spec = fit_knots(rows.temperature, temperature_df)
    a_spec = fit_knots(rows.pm25_window, pm25_df)
    if kind == "spline_linear":
        inter = InteractionSpec(LINEAR_INTERACTION)
    elif kind == "spline_tensor":
        inter = InteractionSpec(TENSOR_PRODUCT, t_basis=t_spec, a_basis=a_spec)
    else:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return ModelBasis(t_spec, a_spec, inter)


@dataclass
class DesignMatrix:
    """Realized covariate rows for every day record of every matched set."""

    values: np.ndarray
    column_labels: tuple[str, ...]
    blocks: tuple[tuple[str, slice], ...]
    set_index: np.ndarray
    is_case: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("design matrix contains non-finite entries")
        if self.values.shape[1] != len(self.column_labels):
            raise ConfigurationError("column label count does not match matrix width")


def design_matrix(rows: MatchedRows, model: ModelBasis) -> DesignMatrix:
    """Assemble the design matrix, one row per day row, in set order."""
    return DesignMatrix(
        values=model.rows(rows.temperature, rows.pm25_window),
        column_labels=model.column_labels,
        blocks=model.blocks,
        set_index=rows.set_index,
        is_case=rows.is_case,
    )
