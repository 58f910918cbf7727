"""Monotonicity profiles, blow-up classification, stratification, frequency.

The quantities implemented here drive the quantitative free-boundary
diagnostics:

* the scaled energy
  ``W(r) = r^-(n+2) int_{B_r} (|grad u|^2 + 2u) - 2 r^-(n+3) int_{dB_r} u^2``,
  nondecreasing in r and constant (= ``c_n``) on the quadratic profiles;
* the scaled sphere distance
  ``M(r, u, p) = r^-(n+3) int_{dB_r} (u - p)^2`` to a quadratic profile p,
  nondecreasing in r at singular points;
* the blow-up rescaling ``u(x0 + r x) / r^2`` on a fixed unit-ball grid;
* a classifier fitting the half-space model ``(1/2)[(e.x)_+]^2`` against
  the quadratic model ``(1/2)<Ax, x>`` (A PSD, unit trace) on the rescaled
  field, with stratum = kernel dimension of the fitted matrix;
* a log-log slope estimator for the decay exponent of the sphere norms of
  ``w = u - p``, whose homogeneity ``lambda*`` controls how fast u settles
  onto its quadratic profile (``2 + alpha = lambda*``).

Profile fields for the quadratures are formed nodally (e.g. ``u - p`` is
subtracted at nodes before squaring and interpolating), so exact fixtures
produce exact zeros rather than interpolation residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freeboundary import FreeBoundarySet
from .fixtures import DEFAULT_EIGEN_TOL, QuadraticForm
from .grid import (
    DEFAULT_ANGULAR_SAMPLES,
    BallSpec,
    GridError,
    GridSpec,
    ResolutionError,
    ScalarField,
    ball_integral,
    centered_box,
    gradient,
    interpolate_many,
    require_ball_in_box,
    require_radii,
    sphere_integral,
)

# Weiss constant per dimension: W(r, p) for any unit-trace PSD quadratic p.
# c_3 frozen from a one-off grid-quadrature calibration (h = 0.01, 96
# angular samples; see calibrate_weiss_constant), uncertainty ~5e-4.
C3_CALIBRATED = 0.4188028051347664
C3_CALIBRATION_TOL = 5e-4
WEISS_CONSTANTS = {1: 1.0 / 3.0, 2: math.pi / 8.0, 3: C3_CALIBRATED}

# Nodes per axis of the fixed [-1, 1]^n grid that blow-ups are sampled on,
# and the number of start directions of the half-space fit.
REF_NODES = 33
DIRECTION_STARTS = 64
DEGENERACY_FLOOR_FACTOR = 100.0

NONDECREASING = "nondecreasing"
VIOLATED = "violated"

REGULAR = "regular"
SINGULAR = "singular"
UNDETERMINED = "undetermined"


def weiss_constant(dimension: int) -> float:
    """The constant value of W on quadratic blow-up profiles."""
    return WEISS_CONSTANTS[dimension]


def calibrate_weiss_constant(dimension: int, nodes: int = 121, angular_samples: int = 48) -> float:
    """Re-derive c_n by grid quadrature of W(1, |x|^2 / (2n)).

    Used once at build time to freeze ``C3_CALIBRATED``; kept callable so a
    test can confirm the frozen value within its stored tolerance.
    """
    grid = centered_box(dimension, 1.1, nodes)
    from .fixtures import polynomial

    field = polynomial(QuadraticForm.isotropic(dimension)).sample(grid)
    return weiss_energy(field, (0.0,) * dimension, 1.0, angular_samples=angular_samples)


def default_profile_delta(dimension: int, h: float, r_min: float) -> float:
    """Monotonicity tolerance max(0.02 c_n, 5 (h / r_min) c_n)."""
    cn = weiss_constant(dimension)
    return max(0.02 * cn, 5.0 * (h / r_min) * cn)


@dataclass(frozen=True)
class Profile:
    """Sampled r -> value series with a monotonicity verdict."""

    radii: np.ndarray
    values: np.ndarray
    delta: float
    verdict: str  # NONDECREASING | VIOLATED
    violation_radius: float | None = None
    violation_amount: float | None = None
    advisory: bool = False

    @property
    def nondecreasing(self) -> bool:
        return self.verdict == NONDECREASING


def _profile(grid: GridSpec, radii, values, delta, advisory: bool = False) -> Profile:
    """The series with its verdict: Violated when a step drops by more than
    delta (None: ``default_profile_delta`` at the smallest radius)."""
    if delta is None:
        delta = default_profile_delta(grid.dimension, grid.h, radii[0])
    drops = values[:-1] - values[1:]
    if len(drops) == 0 or drops.max() <= delta:
        return Profile(radii, values, float(delta), NONDECREASING, advisory=advisory)
    k = int(np.argmax(drops))
    at, amount = float(radii[k + 1]), float(drops[k])
    return Profile(radii, values, float(delta), VIOLATED, at, amount, advisory)


class WeissEvaluator:
    """Precomputes the |grad u|^2 + 2u and u^2 integrand fields so that W
    can be evaluated cheaply at many (x0, r) pairs of the same field."""

    def __init__(self, field: ScalarField, angular_samples: int = DEFAULT_ANGULAR_SAMPLES):
        field.require_finite("weiss input")
        self.field = field
        self.angular_samples = angular_samples
        grads = gradient(field)
        grad_sq = sum(g.values * g.values for g in grads)
        self.bulk = ScalarField(field.grid, grad_sq + 2.0 * field.values)
        self.surface = ScalarField(field.grid, field.values * field.values)

    def __call__(self, x0, r: float) -> float:
        grid = self.field.grid
        n = grid.dimension
        ball = BallSpec(tuple(x0), float(r))
        bulk = ball_integral(self.bulk, ball) / r ** (n + 2)
        surf = sphere_integral(self.surface, ball, self.angular_samples) / r ** (n + 3)
        return bulk - 2.0 * surf


def weiss_energy(
    field: ScalarField, x0, r: float, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> float:
    """W(r, u) centered at x0."""
    return WeissEvaluator(field, angular_samples)(x0, r)


def weiss_profile(
    field: ScalarField,
    x0,
    radii,
    delta: float | None = None,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
    _evaluator: WeissEvaluator | None = None,
) -> Profile:
    """W across radii with a NonDecreasing/Violated verdict."""
    grid = field.grid
    radii = require_radii(grid, radii)
    ev = _evaluator if _evaluator is not None else WeissEvaluator(field, angular_samples)
    values = np.array([ev(x0, r) for r in radii])
    return _profile(grid, radii, values, delta)


def _sphere_series(
    field: ScalarField, x0, form: QuadraticForm, radii, angular_samples: int
) -> list[float]:
    """int_{dB_r(x0)} (u - p(. - x0))^2 for each r in ``radii``, with
    ``(u - p)^2`` formed nodally once."""
    form.require_blowup_form()
    field.require_finite("sphere-series input")
    grid = field.grid
    pts = grid.node_positions() - np.asarray(x0, dtype=float)[None, :]
    w = field.values - form.evaluate(pts).reshape(grid.shape)
    wsq = ScalarField(grid, w * w)
    return [sphere_integral(wsq, BallSpec(tuple(x0), float(r)), angular_samples) for r in radii]


def monneau(
    field: ScalarField,
    x0,
    form: QuadraticForm,
    r: float,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
) -> float:
    """M(r, u, p) = r^-(n+3) int_{dB_r} (u - p)^2 with u translated to x0."""
    (integral,) = _sphere_series(field, x0, form, [r], angular_samples)
    return integral / r ** (field.grid.dimension + 3)


def monneau_profile(
    field: ScalarField,
    x0,
    form: QuadraticForm,
    radii,
    delta: float | None = None,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
    at_singular_point: bool = False,
) -> Profile:
    """M across radii. The monotonicity statement assumes x0 is singular;
    at unclassified points the verdict is attached as advisory only."""
    grid = field.grid
    radii = require_radii(grid, radii)
    series = _sphere_series(field, x0, form, radii, angular_samples)
    n = grid.dimension
    values = np.array([s / r ** (n + 3) for s, r in zip(series, radii)])
    return _profile(grid, radii, values, delta, advisory=not at_singular_point)


def rescale_blowup(field: ScalarField, x0, r: float) -> ScalarField:
    """u_{x0,r}(x) = u(x0 + r x) / r^2 on a fixed grid over [-1, 1]^n,
    NaN outside the closed unit ball."""
    field.require_finite("blow-up input")
    grid = field.grid
    if r < 8.0 * grid.h:
        raise ResolutionError(f"blow-up radius {r} < 8h = {8 * grid.h}")
    require_ball_in_box(grid, BallSpec(tuple(x0), float(r)))
    ref_grid = centered_box(grid.dimension, 1.0, REF_NODES)
    pts = ref_grid.node_positions()
    inside = np.linalg.norm(pts, axis=1) <= 1.0
    values = np.full(len(pts), np.nan)
    target = np.asarray(x0, dtype=float)[None, :] + r * pts[inside]
    values[inside] = interpolate_many(field, target) / (r * r)
    return ScalarField(ref_grid, values.reshape(ref_grid.shape))


@dataclass(frozen=True)
class ClassifierConfig:
    """Classifier settings; ``angular_samples`` also sets the sphere
    quadrature of the Weiss, Monneau and frequency diagnostics."""

    blowup_radius: float | None = None  # None -> smallest reliable, 8h
    eigen_tol: float = DEFAULT_EIGEN_TOL
    residual_margin: float = 0.05
    weiss_margin: float = 0.1
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES


@dataclass(frozen=True)
class Classification:
    point: tuple[float, ...]
    verdict: str  # REGULAR | SINGULAR | UNDETERMINED
    weiss_value: float | None
    blowup_radius: float | None
    fit_residual: float | None = None
    direction: tuple[float, ...] | None = None  # regular: unit normal of the blow-up
    form: QuadraticForm | None = None  # singular: fitted blow-up matrix
    stratum: int | None = None  # singular: kernel dimension of the matrix
    reason: str | None = None  # undetermined: why


def _unit_directions(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    # Fibonacci sphere
    k = np.arange(count) + 0.5
    phi = np.pi * (1.0 + math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / count
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    if len(angles) == 1:
        return np.array([math.cos(angles[0]), math.sin(angles[0])])
    t, p = angles
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _golden_minimize(fn, lo: float, hi: float, iterations: int = 40) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _fit_regular(points: np.ndarray, values: np.ndarray, starts: int):
    """Least-squares direction for the half-space model via multi-start
    search plus golden-section refinement of the direction's angles: one
    pass in 2D, three passes alternating between polar and azimuthal angle
    in 3D, each pass searching a quarter of the previous window."""
    n = points.shape[1]

    def residual(e: np.ndarray) -> float:
        model = 0.5 * np.square(np.maximum(points @ e, 0.0))
        return float(np.linalg.norm(values - model))

    candidates = _unit_directions(n, starts)
    scores = [residual(e) for e in candidates]
    best = int(np.argmin(scores))
    e_best = candidates[best]
    if n == 1:
        return e_best, residual(e_best)
    azimuth = math.atan2(e_best[1], e_best[0])
    if n == 2:
        angles = np.array([azimuth])
        half = 2.0 * math.pi / starts
    else:
        angles = np.array([math.acos(np.clip(e_best[2], -1.0, 1.0)), azimuth])
        half = math.pi * 2.0 / math.sqrt(starts)
    for _ in range(1 if n == 2 else 3):
        for k in range(len(angles)):
            trial = angles.copy()

            def along(t: float) -> float:
                trial[k] = t
                return residual(_angles_to_unit(trial))

            angles[k] = _golden_minimize(along, angles[k] - half, angles[k] + half)
        half /= 4.0
    e = _angles_to_unit(angles)
    return e, residual(e)


def _fit_singular(points: np.ndarray, values: np.ndarray):
    """Linear least squares for the symmetric matrix of (1/2)<Ax, x>,
    then projection onto the unit-trace PSD cone; the returned residual is
    measured after projection."""
    n = points.shape[1]
    columns = [0.5 * points[:, a] ** 2 for a in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    columns += [points[:, a] * points[:, b] for a, b in pairs]
    design = np.stack(columns, axis=-1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    matrix = np.zeros((n, n))
    for a in range(n):
        matrix[a, a] = coef[a]
    for k, (a, b) in enumerate(pairs):
        matrix[a, b] = matrix[b, a] = coef[n + k]
    form = QuadraticForm.from_matrix(matrix).project_to_blowup_form()
    model = form.evaluate(points)
    return form, float(np.linalg.norm(values - model))


def classify_point(
    field: ScalarField,
    x0,
    config: ClassifierConfig = ClassifierConfig(),
    _weiss: WeissEvaluator | None = None,
) -> Classification:
    """Regular/singular/undetermined verdict for a free-boundary point.

    Fits both blow-up models to the rescaled field at the smallest
    reliable radius; the lower normalized residual wins, with the Weiss
    value (near c_n/2 for half-space profiles, near c_n for quadratic
    ones) breaking near-ties, and an honest Undetermined verdict when
    both signals sit in the margin bands.
    """
    grid = field.grid
    x0 = tuple(float(c) for c in x0)
    r = config.blowup_radius if config.blowup_radius is not None else 8.0 * grid.h
    try:
        rescaled = rescale_blowup(field, x0, r)
    except (ResolutionError, GridError) as exc:
        return Classification(
            point=x0,
            verdict=UNDETERMINED,
            weiss_value=None,
            blowup_radius=None,
            reason=f"blow-up unavailable: {exc}",
        )
    ref_points = rescaled.grid.node_positions()
    flat = rescaled.values.ravel()
    inside = np.isfinite(flat)
    points = ref_points[inside]
    values = flat[inside]
    scale = float(np.linalg.norm(values))
    if scale <= 0.0:
        return Classification(
            point=x0,
            verdict=UNDETERMINED,
            weiss_value=None,
            blowup_radius=r,
            reason="rescaled field vanishes identically",
        )

    direction, reg_residual = _fit_regular(points, values, DIRECTION_STARTS)
    form, sing_residual = _fit_singular(points, values)
    reg_residual /= scale
    sing_residual /= scale

    try:
        ev = _weiss if _weiss is not None else WeissEvaluator(field, config.angular_samples)
        weiss_value = ev(x0, r)
    except (ResolutionError, GridError):
        weiss_value = None

    margin = config.residual_margin
    if abs(reg_residual - sing_residual) >= margin:
        regular_wins = reg_residual < sing_residual
    else:
        # near-tie: consult the Weiss value against the midpoint 3 c_n / 4
        cn = weiss_constant(grid.dimension)
        midpoint = 0.75 * cn
        if weiss_value is None or abs(weiss_value - midpoint) < config.weiss_margin * cn:
            return Classification(
                point=x0,
                verdict=UNDETERMINED,
                weiss_value=weiss_value,
                blowup_radius=r,
                fit_residual=float(min(reg_residual, sing_residual)),
                reason=(
                    f"fit residuals within margin ({reg_residual:.3g} vs {sing_residual:.3g}) "
                    "and Weiss value inconclusive"
                ),
            )
        regular_wins = weiss_value < midpoint

    if regular_wins:
        return Classification(
            point=x0,
            verdict=REGULAR,
            weiss_value=weiss_value,
            blowup_radius=r,
            fit_residual=float(reg_residual),
            direction=tuple(float(c) for c in direction),
        )
    return Classification(
        point=x0,
        verdict=SINGULAR,
        weiss_value=weiss_value,
        blowup_radius=r,
        fit_residual=float(sing_residual),
        form=form,
        stratum=form.kernel_dimension(config.eigen_tol),
    )


def stratify(
    field: ScalarField,
    fb: FreeBoundarySet,
    config: ClassifierConfig = ClassifierConfig(),
) -> tuple[list[Classification], dict]:
    """Classify every free-boundary point and tally the census.

    Per-point failures become Undetermined entries (partial results are
    allowed); the census is a deterministic reduction independent of
    evaluation order.
    """
    points = [tuple(float(c) for c in p) for p in fb.points]
    weiss_cache = WeissEvaluator(field, config.angular_samples)
    results = [classify_point(field, p, config, _weiss=weiss_cache) for p in points]
    return results, census(results)


def census(classifications: list[Classification]) -> dict:
    out = {"total": len(classifications), "regular": 0, "singular": 0, "undetermined": 0}
    strata: dict[str, int] = {}
    for c in classifications:
        if c.verdict == REGULAR:
            out["regular"] += 1
        elif c.verdict == SINGULAR:
            out["singular"] += 1
            key = str(c.stratum)
            strata[key] = strata.get(key, 0) + 1
        else:
            out["undetermined"] += 1
    out["singular_by_stratum"] = dict(sorted(strata.items()))
    return out


@dataclass(frozen=True)
class FrequencyEstimate:
    lambda_star: float | None
    r_squared: float | None
    radii: np.ndarray
    defined: bool
    sphere_norms: np.ndarray


def frequency_lambda(
    field: ScalarField,
    x0,
    form: QuadraticForm,
    radii,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
) -> FrequencyEstimate:
    """Decay exponent of N(r) = (r^(1-n) int_{dB_r} w^2)^(1/2), w = u - p.

    Least-squares slope of log N against log r; undefined (not an error)
    when any sphere norm sits at the degeneracy floor, which is the w == 0
    case up to roundoff.
    """
    grid = field.grid
    radii = require_radii(grid, radii)
    series = _sphere_series(field, x0, form, radii, angular_samples)
    n = grid.dimension
    norms = np.array(
        [math.sqrt(max(s * float(r) ** (1 - n), 0.0)) for s, r in zip(series, radii)]
    )
    scale = float(np.abs(field.values).max())
    floor = DEGENERACY_FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0)
    if (norms <= floor).any():
        return FrequencyEstimate(
            lambda_star=None, r_squared=None, radii=radii, defined=False, sphere_norms=norms
        )
    logs_r = np.log(radii)
    logs_n = np.log(norms)
    design = np.stack([logs_r, np.ones_like(logs_r)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, logs_n, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((logs_n - fitted) ** 2))
    ss_tot = float(np.sum((logs_n - logs_n.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FrequencyEstimate(
        lambda_star=float(coef[0]),
        r_squared=r_squared,
        radii=radii,
        defined=True,
        sphere_norms=norms,
    )


def probe_forms(dimension: int, seed: int = 0, random_count: int = 2) -> list[QuadraticForm]:
    """The fixed probe set: identity/n, rank-one in the first two axes,
    and seeded random unit-trace PSD forms (n = 1 collapses to [[1]])."""
    if dimension == 1:
        return [QuadraticForm.isotropic(1)]
    forms = [QuadraticForm.isotropic(dimension)]
    for axis in range(min(2, dimension)):
        diag = np.zeros(dimension)
        diag[axis] = 1.0
        forms.append(QuadraticForm.diagonal(diag))
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        g = rng.standard_normal((dimension, dimension))
        s = g.T @ g
        forms.append(QuadraticForm.from_matrix(s / np.trace(s)))
    return forms


def contact_strip_halfwidth(
    contact_mask: np.ndarray,
    grid: GridSpec,
    x0,
    form: QuadraticForm,
    r: float,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
) -> float | None:
    """Empirical strip half-width of the contact set near a singular point.

    Max distance (relative to r) of contact nodes in B_r(x0) from the kernel
    of the fitted blow-up matrix, cut at ``eigen_tol`` as the stratum is; no
    decay rate in r is asserted. None when no contact node lies in the ball.
    """
    pts = grid.node_positions()[contact_mask.ravel()] - np.asarray(x0, dtype=float)[None, :]
    dist = np.linalg.norm(pts, axis=1)
    pts = pts[dist <= r]
    if len(pts) == 0:
        return None
    eigvals, eigvecs = np.linalg.eigh(form.matrix)
    positive = eigvals >= eigen_tol
    if not positive.any():
        return 0.0
    basis = eigvecs[:, positive]  # directions transverse to the kernel
    component = pts @ basis
    return float(np.max(np.linalg.norm(component, axis=1)) / r)
