"""Maximum-likelihood logistic regression with stepwise selection.

The design matrix carries an explicit intercept column plus one column
per term, where a term is a standardized numeric variable (z-scored with
stored training mean/std), a dummy level of a categorical variable
against its most-frequent reference level, or a raw 0/1 flag.  Fitting
is Newton / iteratively-reweighted least squares with step-halving so
the deviance never increases, a small ridge jitter on the information
matrix for rank safety, and a complete-separation warning when any
coefficient runs past +-30.

A fitted model stores only what the fit produces: coefficients,
standard errors, log-likelihood, record count and convergence facts.
The Wald chi-square, its p-value, exp(estimate), the standardized
estimate and the SBC are properties derived from those fields, so they
are computed once, only when read, and cannot disagree with the fit.

Every chi-square tail probability in the package -- the Wald and
likelihood-ratio p-values here and the screening p-values -- comes from
``chi2_sf``, a closed form built on the standard library's ``math``
module, so the package needs nothing beyond numpy.

Selection is forward with backward elimination: a candidate enters when
its single-term likelihood-ratio p-value clears p_enter AND the entry
lowers the Schwarz Bayesian criterion; in-model terms whose Wald p-value
exceeds p_stay are removed after each entry.  A final collinearity pass
drops one member of any term pair correlated beyond a cutoff, keeping
whichever member scores better on held-out decile statistics.

Entry fits only the candidates that a dual bound cannot rule out.  With
f(t) = log(1 + e^t) and its conjugate f*(a) = a log a + (1-a) log(1-a)
on (0, 1), each row obeys y*t - f(t) <= (y - a)*t + f*(a).  So for a
design D and any a in (0, 1)^n with D'(y - a) = 0, no beta has a
log-likelihood above sum f*(a).  The bound is on the true log-likelihood,
so it holds for a fit only where no probability is clamped to PROB_CLAMP
on the wrong side of its row's class: there the clamped log-likelihood
exceeds the true one.  ``_entry_bounds`` finds such an a for every
candidate, and ``stepwise_select`` fits only those a bound cannot rule out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ComputationError, ValidationError, require_number, require_string, require_whole
from .table import NUMERIC_KINDS, ColumnKind, DataTable

PROB_CLAMP = 1e-12

SEPARATION_BETA = 30.0

# IRLS stops once every coefficient moves by less than IRLS_TOL, or after
# IRLS_MAX_ITER Newton steps; IRLS_RIDGE times the identity is added to the
# information matrix so that a rank-deficient design still solves.
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
IRLS_RIDGE = 1e-8

# Stepwise entry's slack on the log-likelihood bound, the relative floor of
# the Schur complement under which a candidate has no bound, and the size of
# the bound's candidate chunks; ``_entry_bounds`` and ``stepwise_select``
# say how each is used.
ENTRY_SLACK = 1e-6
S_RELATIVE_TOL = 1e-10
BOUND_CHUNK_CELLS = 2**14

STANDARDIZED = "standardized"
DUMMY = "dummy"
FLAG = "flag"

# The encoding each column kind takes in training; a scored column must
# still be of a kind that takes its term's encoding.
_KIND_ENCODING = {
    ColumnKind.CATEGORICAL: DUMMY,
    ColumnKind.BINARY: FLAG,
    **dict.fromkeys(NUMERIC_KINDS, STANDARDIZED),
}


@dataclass(frozen=True)
class Term:
    """One design column: where it came from and how it is encoded."""

    source: str
    encoding: str
    mean: float | None = None
    std: float | None = None
    level: str | None = None
    reference: str | None = None

    def __post_init__(self):
        # A model file sets these fields: names and levels must be strings,
        # the mean and std finite numbers.
        for key, value in vars(self).items():
            if value is not None or key == "source":
                require = require_number if key in ("mean", "std") else require_string
                require(f"term field {key!r}", value)
        if self.encoding == STANDARDIZED:
            if self.std is None or self.std <= 0 or self.mean is None:
                raise ValidationError(
                    f"standardized term {self.source!r} needs a mean and a positive std"
                )
        elif self.encoding == DUMMY:
            if self.level is None or self.reference is None or self.level == self.reference:
                raise ValidationError(
                    f"dummy term {self.source!r} needs a level distinct from its reference"
                )
        elif self.encoding != FLAG:
            raise ValidationError(f"unknown term encoding {self.encoding!r}")

    @property
    def name(self) -> str:
        if self.encoding == DUMMY:
            return f"{self.source}={self.level}"
        return self.source

    def to_dict(self) -> dict:
        """The term's set fields; ``Term(**d)`` rebuilds it."""
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True)
class DesignMatrix:
    """n x (k+1) design with a leading intercept column and a 0/1 response."""

    terms: tuple[Term, ...]
    X: np.ndarray
    y: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.X.shape != (len(self.y), len(self.terms) + 1):
            raise ValidationError(
                f"design shape {self.X.shape} does not match "
                f"{len(self.y)} rows x {len(self.terms)} terms + intercept"
            )
        if not ((self.y == 0) | (self.y == 1)).all():
            raise ValidationError("response values must be 0 or 1")
        if not np.isfinite(self.X).all():
            raise ValidationError("design matrix has a non-finite cell")

    @property
    def n(self) -> int:
        return len(self.y)

    def select(self, indices: list[int]) -> "DesignMatrix":
        """Sub-design with the intercept plus the given term indices, in order.

        The sub-design's X is column-major (``X[:, cols]`` is
        F-contiguous).  The layout is part of the numerics: the matrix
        products in ``log_likelihood`` accumulate in an order that follows
        the memory layout, so a fit on a row-major copy of the same values
        can differ in the last bits.
        """
        cols = [0] + [i + 1 for i in indices]
        return DesignMatrix(
            terms=tuple(self.terms[i] for i in indices),
            X=self.X[:, cols],
            y=self.y,
        )


@dataclass(frozen=True)
class LogisticModel:
    """Fitted coefficients and the statistics derived from them.

    The fields are what the fit produces; ``wald``, ``p_values``,
    ``exp_est``, ``standardized_estimate`` and ``sbc`` are computed from
    them on first read and cached.  Arrays are aligned as [intercept,
    term_0, term_1, ...].
    """

    terms: tuple[Term, ...]
    beta: np.ndarray
    se: np.ndarray
    log_likelihood: float
    n: int
    converged: bool
    iterations: int
    warnings: tuple[str, ...] = ()
    deviance_path: tuple[float, ...] = field(default=(), repr=False)

    @cached_property
    def sbc(self) -> float:
        return sbc(self.log_likelihood, len(self.beta), self.n)

    @cached_property
    def wald(self) -> np.ndarray:
        """(beta/se)^2, or +inf where the standard error is zero."""
        se_ok = self.se > 0
        return np.where(se_ok, (self.beta / np.where(se_ok, self.se, 1.0)) ** 2, np.inf)

    @cached_property
    def p_values(self) -> np.ndarray:
        """Upper tail of chi-square(1) at the Wald statistic."""
        return np.array([chi2_sf(w, 1) for w in self.wald.tolist()])

    @cached_property
    def exp_est(self) -> np.ndarray:
        return np.exp(self.beta)

    @cached_property
    def standardized_estimate(self) -> tuple[float | None, ...]:
        """The coefficient of each standardized term; None for the intercept,
        flags and dummies, which are not on a common scale."""
        return (None,) + tuple(
            float(b) if t.encoding == STANDARDIZED else None
            for t, b in zip(self.terms, self.beta[1:])
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.beta)

    def term_names(self) -> list[str]:
        return [t.name for t in self.terms]

    def source_variables(self) -> list[str]:
        return list(dict.fromkeys(t.source for t in self.terms))


# ---------------------------------------------------------------------------
# Encoding


def encode_design(
    table: DataTable, variables: list[str], template: tuple[Term, ...] | None = None
) -> DesignMatrix:
    """Build the model design from screened, fully imputed variables.

    Training mode (no template) first learns the terms: numeric variables
    are z-scored with their training mean and population std,
    categoricals expand to dummies against the most-frequent level,
    binaries stay as 0/1 flags, and constant columns and dummies are
    dropped with a warning.  Scoring mode (template given) takes the
    template's terms.  Both modes then build every column from its term
    by :func:`_term_column`, so a table encodes the same way in training
    and in scoring.  A categorical level that has no term and is not the
    reference maps to the reference (all dummies zero) with a warning; on
    the training table every level that occurs has one or the other, so
    only a template encode looks for such levels.  A
    template term whose column is not of a kind that takes its encoding
    raises :class:`ValidationError`.
    """
    used = list(variables) if template is None else sorted({t.source for t in template})
    for v in used:
        if table.missing_mask(v).any():
            raise ValidationError(f"variable {v!r} has missing values; impute first")
    for term in template or ():
        kind = table.schema.column(term.source).kind
        if _KIND_ENCODING[kind] != term.encoding:
            raise ValidationError(
                f"column {term.source!r} is {kind.value}, but the model "
                f"encodes it as a {term.encoding} term"
            )

    warnings: list[str] = []
    terms = _learn_terms(table, variables, warnings) if template is None else tuple(template)
    references = {t.source: t.reference for t in template or () if t.encoding == DUMMY}
    for source, reference in references.items():
        known = {t.level for t in terms if t.source == source} | {reference}
        levels = table.schema.column(source).levels
        present = np.flatnonzero(np.bincount(table.codes(source), minlength=len(levels)))
        for lvl in sorted({levels[i] for i in present} - known):
            warnings.append(
                f"{source}: level {lvl!r} unseen in training; mapped to reference {reference!r}"
            )
    X = np.column_stack(
        [np.ones(table.n_records)] + [_term_column(table, term) for term in terms]
    )
    return DesignMatrix(terms=terms, X=X, y=table.target_values, warnings=tuple(warnings))


def _learn_terms(table: DataTable, variables: list[str], warnings: list[str]) -> tuple[Term, ...]:
    """The design terms of the variables with their training statistics;
    each constant column or dummy it drops adds a warning."""
    terms = []
    for v in variables:
        spec = table.schema.column(v)
        encoding = _KIND_ENCODING[spec.kind]
        if encoding == DUMMY:
            codes = table.codes(v)
            counts = dict(zip(spec.levels, np.bincount(codes, minlength=len(spec.levels))))
            reference = min(spec.levels, key=lambda lvl: (-counts[lvl], lvl))
            for lvl, count in counts.items():
                if lvl == reference:
                    continue
                # The reference is the most frequent level, so none other fills every row.
                if count == 0:
                    warnings.append(f"{v}={lvl}: constant dummy column dropped from the design")
                else:
                    terms.append(Term(source=v, encoding=DUMMY, level=lvl, reference=reference))
            continue
        values = table.numeric_view(v)
        mean, std = float(values.mean()), float(values.std())
        if std == 0.0:
            warnings.append(f"{v}: constant column dropped from the design")
        elif encoding == FLAG:
            terms.append(Term(source=v, encoding=FLAG))
        else:
            terms.append(Term(source=v, encoding=STANDARDIZED, mean=mean, std=std))
    return tuple(terms)


def _term_column(table: DataTable, term: Term) -> np.ndarray:
    """A term's design column on a table, from the term's stored statistics."""
    if term.encoding == DUMMY:
        levels = table.schema.column(term.source).levels
        code = levels.index(term.level) if term.level in levels else -1
        return (table.codes(term.source) == code).astype(float)
    values = table.numeric_view(term.source)
    if term.encoding == STANDARDIZED:
        return (values - term.mean) / term.std
    return values


# ---------------------------------------------------------------------------
# Likelihood and fitting


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no
    exp overflows; exp(-|z|) is exactly exp(-z) or exp(z) on each side."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def log_likelihood(design: DesignMatrix, beta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(logL, gradient, hessian) of the Bernoulli log-likelihood at beta.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs;
    gradient = X'(y - p) and hessian = -X'WX with W = diag(p(1-p)).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.X.shape[1],):
        raise ValidationError(
            f"beta has length {beta.shape}, design has {design.X.shape[1]} columns"
        )
    p = _sigmoid(design.X @ beta)
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    # y is 0/1, so each term is the one log that y*log(pc) + (1-y)*log(1-pc)
    # keeps; the other only added a signed zero.
    logL = float(np.sum(np.log(np.where(design.y == 1, pc, 1.0 - pc))))
    gradient = design.X.T @ (design.y - p)
    w = p * (1.0 - p)
    hessian = -(design.X.T * w) @ design.X
    return logL, gradient, hessian


def sbc(logL: float, k_params: int, n: int) -> float:
    """Schwarz Bayesian criterion, -2*logL + k*ln(n); lower is better."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return -2.0 * logL + k_params * math.log(n)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square(df) at x, for a whole number df >= 1.

    This is the regularized upper incomplete gamma Q(df/2, x/2), which for
    a whole or half-whole shape is a finite sum: with h = x/2 and a = 0
    for even df, 1/2 for odd, it is h^(a+k) e^-h / Gamma(a+k+1) over
    k = 0 .. df//2 - 1, plus erfc(sqrt(h)) for odd df.  Each term is the
    exp of its logarithm, so no factor overflows or underflows on its own.

    NaN for x < 0 or NaN, 1 at 0 and 0 at +inf.  A tail below the smallest
    normal double is returned as 0: there erfc's subnormal results are not
    monotone in x, and stepwise entry ranks candidates by this p-value.
    """
    require_whole("chi-square df", df, 1)
    if not x >= 0.0:
        return math.nan
    h = 0.5 * x
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    m, odd = divmod(df, 2)
    p = math.erfc(math.sqrt(h)) if odd else 0.0
    if m:
        a, log_h = 0.5 * odd, math.log(h)
        p = math.fsum(
            [p] + [math.exp((a + k) * log_h - h - math.lgamma(a + k + 1)) for k in range(m)]
        )
    return p if p >= sys.float_info.min else 0.0


def _with_information(hessian: np.ndarray, op, *args) -> np.ndarray:
    """``op(info, *args)`` on the ridge-jittered information matrix ``info``;
    a singular ``info`` raises ComputationError."""
    try:
        return op(-hessian + IRLS_RIDGE * np.eye(len(hessian)), *args)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"singular information matrix: {exc}") from exc


def fit_irls(design: DesignMatrix, beta0: np.ndarray | None = None) -> LogisticModel:
    """Newton/IRLS maximum-likelihood fit, from beta0 or from zero.

    Stops when the largest coefficient update falls below IRLS_TOL; halves
    the step whenever it would decrease the log-likelihood.  Standard
    errors come from the inverse of the ridge-jittered information matrix.
    On hitting IRLS_MAX_ITER, or when 40 halvings find no step that does not
    lower the log-likelihood, the model at the last accepted point is
    returned with converged=False rather than raising; the second case
    also adds a warning.
    """
    k = design.X.shape[1]
    if design.n <= k:
        raise ValidationError(
            f"need more records ({design.n}) than design columns ({k})"
        )
    if design.y.min() == design.y.max():
        raise ValidationError("response has a single class; cannot fit")

    beta = np.zeros(k) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    logL, gradient, hessian = log_likelihood(design, beta)
    deviances = [-2.0 * logL]
    warnings = []
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        delta = _with_information(hessian, np.linalg.solve, gradient)
        step = 1.0
        for _ in range(40):
            candidate = beta + step * delta
            evaluated = log_likelihood(design, candidate)
            if evaluated[0] >= logL - 1e-10:
                break
            step /= 2.0
        else:
            warnings.append(
                f"step halving found no step that does not lower the log-likelihood "
                f"at iteration {iterations}; the fit stopped unconverged"
            )
            break
        beta = candidate
        logL, gradient, hessian = evaluated
        deviances.append(-2.0 * logL)
        if float(np.max(np.abs(step * delta))) < IRLS_TOL:
            converged = True
            break

    cov = _with_information(hessian, np.linalg.inv)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    if np.any(np.abs(beta) > SEPARATION_BETA):
        warnings.append(
            "possible complete or quasi-complete separation: a coefficient "
            f"exceeds |{SEPARATION_BETA:g}|"
        )

    return LogisticModel(
        terms=design.terms,
        beta=beta,
        se=se,
        log_likelihood=logL,
        n=design.n,
        converged=converged,
        iterations=iterations,
        warnings=tuple(warnings),
        deviance_path=tuple(deviances),
    )


# ---------------------------------------------------------------------------
# Stepwise selection


@dataclass(frozen=True)
class StepwiseStep:
    action: str  # "enter" | "remove"
    term: str
    p_value: float
    sbc_after: float


@dataclass(frozen=True)
class StepwiseTrace:
    steps: tuple[StepwiseStep, ...]


def _entry_bounds(
    design: DesignMatrix, current: list[int], beta: np.ndarray, candidates: list[int]
) -> np.ndarray:
    """For each candidate j, an upper bound on the log-likelihood that a fit
    of ``design.select(current + [j])`` can reach; +inf where there is none.

    One Newton step from ``(beta, 0)`` is taken for every candidate at once.
    With B the current columns, p and w = p(1-p) at ``beta``, and
    A = B'WB: a0 = p + w*(B A^-1 B'(y - p)); a candidate column x has the
    residual r = x - B A^-1 B'(w*x), the Schur complement s = sum(w r^2)
    and the step d = r'(y - a0) / s.  The point a = a0 + d*w*r satisfies
    D'(y - a) = 0 for the candidate's design D, so where a lies in (0, 1)
    sum(a log a + (1-a) log(1-a)) is a bound (see the module docstring).
    The bound is +inf where a leaves (0, 1), where s is not positive to
    working precision (below S_RELATIVE_TOL * sum(w x^2): x is in the
    model's span up to rounding), where A is singular, and for every
    candidate when the current model clamps a probability on the wrong
    side of its row's class.  The candidate temporaries hold at most
    BOUND_CHUNK_CELLS floats, or one column where n is larger.
    """
    bounds = np.full(len(candidates), np.inf)
    B = design.X[:, [0] + [i + 1 for i in current]]
    y = design.y
    p = _sigmoid(B @ beta)
    if np.any(np.where(y == 1, p < PROB_CLAMP, p > 1.0 - PROB_CLAMP)):
        return bounds
    w = p * (1.0 - p)
    A = (B.T * w) @ B
    try:
        a0 = p + w * (B @ np.linalg.solve(A, B.T @ (y - p)))
    except np.linalg.LinAlgError:
        return bounds
    e = y - a0
    chunk = max(1, BOUND_CHUNK_CELLS // design.n)
    for lo in range(0, len(candidates), chunk):
        # One candidate per row: X[:, cols] is column-major, so its
        # transpose is row-major and every pass below runs along rows.
        Xc = design.X[:, [j + 1 for j in candidates[lo : lo + chunk]]].T
        WXc = Xc * w
        R = Xc - np.linalg.solve(A, (WXc @ B).T).T @ B.T
        s = (R * R) @ w
        ok = s > S_RELATIVE_TOL * np.einsum("ij,ij->i", Xc, WXc)
        R = R[ok]
        a = a0 + (R * w) * ((R @ e) / s[ok])[:, None]
        inside = ((a > 0.0) & (a < 1.0)).all(axis=1)
        a, b = a[inside], 1.0 - a[inside]
        dual = np.einsum("ij,ij->i", a, np.log(a)) + np.einsum("ij,ij->i", b, np.log(b))
        bounds[lo + np.flatnonzero(ok)[inside]] = dual
    return bounds


def stepwise_select(
    design: DesignMatrix,
    p_enter: float = 0.01,
    p_stay: float = 0.01,
    max_terms: int | None = None,
) -> tuple[LogisticModel, StepwiseTrace]:
    """Forward selection with backward elimination.

    Each forward step ranks the out-of-model candidates by single-term
    likelihood-ratio p-value (ties: SBC, then term name), and enters the
    best candidate only if p < p_enter and the SBC drops.  After every
    change, in-model terms with Wald p > p_stay are removed, worst first.
    Stops when a full pass changes nothing, or after 2 x (number of
    candidate terms) passes; a model stopped by that cap carries a warning.

    The ranking key falls as a candidate's fitted log-likelihood rises, so
    only a candidate that could reach the best one needs a fit.
    ``_entry_bounds`` first bounds the log-likelihood each candidate's fit
    can reach.  Candidates are fitted from the warm start ``(beta, 0)`` in
    descending order of their bounds, and the step stops once the next
    bound is below the best fitted log-likelihood minus a slack of
    ENTRY_SLACK * max(1, |logL|).  Every candidate that could win or tie
    is fitted as an exhaustive loop fits it, on ``design.select``'s
    column-major layout, so the entered term, its model and the trace are
    the same bits.

    Two guards stand in for the bound's assumption that no fitted
    probability is clamped on the wrong side of its row's class: a current
    model with such a row gives every candidate +inf, and a fitted
    candidate whose log-likelihood passes its bound by more than the slack
    makes the rest of the step fit every candidate.
    """
    if not design.terms:
        raise ValidationError("need at least one candidate term")
    steps: list[StepwiseStep] = []
    current: list[int] = []
    cur_model = fit_irls(design.select(current))
    for _ in range(2 * len(design.terms)):
        changed = False

        if max_terms is None or len(current) < max_terms:
            best = None
            warm = np.append(cur_model.beta, 0.0)
            candidates = [j for j in range(len(design.terms)) if j not in current]
            bounds = _entry_bounds(design, current, cur_model.beta, candidates)
            top, trusted = -np.inf, True
            for i in np.argsort(-bounds, kind="stable"):
                if trusted and bounds[i] < top - ENTRY_SLACK * max(1.0, abs(top)):
                    break
                j = candidates[i]
                model_j = fit_irls(design.select(current + [j]), beta0=warm)
                logL = model_j.log_likelihood
                top = max(top, logL)
                trusted = trusted and logL <= bounds[i] + ENTRY_SLACK * max(1.0, abs(logL))
                lr = max(2.0 * (logL - cur_model.log_likelihood), 0.0)
                p = chi2_sf(lr, 1)
                key = (p, model_j.sbc, design.terms[j].name)
                if best is None or key < best[0]:
                    best = (key, j, model_j, p)
            if best is not None:
                _, j, model_j, p = best
                if p < p_enter and model_j.sbc < cur_model.sbc:
                    current.append(j)
                    cur_model = model_j
                    steps.append(StepwiseStep("enter", design.terms[j].name, p, model_j.sbc))
                    changed = True

        while current:
            p_in = cur_model.p_values[1:]  # aligned with current order
            worst = int(np.argmax(p_in))
            if p_in[worst] <= p_stay:
                break
            removed = current.pop(worst)
            cur_model = fit_irls(design.select(current))
            steps.append(
                StepwiseStep(
                    "remove",
                    design.terms[removed].name,
                    float(p_in[worst]),
                    cur_model.sbc,
                )
            )
            changed = True

        if not changed:
            break
    else:
        cur_model = replace(
            cur_model,
            warnings=cur_model.warnings
            + (f"stepwise stopped at its cap of {2 * len(design.terms)} passes "
               "while the model was still changing",),
        )
    return cur_model, StepwiseTrace(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Collinearity pruning and the global-null test


def _term_indices(design: DesignMatrix, terms: tuple[Term, ...]) -> list[int]:
    position = {t.name: i for i, t in enumerate(design.terms)}
    try:
        return [position[t.name] for t in terms]
    except KeyError as exc:
        raise ValidationError(f"term {exc.args[0]!r} not present in the design") from None


def prune_collinear(
    model: LogisticModel,
    design: DesignMatrix,
    validation: DesignMatrix,
    cutoff: float = 0.40,
) -> LogisticModel:
    """Break up correlated term pairs using held-out decile performance.

    While any pair of in-model term columns has |Pearson r| > cutoff on
    the training design, refit once without each member of the worst pair
    and keep the refit with the higher first-decile cumulative captured
    response on the validation data (ties: first-decile lift, then the
    surviving term's Wald chi-square, then term name).  A refit model
    carries the incoming model's warnings, then its own, without repeats.
    """
    from .evaluation import ScoreSet, decile_table

    current = _term_indices(design, model.terms)
    cur_model = model
    while len(current) >= 2:
        cols = design.X[:, [i + 1 for i in current]]
        # Each pair is read once, above the diagonal, so a_pos < b_pos.
        corr = np.triu(np.abs(np.nan_to_num(np.corrcoef(cols, rowvar=False))), 1)
        if float(corr.max()) <= cutoff:
            break
        a_pos, b_pos = np.unravel_index(int(corr.argmax()), corr.shape)

        candidates = []
        for drop_pos, keep_pos in ((a_pos, b_pos), (b_pos, a_pos)):
            kept = [i for pos, i in enumerate(current) if pos != drop_pos]
            refit = fit_irls(design.select(kept))
            sub = validation.select(kept)
            top = decile_table(ScoreSet(p=refit.predict_proba(sub.X), y=sub.y))[0]
            survivor = design.terms[current[keep_pos]].name
            survivor_wald = float(refit.wald[1 + kept.index(current[keep_pos])])
            candidates.append(
                ((-top.cum_captured, -top.lift, -survivor_wald, survivor), kept, refit)
            )
        _, current, cur_model = min(candidates)
    if cur_model is model:
        return model
    return replace(
        cur_model, warnings=tuple(dict.fromkeys(model.warnings + cur_model.warnings))
    )


def global_null_lr(model: LogisticModel, design: DesignMatrix) -> dict:
    """Likelihood-ratio test of the fitted model against intercept-only."""
    k = len(model.terms)
    if k < 1:
        raise ValidationError("global null test needs at least one non-intercept term")
    pbar = float(design.y.mean())
    pbar = min(max(pbar, PROB_CLAMP), 1.0 - PROB_CLAMP)
    logL0 = design.n * (pbar * math.log(pbar) + (1.0 - pbar) * math.log(1.0 - pbar))
    statistic = 2.0 * (model.log_likelihood - logL0)
    return {
        "statistic": float(statistic),
        "df": k,
        # chi2_sf is NaN below 0, where the chi-square tail is 1; a fit at
        # the null can land a rounding error under logL0.
        "p_value": chi2_sf(max(statistic, 0.0), k),
    }


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: LogisticModel) -> dict:
    rows = [
        {
            "name": name,
            "term": term,
            "estimate": float(model.beta[i]),
            "std_error": float(model.se[i]),
            "wald_chi_square": float(model.wald[i]),
            "p_value": float(model.p_values[i]),
            "standardized_estimate": model.standardized_estimate[i],
            "exp_estimate": float(model.exp_est[i]),
        }
        for i, (name, term) in enumerate(
            [("Intercept", None)] + [(t.name, t.to_dict()) for t in model.terms]
        )
    ]
    return {
        "rows": rows,
        "log_likelihood": model.log_likelihood,
        "sbc": model.sbc,
        "n": model.n,
        "converged": model.converged,
        "iterations": model.iterations,
        "warnings": list(model.warnings),
    }


def model_from_dict(d: dict) -> LogisticModel:
    """Rebuild a model from the dict that ``model_to_dict`` writes.

    Only the stored fields are read: terms, estimates, standard errors,
    log-likelihood, n and the convergence facts.  The Wald chi-square,
    p-value, exp(estimate), standardized estimate and SBC columns of
    ``model.json`` are report columns; they are recomputed from the
    stored fields, not read.  The first row must be the intercept's, the
    one row without a term (no ``term`` key, or ``term: null``).
    """
    try:
        rows = d["rows"]
        if not (rows and isinstance(rows[0], dict) and rows[0].get("term") is None):
            raise ValidationError("rows must start with the intercept row, which has no term")
        for i, r in enumerate(rows):
            require_number(f"rows[{i}].estimate", r["estimate"])
            require_number(f"rows[{i}].std_error", r["std_error"])
        return LogisticModel(
            terms=tuple(Term(**r["term"]) for r in rows[1:]),
            beta=np.array([r["estimate"] for r in rows], dtype=float),
            se=np.array([r["std_error"] for r in rows], dtype=float),
            log_likelihood=d["log_likelihood"],
            n=d["n"],
            converged=d["converged"],
            iterations=d["iterations"],
            warnings=tuple(d.get("warnings", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model file: {exc}") from exc
