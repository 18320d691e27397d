"""Divisive variable clustering with principal-component representatives.

Starting from one cluster holding every variable, the cluster whose
correlation submatrix has the largest second eigenvalue is split along
its first two principal components until a requested number of clusters
exists, the role MAXCLUSTERS plays in PROC VARCLUS; members go to the
component they correlate with more strongly, followed by a global
reassignment pass to the nearest cluster component.  One representative
per cluster is then chosen by the smallest (1 - R^2 own) / (1 - R^2
nearest) ratio, i.e. the member that best stands in for its own cluster
while overlapping least with the others.

Everything here works off the correlation matrix alone: the correlation
between a variable v and the first principal component of a cluster with
member correlation submatrix R, top eigenpair (lambda, u), is
(R[v, members] @ u) / sqrt(lambda).

Eigenvalues come from symmetric eigendecomposition; magnitudes below
DEGENERACY_TOL are treated as zero.  The cluster report is read off the
fields of :class:`VariableCluster` and :class:`VariableScore`, so each
field name is also its key in ``cluster_report.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError, require_whole

DEGENERACY_TOL = 1e-10

REASSIGN_CAP = 20


@dataclass(frozen=True)
class CorrelationMatrix:
    names: tuple[str, ...]
    values: np.ndarray  # symmetric, unit diagonal


@dataclass(frozen=True)
class VariableCluster:
    members: tuple[str, ...]
    second_eigenvalue: float


@dataclass(frozen=True)
class VariableScore:
    variable: str
    cluster: int
    r2_own: float
    r2_nearest: float
    ratio: float
    representative: bool


@dataclass(frozen=True)
class ClusterSelection:
    clusters: tuple[VariableCluster, ...]
    scores: tuple[VariableScore, ...]

    def representatives(self) -> list[str]:
        return [s.variable for s in self.scores if s.representative]

    def to_dict(self) -> dict:
        """The selection as ``cluster_report.json`` holds it: each cluster's
        fields plus its index, and each variable's score fields."""
        return {
            "clusters": [{"cluster": k} | vars(c) for k, c in enumerate(self.clusters)],
            "variables": [vars(s) for s in self.scores],
        }


# ---------------------------------------------------------------------------
# Correlation


def correlation_matrix_from_array(values: np.ndarray, names: list[str]) -> CorrelationMatrix:
    """Pearson correlations of array columns, pairwise-complete over NaN rows.

    With gaps, masked products give the sums over each pair's complete
    rows, entry [i, j] over the rows where both are present: with M the
    0/1 presence matrix and Z the columns shifted by one of their own
    present values and zero-filled at gaps, M'M counts the rows, Z'M and
    (Z*Z)'M give column sums and sums of squares, and Z'Z cross-products.
    The shift keeps the sums small against the deviations; on integer
    (discrete) columns every sum is exact, so a column constant on a
    pair's complete rows gets an exactly zero variance.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise ValidationError("values must be n_rows x n_variables matching names")
    k = len(names)
    for j, name in enumerate(names):
        col = values[:, j]
        finite = col[~np.isnan(col)]
        if len(finite) == 0 or float(finite.std()) == 0.0:
            raise ComputationError(f"zero variance in column {name!r}")
    gaps = np.isnan(values)
    if not gaps.any():
        corr = np.corrcoef(values, rowvar=False)
        if k == 1:
            corr = np.array([[1.0]])
    else:
        present = (~gaps).astype(float)
        shift = values[np.argmin(gaps, axis=0), np.arange(k)]
        z = np.where(gaps, 0.0, values - shift)
        count = present.T @ present
        n = np.maximum(count, 1.0)  # a pair with no complete row is rejected below
        sums = z.T @ present
        squares = (z * z).T @ present - sums * sums / n
        cross = z.T @ z - sums * sums.T / n
        bad = np.triu((count < 2) | (squares <= 0.0) | (squares.T <= 0.0), k=1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            if count[i, j] < 2:
                raise ComputationError(
                    f"columns {names[i]!r} and {names[j]!r} share < 2 complete rows"
                )
            name = names[i] if squares[i, j] <= 0.0 else names[j]
            raise ComputationError(
                f"zero variance in column {name!r} on pairwise-complete rows"
            )
        corr = cross / np.sqrt(squares * squares.T)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(names=tuple(names), values=corr)


# ---------------------------------------------------------------------------
# Clustering


def _top_eigenpairs(sub: np.ndarray, k: int = 2):
    """Leading eigenvalues (descending) and unit eigenvectors of a symmetric matrix."""
    if not np.isfinite(sub).all():
        raise ComputationError("non-finite entries in correlation submatrix")
    try:
        w, v = np.linalg.eigh(sub)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    return w[:k], v[:, :k]


class _BlockEigen:
    """The top two eigenpairs of member blocks of one correlation matrix,
    memoized per member tuple: splitting and reassignment revisit the same
    blocks many times, and the same block always gives the same pairs."""

    def __init__(self, corr: np.ndarray):
        self.corr = corr
        self._memo: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, members: list[int], k: int):
        key = tuple(members)
        if key not in self._memo:
            self._memo[key] = _top_eigenpairs(self.corr[np.ix_(members, members)], k=2)
        w, v = self._memo[key]
        return w[:k], v[:, :k]


def _pc1_correlations(eigen: _BlockEigen, members: list[int]) -> np.ndarray:
    """Correlation of every variable with the first PC of the member block."""
    w, v = eigen(members, k=1)
    lam = float(w[0])
    if lam <= DEGENERACY_TOL:
        raise ComputationError("degenerate cluster: leading eigenvalue is zero")
    return (eigen.corr[:, members] @ v[:, 0]) / np.sqrt(lam)


def _second_eigenvalue(eigen: _BlockEigen, members: list[int]) -> float:
    if len(members) < 2:
        return 0.0
    w, _ = eigen(members, k=2)
    return float(w[1])


def _split_cluster(eigen: _BlockEigen, members: list[int]) -> tuple[list[int], list[int]]:
    """Two-way split along the first two principal components."""
    w, v = eigen(members, k=2)
    lam1, lam2 = float(w[0]), float(w[1])
    r2_pc1 = lam1 * v[:, 0] ** 2
    r2_pc2 = lam2 * v[:, 1] ** 2
    side2 = r2_pc2 > r2_pc1
    if side2.all() or not side2.any():
        # Degenerate assignment; peel off the variable most aligned with PC2.
        side2 = np.zeros(len(members), dtype=bool)
        side2[int(np.argmax(r2_pc2 - r2_pc1))] = True
    a = [m for m, s in zip(members, side2) if not s]
    b = [m for m, s in zip(members, side2) if s]
    return a, b


def _reassign(eigen: _BlockEigen, clusters: list[list[int]]) -> list[list[int]]:
    """Move each variable to the cluster whose first PC it correlates with most; repeat until stable."""
    for _ in range(REASSIGN_CAP):
        comps = np.column_stack([_pc1_correlations(eigen, c) for c in clusters]) ** 2
        assign = np.argmax(comps, axis=1)
        new_clusters = [sorted(np.flatnonzero(assign == k).tolist()) for k in range(len(clusters))]
        new_clusters = [c for c in new_clusters if c]
        if new_clusters == clusters:
            break
        clusters = new_clusters
        if len(clusters) == 1:
            break
    return clusters


def _canonical(clusters: list[list[int]], names: tuple[str, ...]) -> list[list[int]]:
    return sorted(clusters, key=lambda c: min(names[i] for i in c))


def cluster_variables(corr: CorrelationMatrix, n_clusters: int) -> list[VariableCluster]:
    """Divisively split variables into n_clusters correlated clusters.

    Each round splits the cluster with the largest second eigenvalue and
    reassigns every variable to its nearest cluster, until n_clusters
    clusters exist, every cluster is a singleton, or twice as many rounds
    as variables have run.  n_clusters must be a whole number in [1,
    number of variables]; it plays the role of PROC VARCLUS's MAXCLUSTERS.
    """
    names = corr.names
    eigen = _BlockEigen(corr.values)
    k = len(names)
    require_whole("n_clusters", n_clusters, 1)
    if n_clusters > k:
        raise ValidationError(f"n_clusters must be in [1, {k}], got {n_clusters}")
    clusters: list[list[int]] = [list(range(k))]

    def pick_worst() -> int | None:
        """Index of the splittable cluster with the largest second eigenvalue."""
        candidates = [
            (-_second_eigenvalue(eigen, c), min(names[i] for i in c), idx)
            for idx, c in enumerate(clusters)
            if len(c) >= 2
        ]
        return min(candidates)[2] if candidates else None

    for _ in range(2 * k):  # reassignment can undo splits; bound generously
        if len(clusters) >= n_clusters:
            break
        worst = pick_worst()
        if worst is None:
            break
        a, b = _split_cluster(eigen, clusters[worst])
        clusters = clusters[:worst] + [a, b] + clusters[worst + 1 :]
        clusters = _reassign(eigen, clusters)

    return [
        VariableCluster(
            members=tuple(names[i] for i in c), second_eigenvalue=_second_eigenvalue(eigen, c)
        )
        for c in _canonical(clusters, names)
    ]


def select_representatives(
    clusters: list[VariableCluster], corr: CorrelationMatrix
) -> ClusterSelection:
    """Score every variable and pick each cluster's min-(1-R^2-ratio) member.

    r2_own is the squared correlation with the own cluster's first PC,
    r2_nearest the best squared correlation with any other cluster's
    first PC (0 when there is only one cluster), and the ratio is
    (1 - r2_own) / (1 - r2_nearest).  Ties break on the variable name.  A
    cluster whose leading eigenvalue is zero raises
    :class:`ComputationError`.
    """
    if not clusters:
        raise ValidationError("need at least one cluster")
    eigen = _BlockEigen(corr.values)
    position = {name: i for i, name in enumerate(corr.names)}
    try:
        member_idx = [[position[v] for v in c.members] for c in clusters]
    except KeyError as exc:
        raise ValidationError(f"no variable named {exc.args[0]!r} in correlation matrix") from None
    r2 = np.minimum(np.column_stack([_pc1_correlations(eigen, m) for m in member_idx]) ** 2, 1.0)

    scores: list[VariableScore] = []
    for k, (cluster, idx) in enumerate(zip(clusters, member_idx)):
        own = r2[idx, k]
        # r2 >= 0, so initial=0.0 only fills the single-cluster case, with no other column.
        nearest = np.delete(r2[idx], k, axis=1).max(axis=1, initial=0.0)
        num, den = 1.0 - own, 1.0 - nearest
        ratio = np.where(
            num <= DEGENERACY_TOL,
            0.0,
            np.where(den <= DEGENERACY_TOL, np.inf, num / np.maximum(den, DEGENERACY_TOL)),
        )
        rows = zip(cluster.members, own.tolist(), nearest.tolist(), ratio.tolist())
        rows = sorted(rows, key=lambda r: r[0])
        best = min(rows, key=lambda r: (r[3], r[0]))[0]
        scores += [
            VariableScore(v, k, r2_own, r2_nearest, ratio_v, representative=(v == best))
            for v, r2_own, r2_nearest, ratio_v in rows
        ]
    return ClusterSelection(clusters=tuple(clusters), scores=tuple(scores))
