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
DEGENERACY_TOL are treated as zero.  A cluster is a tuple of variable
indices, and each block's top two eigenpairs are memoized per member
tuple, since splitting and reassignment revisit the same blocks.  The
cluster report is read off the fields of :class:`VariableCluster` and
:class:`VariableScore`, so each field name is also its key in
``cluster_report.json``.
"""

from __future__ import annotations

import functools
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
    """Pearson correlations of gap-free array columns.  A NaN raises
    :class:`ValidationError` naming the first column that holds one, and a
    constant column :class:`ComputationError` naming it."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise ValidationError("values must be n_rows x n_variables matching names")
    gaps = np.isnan(values).any(axis=0)
    if gaps.any():
        name = names[np.argmax(gaps)]
        raise ValidationError(f"variable {name!r} has missing values; impute first")
    for j, name in enumerate(names):
        if float(values[:, j].std()) == 0.0:
            raise ComputationError(f"zero variance in column {name!r}")
    corr = np.clip(np.atleast_2d(np.corrcoef(values, rowvar=False)), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(names=tuple(names), values=corr)


# ---------------------------------------------------------------------------
# Clustering


def _top_eigenpairs(sub: np.ndarray):
    """The top two eigenvalues (descending) and their unit eigenvectors of a symmetric matrix."""
    if not np.isfinite(sub).all():
        raise ComputationError("non-finite entries in correlation submatrix")
    try:
        w, v = np.linalg.eigh(sub)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigendecomposition failed: {exc}") from exc
    top = np.argsort(w)[::-1][:2]
    return w[top], v[:, top]


def _block_eigen(corr: np.ndarray):
    """The top two eigenpairs of the block of ``corr`` that a member index
    tuple picks, as a function of the tuple memoized per tuple."""
    return functools.cache(lambda members: _top_eigenpairs(corr[np.ix_(members, members)]))


def _pc1_correlations(corr: np.ndarray, eigen, members: tuple[int, ...]) -> np.ndarray:
    """Correlation of every variable with the first PC of the member block."""
    w, v = eigen(members)
    lam = float(w[0])
    if lam <= DEGENERACY_TOL:
        raise ComputationError("degenerate cluster: leading eigenvalue is zero")
    return (corr[:, members] @ v[:, 0]) / np.sqrt(lam)


def _second_eigenvalue(eigen, members: tuple[int, ...]) -> float:
    return float(eigen(members)[0][1]) if len(members) >= 2 else 0.0


def _split_cluster(eigen, members: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-way split along the first two principal components."""
    (lam1, lam2), v = eigen(members)
    r2_pc1 = lam1 * v[:, 0] ** 2
    r2_pc2 = lam2 * v[:, 1] ** 2
    side2 = r2_pc2 > r2_pc1
    if side2.all() or not side2.any():
        # Degenerate assignment; peel off the variable most aligned with PC2.
        side2 = np.zeros(len(members), dtype=bool)
        side2[int(np.argmax(r2_pc2 - r2_pc1))] = True
    a = tuple(m for m, s in zip(members, side2) if not s)
    b = tuple(m for m, s in zip(members, side2) if s)
    return a, b


def _reassign(corr: np.ndarray, eigen, clusters: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Move each variable to the cluster whose first PC it correlates with most; repeat until stable."""
    for _ in range(REASSIGN_CAP):
        comps = np.column_stack([_pc1_correlations(corr, eigen, c) for c in clusters]) ** 2
        assign = np.argmax(comps, axis=1)
        new_clusters = [tuple(np.flatnonzero(assign == k).tolist()) for k in np.unique(assign)]
        if new_clusters == clusters or len(new_clusters) == 1:
            return new_clusters
        clusters = new_clusters
    return clusters


def cluster_variables(corr: CorrelationMatrix, n_clusters: int) -> list[VariableCluster]:
    """Divisively split variables into n_clusters correlated clusters.

    Each round splits the cluster with the largest second eigenvalue and
    reassigns every variable to its nearest cluster, until n_clusters
    clusters exist, every cluster is a singleton, or twice as many rounds
    as variables have run.  n_clusters must be a whole number in [1,
    number of variables]; it plays the role of PROC VARCLUS's MAXCLUSTERS.
    """
    names = corr.names
    eigen = _block_eigen(corr.values)
    k = len(names)
    require_whole("n_clusters", n_clusters, 1)
    if n_clusters > k:
        raise ValidationError(f"n_clusters must be in [1, {k}], got {n_clusters}")
    clusters = [tuple(range(k))]

    def first_name(c: tuple[int, ...]) -> str:
        return min(names[i] for i in c)

    for _ in range(2 * k):  # reassignment can undo splits; bound generously
        if len(clusters) >= n_clusters:
            break
        # The clusters split k >= n_clusters variables, so one has two members.
        worst = min(
            (idx for idx, c in enumerate(clusters) if len(c) >= 2),
            key=lambda idx: (-_second_eigenvalue(eigen, clusters[idx]), first_name(clusters[idx])),
        )
        a, b = _split_cluster(eigen, clusters[worst])
        clusters = _reassign(corr.values, eigen, clusters[:worst] + [a, b] + clusters[worst + 1 :])

    return [
        VariableCluster(
            members=tuple(names[i] for i in c), second_eigenvalue=_second_eigenvalue(eigen, c)
        )
        for c in sorted(clusters, key=first_name)
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
    eigen = _block_eigen(corr.values)
    position = {name: i for i, name in enumerate(corr.names)}
    try:
        member_idx = [tuple(position[v] for v in c.members) for c in clusters]
    except KeyError as exc:
        raise ValidationError(f"no variable named {exc.args[0]!r} in correlation matrix") from None
    pc1 = [_pc1_correlations(corr.values, eigen, m) for m in member_idx]
    r2 = np.minimum(np.column_stack(pc1) ** 2, 1.0)

    scores: list[VariableScore] = []
    for k, (cluster, idx) in enumerate(zip(clusters, member_idx)):
        own = r2[idx, k]
        # idx is a tuple, so r2[idx] would index axes; r2 >= 0, so initial=0.0
        # only fills the single-cluster case, with no other column.
        nearest = np.delete(r2[idx, :], k, axis=1).max(axis=1, initial=0.0)
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
