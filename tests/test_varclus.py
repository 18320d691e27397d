import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from screenfit import varclus
from screenfit.errors import ComputationError, ValidationError
from screenfit.table import ColumnKind
from screenfit.varclus import (
    ClusterSelection,
    CorrelationMatrix,
    VariableCluster,
    VariableScore,
    cluster_variables,
    correlation_matrix_from_array,
    select_representatives,
)

from conftest import make_table


def block_data(seed, n=500, within=0.9, across=0.1, sizes=(3, 3)):
    rng = np.random.default_rng(seed)
    k = sum(sizes)
    cov = np.full((k, k), across)
    start = 0
    for s in sizes:
        cov[start : start + s, start : start + s] = within
        start += s
    np.fill_diagonal(cov, 1.0)
    return rng.standard_normal((n, k)) @ np.linalg.cholesky(cov).T


class TestCorrelationMatrix:
    def test_self_correlation_is_one(self):
        data = np.column_stack([np.array([1.0, 2.0, 5.0, 3.0])])
        corr = correlation_matrix_from_array(data, ["x"])
        assert corr.values[0, 0] == 1.0

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 3.0, 7.0])
        corr = correlation_matrix_from_array(np.column_stack([x, -x]), ["x", "neg"])
        assert corr.values[0, 1] == pytest.approx(-1.0)

    def test_hand_computed_pair(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 4.0])
        corr = correlation_matrix_from_array(np.column_stack([x, y]), ["x", "y"])
        assert corr.values[0, 1] == pytest.approx(9.0 / np.sqrt(84.0), rel=1e-10)
        assert corr.values[0, 1] == pytest.approx(0.9820, abs=5e-5)

    def test_matches_numpy_on_complete_data(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((200, 4))
        corr = correlation_matrix_from_array(data, list("abcd"))
        np.testing.assert_allclose(corr.values, np.corrcoef(data, rowvar=False), atol=1e-12)

    @pytest.mark.parametrize("column", range(3))
    def test_gap_in_any_column_is_named(self, column):
        data = np.random.default_rng(6).standard_normal((30, 3))
        data[7, column] = np.nan
        names = ["a", "b", "c"]
        with pytest.raises(
            ValidationError, match=f"^variable '{names[column]}' has missing values; impute first$"
        ):
            correlation_matrix_from_array(data, names)

    def test_constant_column_named_in_error(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ComputationError, match="const"):
            correlation_matrix_from_array(data, ["const", "x"])

    def test_table_entry_point_uses_numeric_views(self):
        t = make_table(
            {
                "flag": [0, 1, 0, 1, 1, 0],
                "cat": ["a", "b", "a", "b", "b", "a"],
                "y": [0, 1, 0, 1, 0, 1],
            },
            {
                "flag": ColumnKind.BINARY,
                "cat": ColumnKind.CATEGORICAL,
                "y": ColumnKind.BINARY,
            },
        )
        values = np.column_stack([t.numeric_view(v) for v in ("flag", "cat")])
        corr = correlation_matrix_from_array(values, ["flag", "cat"])
        # flag and the level index of cat coincide here
        assert corr.values[0, 1] == pytest.approx(1.0)


class TestClusterVariables:
    def test_exact_blocks_split_once(self):
        values = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        corr = CorrelationMatrix(names=("a", "b", "c", "d"), values=values)
        clusters = cluster_variables(corr, n_clusters=2)
        members = sorted(sorted(c.members) for c in clusters)
        assert members == [["a", "b"], ["c", "d"]]

    def test_noisy_two_block_recovery(self):
        data = block_data(seed=0)
        names = [f"v{i}" for i in range(6)]
        corr = correlation_matrix_from_array(data, names)
        clusters = cluster_variables(corr, n_clusters=2)
        members = sorted(sorted(c.members) for c in clusters)
        assert members == [["v0", "v1", "v2"], ["v3", "v4", "v5"]]
        # brute-force: every variable correlates more with its own block's
        # first principal component than with the other block's
        for block, other in (((0, 1, 2), (3, 4, 5)), ((3, 4, 5), (0, 1, 2))):
            for v in block:
                own = _pc1_corr(corr.values, list(block), v)
                away = _pc1_corr(corr.values, list(other), v)
                assert own**2 > away**2

    def test_count_driven_mode_reaches_target(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((400, 9))
        corr = correlation_matrix_from_array(data, [f"v{i}" for i in range(9)])
        clusters = cluster_variables(corr, n_clusters=6)
        assert len(clusters) == 6

    @pytest.mark.parametrize("n_clusters", [0, 4, 2.5, True])
    def test_count_must_be_whole_and_at_most_the_variables(self, n_clusters):
        corr = CorrelationMatrix(names=("a", "b", "c"), values=np.eye(3))
        with pytest.raises(ValidationError, match="n_clusters"):
            cluster_variables(corr, n_clusters=n_clusters)

    def test_partition_property(self):
        data = block_data(seed=3, sizes=(2, 2, 3))
        names = [f"v{i}" for i in range(7)]
        corr = correlation_matrix_from_array(data, names)
        clusters = cluster_variables(corr, n_clusters=3)
        seen = [v for c in clusters for v in c.members]
        assert sorted(seen) == sorted(names)

    def test_permutation_invariance(self):
        data = block_data(seed=4)
        names = [f"v{i}" for i in range(6)]
        corr = correlation_matrix_from_array(data, names)
        clusters = cluster_variables(corr, n_clusters=2)
        base = {frozenset(c.members) for c in clusters}
        base_reps = select_representatives(clusters, corr).representatives()

        perm = [3, 0, 5, 1, 4, 2]
        corr_p = correlation_matrix_from_array(data[:, perm], [names[i] for i in perm])
        clusters_p = cluster_variables(corr_p, n_clusters=2)
        permuted = {frozenset(c.members) for c in clusters_p}
        perm_reps = select_representatives(clusters_p, corr_p).representatives()
        assert base == permuted
        assert sorted(base_reps) == sorted(perm_reps)


class TestEigenMemo:
    def test_each_block_is_decomposed_once_with_unchanged_clusters(self, monkeypatch):
        data = block_data(seed=5, sizes=(3, 3, 4, 2))
        corr = correlation_matrix_from_array(data, [f"v{i}" for i in range(12)])
        original_eigenpairs = varclus._top_eigenpairs
        original_memo = varclus._block_eigen
        decompositions, memos = [], []

        def counting_eigenpairs(sub):
            decompositions.append(sub.shape[0])
            return original_eigenpairs(sub)

        def recording_memo(values):
            memos.append(original_memo(values))
            return memos[-1]

        monkeypatch.setattr(varclus, "_top_eigenpairs", counting_eigenpairs)
        monkeypatch.setattr(varclus, "_block_eigen", recording_memo)
        memoized = cluster_variables(corr, n_clusters=6)
        (memo,) = memos
        info = memo.cache_info()
        requested = info.hits + info.misses
        assert len(decompositions) == info.currsize < requested

        def unmemoized(values):
            return lambda members: varclus._top_eigenpairs(values[np.ix_(members, members)])

        decompositions.clear()
        monkeypatch.setattr(varclus, "_block_eigen", unmemoized)
        reference = cluster_variables(corr, n_clusters=6)
        assert len(decompositions) == requested
        assert memoized == reference


def _pc1_corr(R, members, v):
    sub = R[np.ix_(members, members)]
    w, vec = np.linalg.eigh(sub)
    u = vec[:, -1]
    return float(R[v, members] @ u / np.sqrt(w[-1]))


class TestSelectRepresentatives:
    def test_singleton_has_ratio_zero(self):
        corr = CorrelationMatrix(names=("a",), values=np.eye(1))
        sel = select_representatives(cluster_variables(corr, n_clusters=1), corr)
        assert sel.scores[0].r2_own == pytest.approx(1.0)
        assert sel.scores[0].ratio == 0.0
        assert sel.scores[0].representative

    def test_perfect_pair_breaks_tie_lexicographically(self):
        values = np.eye(3)
        values[0, 1] = values[1, 0] = 1.0
        corr = CorrelationMatrix(names=("b", "a", "zz"), values=values)
        clusters = cluster_variables(corr, n_clusters=2)
        sel = select_representatives(clusters, corr)
        pair_cluster = next(
            k for k, c in enumerate(sel.clusters) if set(c.members) == {"a", "b"}
        )
        rep = [s for s in sel.scores if s.cluster == pair_cluster and s.representative]
        assert rep[0].variable == "a"

    def test_ratio_formula_and_argmin_against_oracle(self):
        data = block_data(seed=8, sizes=(3, 2, 2))
        names = [f"v{i}" for i in range(7)]
        corr = correlation_matrix_from_array(data, names)
        clusters = cluster_variables(corr, n_clusters=3)
        sel = select_representatives(clusters, corr)

        idx = {n: i for i, n in enumerate(names)}
        member_idx = [[idx[v] for v in c.members] for c in clusters]
        for s in sel.scores:
            own = _pc1_corr(corr.values, member_idx[s.cluster], idx[s.variable]) ** 2
            others = [
                _pc1_corr(corr.values, member_idx[j], idx[s.variable]) ** 2
                for j in range(len(clusters))
                if j != s.cluster
            ]
            nearest = max(others) if others else 0.0
            assert s.r2_own == pytest.approx(own, abs=1e-10)
            assert s.r2_nearest == pytest.approx(nearest, abs=1e-10)
            assert s.ratio == pytest.approx((1 - own) / (1 - nearest), abs=1e-9)
        for k in range(len(clusters)):
            rows = [s for s in sel.scores if s.cluster == k]
            rep = next(s for s in rows if s.representative)
            assert all(rep.ratio <= s.ratio + 1e-12 for s in rows)

    def test_single_cluster_nearest_is_zero(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((100, 3))
        corr = correlation_matrix_from_array(data, ["a", "b", "c"])
        clusters = cluster_variables(corr, n_clusters=1)
        sel = select_representatives(clusters, corr)
        for s in sel.scores:
            assert s.r2_nearest == 0.0
            assert s.ratio == pytest.approx(1.0 - s.r2_own)

    def test_spec_ratio_arithmetic(self):
        # (1 - 0.81) / (1 - 0.04) beats (1 - 0.64) / (1 - 0.04)
        assert (1 - 0.81) / (1 - 0.04) == pytest.approx(0.198, abs=5e-4)
        assert (1 - 0.64) / (1 - 0.04) == pytest.approx(0.375)


def select_representatives_loop(clusters, corr):
    """Each variable scored in a Python loop, names looked up one by one,
    kept as a reference oracle for the array version."""
    eigen = varclus._block_eigen(corr.values)
    member_idx = [tuple(corr.names.index(v) for v in c.members) for c in clusters]
    pc1_corr = np.column_stack(
        [varclus._pc1_correlations(corr.values, eigen, m) for m in member_idx]
    ) ** 2
    scores = []
    for k, cluster in enumerate(clusters):
        rows = []
        for v in cluster.members:
            i = corr.names.index(v)
            r2_own = float(min(pc1_corr[i, k], 1.0))
            if len(clusters) == 1:
                r2_nearest = 0.0
            else:
                others = [pc1_corr[i, j] for j in range(len(clusters)) if j != k]
                r2_nearest = float(min(max(others), 1.0))
            num, den = 1.0 - r2_own, 1.0 - r2_nearest
            if num <= varclus.DEGENERACY_TOL:
                ratio = 0.0
            elif den <= varclus.DEGENERACY_TOL:
                ratio = float("inf")
            else:
                ratio = num / den
            rows.append((v, r2_own, r2_nearest, ratio))
        best = min(rows, key=lambda r: (r[3], r[0]))[0]
        for v, r2_own, r2_nearest, ratio in sorted(rows, key=lambda r: r[0]):
            scores.append(VariableScore(v, k, r2_own, r2_nearest, ratio, v == best))
    return ClusterSelection(clusters=tuple(clusters), scores=tuple(scores))


class TestSelectRepresentativesAgainstTheLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 10),
        n_clusters=st.integers(1, 6),
        copies=st.integers(0, 3),
    )
    @example(seed=35, k=5, n_clusters=2, copies=3)  # a squared PC correlation above 1
    def test_every_score_is_equal(self, seed, k, n_clusters, copies):
        """Random correlations, some columns exact multiples of the first
        (|r| = 1, so a ratio can be 0 or inf), split at random into 1-6
        clusters with members in random order."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((30, k))
        for j in range(1, min(copies, k - 1) + 1):
            data[:, j] = data[:, 0] * rng.choice([-2.0, 3.0])
        names = [f"v{i}" for i in rng.permutation(k)]
        corr = correlation_matrix_from_array(data, names)
        n_clusters = min(n_clusters, k)
        label = np.concatenate([np.arange(n_clusters), rng.integers(0, n_clusters, k - n_clusters)])
        order = rng.permutation(k)
        clusters = [
            VariableCluster(tuple(names[i] for i in order[label == c]), second_eigenvalue=0.0)
            for c in range(n_clusters)
        ]
        assert select_representatives(clusters, corr) == select_representatives_loop(clusters, corr)

    def test_unknown_member_rejected(self):
        corr = CorrelationMatrix(names=("a", "b"), values=np.eye(2))
        clusters = [VariableCluster(members=("a",), second_eigenvalue=0.0),
                    VariableCluster(members=("zz",), second_eigenvalue=0.0)]
        with pytest.raises(ValidationError, match="no variable named 'zz' in correlation matrix"):
            select_representatives(clusters, corr)
