"""End-to-end acceptance checks, one test per shipped guarantee.

Everything here is property-based at desk scale: small instances,
exhaustive or certified verification, zero tolerated violations.
"""

from collections import Counter

import pytest

from gridlab.decomposition import (lift_power, lift_radial_to_map, td_dumps,
                                   td_loads, treewidth_exact, treewidth_upper,
                                   vertex_cover_dp)
from gridlab.embedding import (emb_dumps, emb_loads, map_graph, radial_graph,
                               union_radial_dual)
from gridlab.errors import ConstructionError
from gridlab.generators import (grid, random_canonical_map, random_graph,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import (BoundReport, CliqueWitness, SimpleGraph, gr_dumps,
                           gr_loads, power_graph, power_clique_or_bound)
from gridlab.minors import (ContractionSequence, largest_grid_minor,
                            minor_containment_exact, model_dumps, model_loads,
                            nation_grid_transfer_instance,
                            primal_dual_width_report,
                            radial_grid_to_dual_grid, sequence_dumps,
                            sequence_loads, verify_model,
                            double_radial_minor)

from oracles import (contraction_ops, power_max_degree, treewidth_brute,
                     vertex_cover_brute)


def random_map_corpus(count=100):
    """Seeded canonical maps with <= 12 nations whose radial graph fits
    the exact treewidth solver."""
    out = []
    for seed in range(40):
        for nations in range(1, 13):
            e, fl = random_canonical_map(nations, seed)
            r, _ = radial_graph(e, fl)
            if r.n <= 20:
                out.append((e, fl))
            if len(out) == count:
                return out
    raise AssertionError("corpus generation fell short")


def random_graph_corpus(count=100):
    out = []
    seed = 0
    while len(out) < count:
        n = 4 + seed % 9  # 4..12 vertices
        out.append(random_graph(n, seed, 0.35))
        seed += 1
    return out


def test_wheel_map_width_and_grid_minor():
    # tw(M) for the wheel family is exactly r^2 - 1 and the largest
    # square grid minor of M is exactly r x r
    for r in (1, 2, 3):
        e, fl = wheel_map(r)
        m = map_graph(e, fl)
        width, td = treewidth_exact(m)
        assert width == r * r - 1
        assert td.validate(m) is None
        side, model = largest_grid_minor(m)
        assert side == r
        assert verify_model(model) is None
        if r <= 2:
            # brute-force confirmation at small r
            assert minor_containment_exact(grid(r, r), m) is not None
            assert minor_containment_exact(grid(r + 1, r + 1), m) is None


def test_map_treewidth_lift_inequality():
    corpus = random_map_corpus(100)
    assert len(corpus) >= 100
    for e, fl in corpus:
        r, _ = radial_graph(e, fl)
        m = map_graph(e, fl)
        tw_r, td_r = treewidth_exact(r)
        tw_m, _ = treewidth_exact(m)
        td_m = lift_radial_to_map(td_r, e, fl)
        assert td_m.validate(m) is None
        assert tw_m + 1 <= max(e.max_degree(), 1) * (tw_r + 1)
        assert td_m.width >= tw_m


def test_power_lift_inequality():
    corpus = random_graph_corpus(100)
    for g in corpus:
        tw_g, td = treewidth_exact(g)
        for k in (2, 3):
            gk = power_graph(g, k)
            tw_gk, _ = treewidth_exact(gk)
            td_k = lift_power(td, g, k)
            assert td_k.validate(gk) is None
            assert tw_gk + 1 <= max(gk.max_degree(), 1) * (tw_g + 1)


def test_power_clique_or_bound_soundness():
    corpus = random_graph_corpus(100)
    corpus += [SimpleGraph.star(m) for m in (3, 6, 10, 15)]
    corpus += [SimpleGraph.path(n) for n in (5, 20, 60)]
    for g in corpus:
        for k in (2, 3):
            for r in (1, 2, 3):
                out = power_clique_or_bound(g, k, r)
                if isinstance(out, CliqueWitness):
                    assert len(out.vertices) >= r * r
                    assert out.verify(g) is None
                else:
                    assert isinstance(out, BoundReport)
                    want = r ** 4 if k % 2 == 0 else r ** 6
                    assert out.degree_bound == want
                    assert power_max_degree(g, k) < want


def test_radial_grid_transfer_on_nation_grids():
    # nation grid maps whose radial-dual union contracts to a k x k
    # grid, k = 2*floor(size/2) + 1; the output side is floor(k/6) - 1.
    # Sizes 12..31 exercise output sides 1 through 4.  The certified
    # t x t grid minor of the dual D gives tw(D) >= t, and the validated
    # min-fill decomposition gives tw(D) <= w_D, so t <= w_D; the dual
    # of a size-s nation grid is the s x s grid, so also t <= s.
    checked = 0
    for size in range(12, 32):
        e, fl, seq = nation_grid_transfer_instance(size)
        k = 2 * (size // 2) + 1
        t = k // 6 - 1
        model = radial_grid_to_dual_grid(seq, e, fl)
        assert verify_model(model) is None
        assert len(model.branch_sets) == t * t
        assert model.host == grid(size, size)
        w_d, td = treewidth_upper(model.host)
        assert td.validate(model.host) is None
        assert t <= w_d and t <= size
        checked += 1
    assert checked >= 10
    # wheel maps: their unions only reach tiny grids, so the transfer
    # must refuse (it needs k >= 12)
    for r in (1, 2):
        e, fl = wheel_map(r)
        host = union_radial_dual(e, fl)
        side, model = largest_grid_minor(host)
        assert side < 12
        seq = ContractionSequence(contraction_ops(model))
        with pytest.raises(ConstructionError):
            radial_grid_to_dual_grid(seq, e, fl)


def test_double_radial_minor_on_triangulations():
    checked = 0
    for n in range(4, 13):
        for seed in range(3):
            t = random_planar_triangulation(n, seed)
            model = double_radial_minor(t)
            assert verify_model(model) is None
            assert model.pattern == t.simple_graph()
            checked += 1
    assert checked >= 20


def test_primal_dual_treewidth_gap():
    checked = 0
    for n in range(4, 13):
        for seed in range(6):
            t = random_planar_triangulation(n, seed)
            rep = primal_dual_width_report(t)
            assert rep["genus"] == 0
            assert abs(rep["tw_primal"] - rep["tw_dual"]) <= 1
            checked += 1
    assert checked >= 50


def test_oracle_self_consistency():
    small = [g for g in random_graph_corpus(100) if g.n <= 9]
    small += [grid(2, 4), SimpleGraph.cycle(9), SimpleGraph.complete(6)]
    for g in small:
        width, _ = treewidth_exact(g)
        assert width == treewidth_brute(g)
    for seed in range(8):
        g = random_graph(12 + seed % 3, seed, 0.3)
        _, td = treewidth_exact(g)
        assert vertex_cover_dp(g, td)[0] == vertex_cover_brute(g)[0]
    # minor models agree with replaying their contraction sequences
    found = 0
    patterns = [SimpleGraph.path(3), SimpleGraph.cycle(4),
                SimpleGraph.complete(3), grid(2, 2)]
    for seed in range(40):
        g = random_graph(8 + seed % 4, seed, 0.4)
        for h in patterns:
            m = minor_containment_exact(h, g)
            if m is None:
                continue
            seq = ContractionSequence(contraction_ops(m))
            verts, edges, labels = seq.replay(m.host)
            assert (sorted(labels.values(), key=min)
                    == sorted(m.branch_sets.values(), key=min))
            assert len(verts) == h.n and len(edges) == h.num_edges()
            degree = Counter(v for edge in edges for v in edge)
            assert sorted(degree[v] for v in verts) \
                == sorted(h.degree(v) for v in range(h.n))
            found += 1
    assert found >= 50


def test_format_round_trips_byte_identical():
    graphs = random_graph_corpus(20) + [SimpleGraph(1), grid(3, 4)]
    for g in graphs:
        text = gr_dumps(g)
        assert gr_dumps(gr_loads(text)) == text
        if g.n <= 12:
            _, td = treewidth_exact(g)
            td_text = td_dumps(td, g.n)
            td2, n2 = td_loads(td_text)
            assert td_dumps(td2, n2) == td_text
    for seed in range(5):
        for nations in (3, 7):
            e, fl = random_canonical_map(nations, seed)
            text = emb_dumps(e, fl)
            e2, fl2 = emb_loads(text)
            assert emb_dumps(e2, fl2) == text
    m = minor_containment_exact(SimpleGraph.cycle(4), grid(3, 3))
    text = model_dumps(m)
    assert model_dumps(model_loads(text)) == text
    seq = ContractionSequence(contraction_ops(m))
    text = sequence_dumps(seq)
    assert sequence_dumps(sequence_loads(text)) == text
