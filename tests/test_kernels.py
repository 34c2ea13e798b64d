import random

import pytest

from chordspec import _sweep_py, kernels
from chordspec.chords import find_chorded_cycle, find_k_chords_at_apex
from chordspec.graphs import graph_from_mask
from oracles import oracle_q

IMPLEMENTATIONS = kernels.implementations()


@pytest.fixture
def compiled():
    return pytest.importorskip("chordspec._sweep", reason="extension not built")


def test_compiled_extension_is_active_by_default(compiled):
    assert kernels.IS_COMPILED
    labels = [name for name, _ in kernels.implementations()]
    assert labels[0] == "compiled" and "python" in labels


@pytest.mark.parametrize("n", (4, 5, 6))
def test_sweep_implementations_agree(compiled, n):
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    for floor in (3.0, 5.5, 7.2):
        got_c = compiled.sweep_range(n, 0, total, floor)
        got_py = _sweep_py.sweep_range(n, 0, total, floor)
        assert got_c[0] == got_py[0]
        assert got_c[1] == got_py[1]


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sweep_soundness_never_drops_high_q(impl):
    # every no-isolated graph with q >= floor must be among the survivors
    n = 5
    total = 1 << 10
    floor = 6.0
    _, survivors = impl.sweep_range(n, 0, total, floor)
    surv = set(survivors)
    for mask in range(total):
        g = graph_from_mask(n, mask)
        if g.min_degree == 0:
            continue
        if oracle_q(g) >= floor:
            assert mask in surv, mask


def test_apex_kernel_matches_searcher_exhaustively(compiled):
    for n in (4, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            want = find_k_chords_at_apex(graph_from_mask(n, mask), 3) is not None
            assert compiled.apex_has_config(n, mask, 3) == want
            assert _sweep_py.apex_has_config(n, mask, 3) == want


def test_apex_kernel_matches_searcher_random_n7(compiled):
    rng = random.Random(55)
    for _ in range(3000):
        mask = rng.randrange(1 << 21)
        g = graph_from_mask(7, mask)
        want = find_k_chords_at_apex(g, 3) is not None
        assert compiled.apex_has_config(7, mask, 3) == want


def test_chorded_kernel_matches_searcher(compiled):
    rng = random.Random(56)
    for _ in range(1500):
        n = rng.randint(4, 8)
        mask = rng.randrange(1 << (n * (n - 1) // 2))
        g = graph_from_mask(n, mask)
        for m in (2, 3, 4):
            want = find_chorded_cycle(g, m) is not None
            assert compiled.chorded_has(n, mask, m) == want, (n, mask, m)


def test_kernel_guards(compiled):
    with pytest.raises(ValueError):
        compiled.sweep_range(12, 0, 1, 5.0)
    with pytest.raises(ValueError):
        compiled.apex_has_config(12, 0, 3)
