"""Byte-for-byte CLI outputs, recorded before the double-sum engine merge
(table, supercharacter, homology), before orderly generation in the
graph oracle (oracle), before the fraction-free series kernel (the t=30
tables) and before the fraction-free linear sums (the t=24 tables),
library series recorded before the z-graded genus-0/1 series
became regradings of their Euler forms (series-*), the graph and
envelope supercharacters recorded before the double sum paired its
final products directly (series-zgraph-*, series-envelope-*), and the default
``verify`` report recorded before series results were kept as integer
numerators until read (verify-default.txt).

Each CLI case runs ``linkchi`` in-process with ``--output`` and compares
the written bytes with ``tests/golden/<name>``; each series case compares
the variables, the truncation spec and the canonical text of one series.
To record the files again (only after a deliberate change of output), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import pytest

from linkchi import cli
from linkchi.cycleindex import (
    mod_envelope_supercharacter_direct,
    z_graph_supercharacter,
    z_hedgehog_homology,
    z_tree_homology,
)
from linkchi.genfun import (
    LinkConfig,
    f_homotopy_direct,
    f_homotopy_graded,
    genus0_dims,
    genus1_dims,
)

GOLDEN = Path(__file__).parent / "golden"

_PARITIES = {
    "odd-odd": ("1,1", "3"),
    "odd-even": ("1,1", "4"),
    "even-odd": ("2,2", "5"),
    "even-even": ("2,2", "4"),
}

CASES = {
    f"table-{parity}-g{genus}.{fmt}": [
        "table", "--genus", str(genus), "--m", m, "--d", d,
        "--t-max", "8", "--format", fmt,
    ]
    for parity, (m, d) in _PARITIES.items()
    for genus in range(3)
    for fmt in ("text", "csv", "json")
}
# rows 24-30 go past the published grids; `verify --only tables,tables-second-route
# --t-max 30` confirms them by both routes
CASES.update({
    f"table-odd-odd-g{genus}-t30.csv": [
        "table", "--genus", str(genus), "--m", "1,1", "--d", "odd",
        "--t-max", "30", "--format", "csv",
    ]
    for genus in range(4)
})
# the other three parities past t=8, recorded before integer numerators were
# summed over one denominator in the double sum
CASES.update({
    f"table-{parity}-g{genus}-t24.csv": [
        "table", "--genus", str(genus), "--m", m, "--d", d,
        "--t-max", "24", "--format", "csv",
    ]
    for parity, (m, d) in {
        "odd-even": ("1,1", "even"),
        "even-odd": ("2,2", "odd"),
        "even-even": ("2,2", "even"),
    }.items()
    for genus in range(4)
})
CASES.update({
    f"supercharacter-{twist}-w6-g4.txt": [
        "supercharacter", "--twist", twist, "--weight", "6", "--genus", "4",
    ]
    for twist in ("plain", "det")
})
CASES["homology-m1,1-d3-t5.csv"] = [
    "homology", "--m", "1,1", "--d", "3", "--t-max", "5", "--format", "csv",
]
CASES.update({
    f"oracle-{parity}-s{s}-t{t}.json": [
        "oracle", "--m", _PARITIES[parity][0], "--d", _PARITIES[parity][1],
        "--s", s, "--t", t,
    ]
    for parity, s, t in (("odd-odd", "2,1", "4"), ("even-even", "1,0", "3"), ("odd-even", "1,1", "3"))
})

SERIES_CASES = {
    f"series-genus{g}-dims-m{m[0]},{m[1]}-d{d}-t6.txt": partial(fn, LinkConfig.create(m, d), 6)
    for g, fn in ((0, genus0_dims), (1, genus1_dims))
    for m in ((1, 1), (2, 2), (1, 2))
    for d in (4, 5, 6, 7)
}
SERIES_CASES.update({
    f"series-{name}-homology-d{d}-w8.txt": partial(fn, d, 8)
    for name, fn in (("tree", z_tree_homology), ("hedgehog", z_hedgehog_homology))
    for d in range(2, 8)
})
SERIES_CASES.update({
    f"series-graded-{parity}-t8.txt": partial(
        lambda cfg: f_homotopy_graded(f_homotopy_direct(cfg, 8)),
        LinkConfig.create((int(m[0]),) * 2, int(d)),
    )
    for parity, (m, d) in _PARITIES.items()
})
SERIES_CASES.update({
    f"series-zgraph-{parity}-w8-t8.txt": partial(z_graph_supercharacter, parity, 8, 8)
    for parity in ("odd", "even")
})
SERIES_CASES.update({
    f"series-envelope-{twist}-w8-g6.txt": partial(mod_envelope_supercharacter_direct, twist, 8, 6)
    for twist in ("plain", "det")
})


def _series_text(series) -> bytes:
    return (
        f"# vars: {','.join(series.vars.names)}\n# spec: {series.spec}\n"
        f"{series.to_text()}\n"
    ).encode()


def _render(argv, target: Path) -> bytes:
    code = cli.main(argv + ["--output", str(target)])
    if code != 0:
        raise RuntimeError(f"linkchi {' '.join(argv)} exited {code}")
    return target.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert _render(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_golden_series(name):
    assert _series_text(SERIES_CASES[name]()) == (GOLDEN / name).read_bytes()


def test_golden_verify_report(tmp_path):
    want = (GOLDEN / "verify-default.txt").read_bytes()
    assert _render(["verify"], tmp_path / "verify.txt") == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _render(argv, GOLDEN / name)
    for name, build in SERIES_CASES.items():
        (GOLDEN / name).write_bytes(_series_text(build()))
    _render(["verify"], GOLDEN / "verify-default.txt")
