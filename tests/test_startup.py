"""What each entry point loads, and the lazily resolved public API."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import linkchi

SRC = str(Path(__file__).resolve().parents[1] / "src")

CLI_CORE = {"linkchi", "linkchi.cli", "linkchi.genfun", "linkchi.special",
            "linkchi.series", "linkchi.rationals"}


def loaded_modules(code: str) -> set[str]:
    """The linkchi modules a fresh interpreter holds after running ``code``."""
    probe = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'linkchi')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import linkchi", {"linkchi"}),
        ("from linkchi import cli; cli.main(['table', '--genus', '2', '--m', '1,1', "
         "'--d', 'odd', '--t-max', '4'])", CLI_CORE),
        ("from linkchi import cli; cli.main(['homology', '--m', '1,1', '--d', '3', "
         "'--t-max', '2'])", CLI_CORE),
        ("from linkchi import cli; cli.main(['supercharacter', '--twist', 'plain', "
         "'--weight', '2', '--genus', '1'])", CLI_CORE | {"linkchi.cycleindex"}),
        ("from linkchi import cli; cli.main(['oracle', '--m', '1,1', '--d', '3', "
         "'--s', '2,0', '--t', '2'])", CLI_CORE | {"linkchi.graphs"}),
        ("from linkchi import cycleindex", CLI_CORE - {"linkchi.cli"} | {"linkchi.cycleindex"}),
    ],
    ids=["import", "table", "homology", "supercharacter", "oracle", "cycleindex"],
)
def test_entry_point_loads_only_what_it_runs(code, expected):
    assert loaded_modules(code) == expected


def test_public_names_resolve_to_their_submodule_objects():
    for name, module in linkchi._EXPORTS.items():
        assert getattr(linkchi, name) is getattr(getattr(linkchi, module), name), name


def test_public_names_keep_their_order():
    assert linkchi.__all__ == [
        "EnumerationBudget", "EulerTable", "LinkConfig", "OutOfBoundsError", "QQ",
        "SeriesError", "TruncatedSeries", "TruncationSpec", "VariableSet", "bernoulli",
        "binomial", "e_poly", "enumerate_classes", "euler_char_oracle", "euler_table",
        "f_homology", "f_homotopy_direct", "f_homotopy_graded", "f_homotopy_via_pleth",
        "f_poly", "feynman_regrade", "gamma_series", "genus0_closed", "genus0_dims",
        "genus1_closed", "genus1_dims", "mobius", "mod_envelope_supercharacter",
        "plethystic_exp", "plethystic_log", "s_poly", "specialize_colors", "totient",
        "z_colors", "z_com", "z_graph_supercharacter", "z_hedgehog_homology",
        "z_lie_cyclic", "z_tree_homology",
    ]


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from linkchi import *", namespace)
    assert set(linkchi.__all__) <= set(namespace)
    assert set(linkchi.__all__) <= set(dir(linkchi))
    assert linkchi.f_homology is linkchi.genfun.f_homology


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        linkchi.no_such_name
    with pytest.raises(AttributeError):
        linkchi._private
    assert not hasattr(linkchi, "no_such_name")
