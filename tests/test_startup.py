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


# Public functions that no route or command runs, each with the reason it stays.
UNCALLED_PUBLIC = {
    "cycleindex.z_colors": "one side of the planned Hall-pairing route (ROADMAP item 13)",
    "rationals.qq_str": "verify's failure messages; runs only when a check fails",
}

# Run in a fresh interpreter with the source directory as its argument:
# verify at a small truncation, then one small run of every other command,
# then print the public functions that never ran.  Functions behind an
# lru_cache are read through __wrapped__.
CALL_TRACE = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import linkchi
from linkchi import cli, verify

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


runs = [
    ["homology", "--m", "1,1", "--d", "3", "--t-max", "2"],
    ["table", "--genus", "1", "--m", "1,1", "--d", "odd", "--t-max", "4"],
    ["supercharacter", "--twist", "plain", "--weight", "3", "--genus", "1",
     "--feynman-regrade"],
    ["oracle", "--m", "1,1", "--d", "3", "--s", "2,0", "--t", "2"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.setprofile(profile)
    verify.run_checks(t_max=3)
    for argv in runs:
        cli.main(argv)
    sys.setprofile(None)

public = {f"{module}.{name}" for name, module in linkchi._EXPORTS.items()}
for info in pkgutil.iter_modules(linkchi.__path__):
    if not info.name.startswith("_"):  # __main__ would run the CLI
        module = importlib.import_module(f"linkchi.{info.name}")
        public |= {f"{info.name}.{name}" for name in getattr(module, "__all__", ())}
uncalled = []
for qualified in sorted(public):
    module, name = qualified.split(".")
    obj = inspect.unwrap(getattr(importlib.import_module(f"linkchi.{module}"), name))
    if inspect.isfunction(obj) and obj.__code__ not in called:
        uncalled.append(qualified)
print(json.dumps(uncalled))
"""


def test_every_public_function_runs_in_a_route_or_a_command():
    # a fresh interpreter, so that no lru_cache is warm
    out = subprocess.run([sys.executable, "-c", CALL_TRACE, SRC], capture_output=True,
                         text=True, check=True).stdout
    assert set(json.loads(out)) == set(UNCALLED_PUBLIC)


def test_public_names_resolve_to_their_submodule_objects():
    for name, module in linkchi._EXPORTS.items():
        assert getattr(linkchi, name) is getattr(getattr(linkchi, module), name), name


def test_public_names_keep_their_order():
    assert linkchi.__all__ == [
        "EnumerationBudget", "EulerTable", "LinkConfig", "OutOfBoundsError", "QQ",
        "SeriesError", "TruncatedSeries", "TruncationSpec", "VariableSet", "bernoulli",
        "binomial", "e_poly", "enumerate_classes", "euler_char_oracle", "euler_table",
        "f_homology", "f_homotopy_direct", "f_homotopy_graded", "f_poly", "feynman_regrade",
        "gamma_series", "genus0_closed", "genus0_dims", "genus1_closed", "genus1_dims",
        "mobius", "mod_envelope_supercharacter", "plethystic_exp", "plethystic_log",
        "s_poly", "specialize_colors", "totient", "z_colors", "z_graph_supercharacter",
        "z_hedgehog_homology", "z_lie_cyclic", "z_tree_homology",
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
