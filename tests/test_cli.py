from __future__ import annotations

import json
import subprocess
import sys

import pytest

from linkchi import cli, graphs
from linkchi.reference_tables import TABLES
from linkchi.verify import CHECK_NAMES


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_homology_specialization_example(capsys):
    code, out, _ = run_cli(
        ["homology", "--r", "2", "--m", "1,1", "--d", "3", "--t-max", "6",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    # specializing x1 = x2 = 1 must reproduce 1/((1-u)(1-2u)) to u^6
    from linkchi.rationals import QQ

    totals = [QQ(0)] * 7
    for term in json.loads(out)["terms"]:
        u_pow = 0
        for factor in term["monomial"].split("*"):
            if factor == "u":
                u_pow = 1
            elif factor.startswith("u^"):
                u_pow = int(factor[2:])
        totals[u_pow] += QQ(term["coefficient"])
    assert [int(v) for v in totals] == [2 ** (t + 1) - 1 for t in range(7)]


def test_homology_order_zero(capsys):
    code, out, _ = run_cli(
        ["homology", "--m", "1,1", "--d", "5", "--t-max", "0"], capsys
    )
    assert code == 0
    assert out.strip() == "1"


def test_homology_missing_m_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["homology", "--d", "3"])
    assert exc.value.code == 2


def test_table_matches_reference(capsys):
    code, out, _ = run_cli(
        ["table", "--genus", "0", "--m", "odd,odd", "--d", "odd",
         "--t-max", "8", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 0
    assert payload["convention"] == "s1 = t - s2 + 1"
    for row in payload["rows"]:
        assert row["chi"] == TABLES[0][row["t"]][:9]


def test_table_csv_layout(capsys):
    code, out, _ = run_cli(
        ["table", "--genus", "1", "--m", "odd,odd", "--d", "odd",
         "--t-max", "4", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,0,1,2,3,4"
    assert lines[2] == "2,1,1,1,0,0"


def test_table_t0_empty(capsys):
    code, out, _ = run_cli(
        ["table", "--genus", "0", "--m", "odd,odd", "--d", "odd",
         "--t-max", "0", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "t,0"


def test_table_past_every_genus_prints_zero_rows(capsys):
    # genus 20 at t <= 5 needs |s| = t - 19 < 0: the layer computed alone
    # is empty, and every row reads 0 as it does from the full series
    from linkchi.genfun import LinkConfig, euler_table, f_homotopy_direct

    code, out, _ = run_cli(
        ["table", "--genus", "20", "--m", "odd,odd", "--d", "odd", "--t-max", "5", "--format", "csv"],
        capsys,
    )
    assert code == 0
    cfg = LinkConfig.create((1, 1), 3)
    full = euler_table(cfg, 20, 5, f_pi=f_homotopy_direct(cfg, 5))
    assert out == full.to_csv()
    assert out.strip().split("\n")[1:] == [f"{t},0,0,0,0,0,0" for t in range(1, 6)]


def test_table_negative_genus_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--genus", "-1", "--m", "odd,odd", "--d", "odd"])
    assert exc.value.code == 2


def test_table_more_than_two_strands_rejected_before_the_warning(capsys):
    # d = 3 <= 2 max(m) + 1 would warn that the output is formal; the grid
    # layout is checked first
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--genus", "0", "--m", "1,1,1", "--d", "3", "--t-max", "3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error: the published grid layout is defined for r <= 2" in err
    assert "warning:" not in err


def test_table_empty_m_entry_rejected_at_parse_time(capsys):
    # the empty entry is named, not mistaken for a third strand
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--genus", "0", "--m", "1,,1", "--d", "3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "argument --m: empty entry in '1,,1'" in err
    assert "warning:" not in err


def test_supercharacter_no_negative_hbar(capsys):
    code, out, _ = run_cli(
        ["supercharacter", "--twist", "plain", "--weight", "6", "--genus", "4"],
        capsys,
    )
    assert code == 0
    assert "hbar^-" not in out


def test_supercharacter_weight_zero(capsys):
    code, out, _ = run_cli(
        ["supercharacter", "--twist", "det", "--weight", "0"], capsys
    )
    assert code == 0
    assert out.strip() == "0"


def test_supercharacter_weight_zero_csv_and_json(capsys):
    argv = ["supercharacter", "--twist", "plain", "--weight", "0"]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out == "monomial,coefficient\n"
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"terms": []}


@pytest.mark.parametrize("weight", ["0", "3"])
def test_supercharacter_negative_genus_rejected(capsys, weight):
    with pytest.raises(SystemExit) as exc:
        cli.main(["supercharacter", "--twist", "det", "--weight", weight, "--genus", "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--genus: must be >= 0, got -1" in err


def test_supercharacter_negative_weight_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["supercharacter", "--twist", "plain", "--weight", "-3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--weight: must be >= 0, got -3" in err


def test_supercharacter_feynman_flag(capsys):
    code, plain, _ = run_cli(
        ["supercharacter", "--twist", "plain", "--weight", "4", "--genus", "2"],
        capsys,
    )
    code, regraded, _ = run_cli(
        ["supercharacter", "--twist", "plain", "--weight", "4", "--genus", "2",
         "--feynman-regrade"],
        capsys,
    )
    assert plain != regraded


def test_oracle_json(capsys):
    code, out, _ = run_cli(
        ["oracle", "--m", "1,1", "--d", "3", "--s", "2,0", "--t", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["euler_characteristic"] == 1
    assert any(c["killed"] for c in payload["classes"])
    assert sum(c["contribution"] for c in payload["classes"]) == 1


def test_oracle_format_is_json_only(capsys, tmp_path):
    argv = ["oracle", "--m", "1,1", "--d", "3", "--s", "2,0", "--t", "2"]
    _, default, _ = run_cli(argv, capsys)
    code, explicit, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and explicit == default
    for fmt in ("text", "csv"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", fmt])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget-t", "--budget-hairs"])
def test_oracle_negative_budget_rejected_at_parse_time(capsys, monkeypatch, flag):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(graphs, "enumerate_classes", never)
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--m", "1,1", "--d", "5", "--s", "2,0", "--t", "2", flag, "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"{flag}: must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["homology", "--t-max", "-1"], "--t-max"),
        (["homology", "--x-max", "-1"], "--x-max"),
        (["table", "--genus", "1", "--t-max", "-1"], "--t-max"),
        (["table", "--genus", "-1"], "--genus"),
        (["oracle", "--s", "2,0", "--t", "-1"], "--t"),
    ],
)
def test_negative_bounds_rejected_at_parse_time(capsys, argv, flag):
    # d = 3 <= 2 max(m) + 1 warns that the output is formal; a bad bound
    # must exit 2 before that warning, not fail inside the run after it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--m", "1,1", "--d", "3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"{flag}: must be >= 0, got -1" in err
    assert "warning" not in err


def test_oracle_has_no_t_max(capsys):
    # oracle enumerates one cell at --t; a truncation order would change nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--m", "1,1", "--d", "3", "--s", "2,0", "--t", "2", "--t-max", "0"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --t-max 0" in err
    assert "warning:" not in err


@pytest.mark.parametrize(
    "value, t, message",
    [
        ("a,1", "2", "--s: invalid int list value"),
        ("-1,1", "2", "--s: must be >= 0"),
        ("1", "2", "need 2 nonnegative hair counts, got (1,)"),
        ("0,0", "2", "at least one hair is required"),
        ("3,1", "2", "t=2 < |s|-1=3 would mean negative genus"),
        ("2,1", "6", "(|s|=3, t=6) exceeds budget (t_max=5, hairs_max=6)"),
    ],
    ids=[
        "a,1-invalid int list value", "-1,1-must be >= 0", "count", "no-hairs",
        "negative-genus", "over-budget",
    ],
)
def test_oracle_bad_hair_counts_rejected_at_parse_time(capsys, monkeypatch, value, t, message):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(graphs, "enumerate_classes", never)
    # d = 3 warns that the output is formal, but only once the cell is valid
    try:
        code = cli.main(["oracle", "--m", "1,1", "--d", "3", f"--s={value}", "--t", t])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err
    assert "warning" not in err


def test_verify_format_is_text_only(capsys):
    argv = ["verify", "--only", "gamma", "--t-max", "4"]
    _, default, _ = run_cli(argv, capsys)
    code, explicit, _ = run_cli(argv + ["--format", "text"], capsys)
    assert code == 0 and explicit == default
    for fmt in ("csv", "json"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", fmt])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_verify_subset(capsys):
    code, out, _ = run_cli(
        ["verify", "--only", "special-polynomials,gamma", "--t-max", "6"], capsys
    )
    assert code == 0
    assert "[PASS] special-polynomials" in out
    assert "[PASS] gamma" in out
    assert out.strip().endswith("verification passed")


def test_verify_help_lists_every_check(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert f"comma-separated subset of checks ({', '.join(CHECK_NAMES)})\n" in capsys.readouterr().out


REQUIRED = {
    "homology": ["--m", "1,1", "--d", "3"],
    "table": ["--m", "1,1", "--d", "3", "--genus", "1"],
    "supercharacter": ["--twist", "plain", "--weight", "2"],
    "oracle": ["--m", "1,1", "--d", "3", "--s", "1,1", "--t", "1"],
    "verify": [],
}
HELP_CASES = [["--help"], ["-h"]] + [[name, "--help"] for name in REQUIRED]
USAGE_ERROR_CASES = (
    [[], ["bogus"], ["bogus", "--help"], ["--bogus", "table"]]
    + [[name] + opts[:-1] for name, opts in REQUIRED.items() if opts]  # one required missing
    + [[name] + opts + ["--bogus", "1"] for name, opts in REQUIRED.items()]
    + [["table"] + REQUIRED["table"] + ["--genus", "-1"], ["oracle", "--format", "csv"]]
)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize(
    "argv, code",
    [(argv, 0) for argv in HELP_CASES] + [(argv, 2) for argv in USAGE_ERROR_CASES],
    ids=lambda v: (" ".join(v) or "no-arguments") if isinstance(v, list) else str(v),
)
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, columns, argv, code):
    # main() adds only the named subcommand's options; every help text and
    # usage error must be the full parser's, byte for byte, exit code included
    monkeypatch.setenv("COLUMNS", columns)
    results = []
    for parse in (cli.main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        results.append((exc.value.code, capsys.readouterr()))
    assert results[0] == results[1]
    got_code, text = results[0]
    assert got_code == code and (text.out if code == 0 else text.err.startswith("usage: linkchi"))


def test_verify_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--only", "nonsense"])
    assert exc.value.code == 2


def test_verify_empty_only_entry_rejected_at_parse_time(capsys):
    for only in ("", "gamma,", ",gamma"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--only", only, "--t-max", "2"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2, only
        assert out == "" and "argument --only: empty entry" in err, only
        assert "warning:" not in err


def test_verify_t_max_below_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--t-max", "0"])
    assert exc.value.code == 2
    assert "--t-max: must be >= 1" in capsys.readouterr().err


def test_verify_t_max_one_runs_every_check(capsys):
    code, out, _ = run_cli(["verify", "--t-max", "1"], capsys)
    assert code == 0
    assert out.count("[PASS]") == len(CHECK_NAMES)


def test_verify_fault_injection(capsys, monkeypatch):
    # flip a sign in the complexity polynomial: the named check must fail
    import linkchi.verify as verify_mod
    from linkchi.special import UniPolynomial

    real = verify_mod.f_poly

    def flipped(l):
        poly = real(l)
        if l == 2:
            return UniPolynomial([c * -1 for c in poly.coeffs])
        return poly

    monkeypatch.setattr(verify_mod, "f_poly", flipped)
    code = cli.main(["verify", "--only", "special-polynomials"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "[FAIL] special-polynomials" in out
    assert "f-poly" in out


def test_verify_pins_every_power_sum_polynomial_the_double_sum_uses(capsys, monkeypatch):
    # the double sum reaches S_j for j <= t (23 by default): a wrong S_20 must fail
    import linkchi.verify as verify_mod
    from linkchi.special import UniPolynomial

    real = verify_mod.s_poly

    def wrong_s20(j):
        poly = real(j)
        if j == 20:
            return UniPolynomial([c + 1 if k == 1 else c for k, c in enumerate(poly.coeffs)])
        return poly

    monkeypatch.setattr(verify_mod, "s_poly", wrong_s20)
    code = cli.main(["verify", "--only", "special-polynomials"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "s-poly: S_20(1) is not the power sum" in out


def test_verify_homology_specializations_pins_the_sign_at_even_m(capsys, monkeypatch):
    # eps_i = (-1)^(m_i - 1) is -1 only at even m_i: dropping it must fail
    from linkchi.genfun import LinkConfig

    monkeypatch.setattr(LinkConfig, "eps", lambda self, i: 1)
    code = cli.main(["verify", "--only", "homology-specializations", "--t-max", "6"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] homology-specializations" in out and "x=1 m=2 r=2 d=5" in out


def test_verify_check_that_raises_is_a_failure(capsys, monkeypatch):
    # a fault that makes a check raise is a verification failure (exit 1)
    import linkchi.verify as verify_mod
    from linkchi.rationals import QQ
    from linkchi.series import TruncatedSeries

    real = verify_mod.f_homotopy_direct

    def off_by_half(cfg, t_max, x_total_max=None):
        out = real(cfg, t_max, x_total_max)
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 3, "u": 2}, QQ(1, 2))

    monkeypatch.setattr(verify_mod, "f_homotopy_direct", off_by_half)
    code = cli.main(["verify", "--only", "tables,gamma", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[PASS] gamma" in out
    assert "[FAIL] tables" in out
    assert "raised SeriesError: non-integer Euler characteristic" in out


def test_verify_keeps_differences_recorded_before_a_raise(capsys, monkeypatch):
    # the half makes "direct vs plethystic" differ, then plethystic_exp
    # raises on the non-integer coefficient: the report keeps both
    import linkchi.verify as verify_mod
    from linkchi.rationals import QQ
    from linkchi.series import TruncatedSeries

    real = verify_mod.f_homotopy_direct

    def off_by_half(cfg, t_max, x_total_max=None):
        out = real(cfg, t_max, x_total_max)
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 3, "u": 2}, QQ(1, 2))

    monkeypatch.setattr(verify_mod, "f_homotopy_direct", off_by_half)
    code = cli.main(["verify", "--only", "route-equivalence", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] route-equivalence" in out
    assert "direct vs plethystic (odd-odd, r=1): at {'x1': 3, 'u': 2}" in out
    assert "raised SeriesError" in out


def test_verify_oracle_covers_every_parity(capsys, monkeypatch):
    import linkchi.verify as verify_mod

    real = verify_mod.euler_char_oracle

    def off_for_even_even(cfg, s_vec, t, budget=None):
        bump = cfg.m_parities == (0, 0) and cfg.d_parity == 0 and tuple(s_vec) == (2, 0)
        return real(cfg, s_vec, t, budget) + bump

    monkeypatch.setattr(verify_mod, "euler_char_oracle", off_for_even_even)
    code = cli.main(["verify", "--only", "oracle", "--t-max", "2"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "oracle (even-even) genus 0 t=1 s=(2,0)" in out
    assert "(odd-odd)" not in out


def test_verify_oracle_covers_mixed_colour_parities(capsys, monkeypatch):
    # with m = (1, 2) a cell and its mirror are different counts: (1, 2) is
    # computed after (2, 1), so a read-back would hide the fault
    import linkchi.verify as verify_mod

    real = verify_mod.euler_char_oracle

    def off_for_one_mixed_cell(cfg, s_vec, t, budget=None):
        bump = cfg.m_parities == (1, 0) and cfg.d_parity == 0 and tuple(s_vec) == (1, 2)
        return real(cfg, s_vec, t, budget) + bump

    monkeypatch.setattr(verify_mod, "euler_char_oracle", off_for_one_mixed_cell)
    code = cli.main(["verify", "--only", "oracle", "--t-max", "2"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "oracle (mixed-even) genus 0 t=2 s=(1,2): enumeration" in out
    assert "s=(2,1)" not in out
    assert "(mixed-odd)" not in out and "(odd-even)" not in out


@pytest.mark.parametrize(
    "old, new",
    [
        # a component looks closed although a vertex of it has degree left
        ("live |= 1 << w", "live |= 0"),
        # tied vertices must carry non-increasing tadpole counts
        ("loops[v - 1] > loops[v]", "loops[v - 1] < loops[v]"),
    ],
    ids=["degree-left-ignored", "tadpole-order-flipped"],
)
def test_verify_oracle_fails_on_an_unsound_cut(capsys, monkeypatch, old, new):
    # the generator with one cut made unsound, in a shape cache of its own
    import functools
    import inspect
    import textwrap

    from linkchi import graphs

    source = textwrap.dedent(inspect.getsource(graphs._orderly_multigraphs))
    assert source.count(old) == 1
    namespace = dict(vars(graphs))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(graphs, "_orderly_multigraphs", namespace["_orderly_multigraphs"])
    shapes = functools.lru_cache(maxsize=None)(graphs._class_shapes.__wrapped__)
    monkeypatch.setattr(graphs, "_class_shapes", shapes)
    code = cli.main(["verify", "--only", "oracle", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] oracle" in out


def test_verify_tables_second_route(capsys):
    code, out, _ = run_cli(["verify", "--only", "tables-second-route", "--t-max", "5"], capsys)
    assert code == 0
    assert "[PASS] tables-second-route" in out


def test_verify_tables_second_route_reports_first_difference(capsys, monkeypatch):
    import linkchi.verify as verify_mod
    from linkchi.series import TruncatedSeries

    real = verify_mod.plethystic_log

    def shifted(series):
        out = real(series)
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 2, "u": 3}, 5)

    monkeypatch.setattr(verify_mod, "plethystic_log", shifted)
    code = cli.main(["verify", "--only", "tables-second-route", "--t-max", "4"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] tables-second-route" in out
    assert "at {'x1': 2, 'u': 3}" in out


def test_verify_names_the_rational_backend(capsys):
    from linkchi.rationals import QQ

    code, out, _ = run_cli(["verify", "--only", "gamma", "--t-max", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == f"backend: {QQ.__module__}"


def test_verify_tables_checks_palindromy_past_the_published_rows(capsys, monkeypatch):
    import linkchi.verify as verify_mod
    from linkchi.series import TruncatedSeries

    code, out, _ = run_cli(["verify", "--only", "tables", "--t-max", "25"], capsys)
    assert code == 0
    assert "[PASS] tables" in out
    # genus 0, t=25: s = (25, 1) gains 1, its mirror s = (1, 25) does not
    real = verify_mod.f_homotopy_direct

    def lopsided(cfg, t_max, x_total_max=None):
        out = real(cfg, t_max, x_total_max)
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 25, "x2": 1, "u": 25})

    monkeypatch.setattr(verify_mod, "f_homotopy_direct", lopsided)
    code, out, _ = run_cli(["verify", "--only", "tables", "--t-max", "25"], capsys)
    assert code == 1
    assert "genus 0 t=25: row not palindromic at s2=1" in out


def test_verify_tables_fails_when_the_misprint_cell_breaks_palindromy(capsys, monkeypatch):
    # genus 3, t=21, s2=3 differs from the printed grid and is only noted
    # while its mirror s2=16 computes the same; one more x1^16 x2^3 u^21
    # in the full series breaks that
    import linkchi.verify as verify_mod
    from linkchi.series import TruncatedSeries

    real = verify_mod.f_homotopy_direct

    def off_at_the_misprint(cfg, t_max, x_total_max=None, genus=None):
        out = real(cfg, t_max, x_total_max, genus)
        if genus is not None:
            return out
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 16, "x2": 3, "u": 21})

    monkeypatch.setattr(verify_mod, "f_homotopy_direct", off_at_the_misprint)
    code, out, _ = run_cli(["verify", "--only", "tables", "--t-max", "21"], capsys)
    assert code == 1
    assert "genus 3 t=21: computed row breaks palindromy at s2=3" in out
    assert "genus 3 t=21: row not palindromic at s2=3" in out


def test_verify_tables_fails_when_the_genus_layer_is_shifted(capsys, monkeypatch):
    # the layer computed alone pairs each x-term with the factor term one
    # genus too high, the full series as before: the published grids still
    # pass (they read the full series), the comparison of the layers does not
    import linkchi.special as special_mod

    real = special_mod._final_terms

    def shifted(x, factor, k, top, step, genus=None):
        return real(x, factor, k, top, step, None if genus is None else genus + 1)

    monkeypatch.setattr(special_mod, "_final_terms", shifted)
    code = cli.main(["verify", "--only", "tables", "--t-max", "6"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] tables" in out
    assert "genus-0 layer alone vs full F^pi (t=6): at" in out


def test_verify_genus_split_fails_on_a_negative_genus(capsys, monkeypatch):
    # x1^3 u has |s| = 3 > t + 1: genus -1, below the hbar window of the split
    import linkchi.verify as verify_mod
    from linkchi.series import TruncatedSeries

    real = verify_mod.f_homotopy_direct

    def with_negative_genus(cfg, t_max, x_total_max=None):
        out = real(cfg, t_max, x_total_max)
        return out + TruncatedSeries.term(out.vars, out.spec, {"x1": 3, "u": 1})

    monkeypatch.setattr(verify_mod, "f_homotopy_direct", with_negative_genus)
    code = cli.main(["verify", "--only", "genus-split", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] genus-split" in out
    assert "raised SeriesError: monomial" in out and "lies below the lower bounds" in out


def test_verify_cycle_index_fails_on_a_negative_envelope_genus(capsys, monkeypatch):
    # u p1^3 goes to hbar^(1 - 3 + 1): genus -1 in the modular envelope
    import linkchi.cycleindex as cycleindex_mod
    from linkchi.series import TruncatedSeries

    real = cycleindex_mod.z_graph_supercharacter

    def with_negative_genus(d_parity, weight_max, t_max):
        out = real(d_parity, weight_max, t_max)
        return out + TruncatedSeries.term(out.vars, out.spec, {"u": 1, "p1": 3})

    monkeypatch.setattr(cycleindex_mod, "z_graph_supercharacter", with_negative_genus)
    code = cli.main(["verify", "--only", "cycle-index", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] cycle-index" in out
    assert "raised SeriesError: monomial" in out and "lies below the lower bounds" in out


def _bumped(series, exponents, by=1):
    """``series`` plus ``by`` times the monomial of ``exponents``."""
    from linkchi.series import TruncatedSeries

    return series + TruncatedSeries.term(series.vars, series.spec, exponents, by)


def _feynman_twice(z):
    from linkchi.cycleindex import feynman_regrade

    return feynman_regrade(z).scaled(2)  # -2 Z(-p): applied twice, 4 Z


def _envelope_without_plain_parity(twist, weight_max, genus_max):
    # undoes (-1)^(number of p-factors), the plain twist's p-sign parity
    from linkchi.cycleindex import mod_envelope_supercharacter

    out = mod_envelope_supercharacter(twist, weight_max, genus_max)
    if twist == "plain":
        parity = {f"p{l}": 1 for l in range(1, weight_max + 1)}
        out = out.regrade(out.vars, out.spec, parity=parity)
    return out


def _real(name):
    import linkchi.cycleindex as cycleindex_mod

    return getattr(cycleindex_mod, name)


@pytest.mark.parametrize(
    "name, fault, failed, passed",
    [
        (
            "mod_envelope_supercharacter",
            lambda *args: _bumped(_real("mod_envelope_supercharacter")(*args), {"hbar": 1}),
            "modular envelope (plain): arity-zero part is not empty",
            None,
        ),
        (
            "feynman_regrade",
            _feynman_twice,
            "feynman regrade is not an involution (plain)",
            None,
        ),
        (
            "z_lie_cyclic",
            lambda w: _bumped(_real("z_lie_cyclic")(w), {"p1": 5}),
            "cyclic-lie dims: p1^5 coefficient",
            None,
        ),
        (
            "z_hedgehog_homology",
            lambda d, w: _bumped(_real("z_hedgehog_homology")(d, w), {"p1": 4, "z": 4 * (d - 2), "u": 4}),
            "hedgehog dims (d=2): p1^4 coefficient",
            None,
        ),
        (
            "mod_envelope_supercharacter",
            _envelope_without_plain_parity,
            "modular envelope two routes (plain): at",
            "modular envelope two routes (det)",
        ),
    ],
    ids=["arity-zero", "feynman-involution", "cyclic-lie-dims", "hedgehog-dims", "plain-p-parity"],
)
def test_verify_cycle_index_fails_on_each_fault(capsys, monkeypatch, name, fault, failed, passed):
    # one fault per comparison of the cycle-index check that no other test breaks
    import linkchi.verify as verify_mod

    monkeypatch.setattr(verify_mod, name, fault)
    code = cli.main(["verify", "--only", "cycle-index", "--t-max", "3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "[FAIL] cycle-index" in out and failed in out
    assert "raised" not in out
    if passed is not None:
        assert passed not in out


def test_drop_hbar_rejects_nonzero_genus():
    from linkchi.genfun import LinkConfig
    from linkchi.series import SeriesError, TruncatedSeries, TruncationSpec, VariableSet
    from linkchi.verify import _drop_hbar

    cfg = LinkConfig.create((1, 1), 3)
    hv = VariableSet(hodge_count=2, has_u=True, has_hbar=True)
    spec = TruncationSpec(u_max=3, x_total_max=4, hbar_window=(0, 2))
    flat = TruncatedSeries.term(hv, spec, {"x1": 1, "u": 1})
    assert _drop_hbar(flat, cfg) == TruncatedSeries.term(
        cfg.xu_vars(), TruncationSpec(u_max=3, x_total_max=4), {"x1": 1, "u": 1}
    )
    with pytest.raises(SeriesError, match="hbar"):
        _drop_hbar(TruncatedSeries.term(hv, spec, {"x1": 1, "u": 1, "hbar": 1}), cfg)


def test_determinism_across_processes():
    cmd = [
        sys.executable, "-m", "linkchi", "table", "--genus", "2",
        "--m", "odd,odd", "--d", "odd", "--t-max", "6", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_output_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        ["table", "--genus", "0", "--m", "odd,odd", "--d", "odd",
         "--t-max", "3", "--format", "csv", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("t,0,1,2,3")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--genus", "0", "--m", "odd,odd", "--d", "odd",
                  "--t-max", "3", "--format", "csv", "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in err
