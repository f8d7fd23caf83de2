"""Workload definitions: the jobs each workload runs and how each job checks itself.

A job is identified by a string key.  ``job_keys(workload, size)`` lists the
keys without importing linkchi, so the driver knows how many jobs a pass
attempts even when a child dies.  ``build(workload, size, scratch, corrupt)`` runs in
the child, after linkchi is importable: it computes every reference value
the jobs compare against (that is set-up time) and returns ``{key: job}``.

A job is a zero-argument callable returning ``(text, problems)``: ``text`` is
the job's canonical output, whose sha256 is compared with the recorded
digest, and ``problems`` lists every mismatch the job's own cross-check found
(empty when the job is correct).

Every call into linkchi goes through a module attribute (``genfun.f_homology``,
not a name bound at import time), so the trace wrappers installed on those
attributes see each call.

``corrupt=True`` gives the first job in key order a wrong reference value;
the self-test uses it to show that the gate fails.
"""

from __future__ import annotations

import os

WORKLOADS = ("grid", "crosscheck", "oracle", "envelope")

# Parity classes of (m_1 = m_2, d) and their smallest representatives, as in
# linkchi.verify.
PARITIES = {
    "odd-odd": ("odd", "odd", 1, 3),
    "odd-even": ("odd", "even", 1, 4),
    "even-odd": ("even", "odd", 2, 5),
    "even-even": ("even", "even", 2, 4),
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is what
# the self-test runs.  Larger sizes that are out of reach today are listed in
# BENCHMARK.json under each workload's "why".
SIZES = {
    "full": {
        "grid": {"t_max": 16, "genera": (0, 1, 2, 3)},
        "crosscheck": {"cells": ((2, 8), (3, 6))},
        # odd/odd: every cell of linkchi.verify's oracle check except the
        # genus-3 t=4 row (8-13 s per cell); other parities: t <= 3
        "oracle": {"odd_t_max": 4, "odd_genus_max": 2, "genus0_t": 5, "other_t_max": 3},
        "envelope": {"weight": 14, "genus": 12, "specialize_t": 14},
    },
    "tiny": {
        "grid": {"t_max": 6, "genera": (0, 1)},
        "crosscheck": {"cells": ((2, 4),)},
        "oracle": {"odd_t_max": 2, "odd_genus_max": 1, "genus0_t": 3, "other_t_max": 2},
        "envelope": {"weight": 4, "genus": 3, "specialize_t": 4},
    },
}

# Layers each workload must call; a traced run that records zero calls for
# one of them fails (a wrapper missed a binding site, or the workload no
# longer reaches the layer).
EXERCISED = {
    "grid": (
        "cli.main", "genfun.euler_table", "genfun.f_homotopy_direct",
        "special.at_series", "series.mul", "series.add", "series.log",
        "series.inverse",
    ),
    "crosscheck": (
        "genfun.f_homology", "genfun.f_homotopy_direct",
        "special.plethystic_log", "special.plethystic_exp",
        "special.log_gamma_series", "special.at_series", "series.mul",
        "series.add", "series.exp", "series.log", "series.inverse",
    ),
    "oracle": (
        "graphs.euler_char_oracle", "graphs.enumerate_classes",
        "graphs.canonical_form",
    ),
    "envelope": (
        "cycleindex.mod_envelope_supercharacter",
        "cycleindex.mod_envelope_supercharacter_direct",
        "cycleindex.z_graph_supercharacter", "cycleindex.specialize_colors",
        "genfun.f_homotopy_direct", "series.substitute", "series.mul",
        "series.add",
    ),
}


# ------------------------------------------------------------------ job keys


def _oracle_cells(size):
    """(parity, s1, s2, t) with s1 >= s2.

    Both strands have the same parity, so the mirror cell (s2, s1) is the
    same enumeration, which euler_char_oracle serves from its cache: timing
    it would time a dict lookup.
    """
    p = SIZES[size]["oracle"]
    cells = []
    for parity in PARITIES:
        odd = parity == "odd-odd"
        t_top = p["odd_t_max"] if odd else p["other_t_max"]
        g_top = p["odd_genus_max"] if odd else t_top
        totals = [(t, t + 1 - g) for t in range(1, t_top + 1) for g in range(min(g_top, t) + 1)]
        if odd:
            totals.append((p["genus0_t"], p["genus0_t"] + 1))
        for t, s_total in totals:
            cells.extend((parity, s_total - s2, s2, t) for s2 in range(s_total // 2 + 1))
    return cells


def _envelope_jobs(size):
    p = SIZES[size]["envelope"]
    jobs = [("modenv", twist, p["weight"], p["genus"]) for twist in ("plain", "det")]
    jobs += [
        ("specialize", r, d_parity, p["specialize_t"])
        for r in (2, 3)
        for d_parity in ("odd", "even")
    ]
    return jobs


def job_keys(workload: str, size: str) -> list[str]:
    """Keys of every job of a workload, in canonical (unshuffled) order."""
    p = SIZES[size][workload]
    if workload == "grid":
        return [f"{par}/g{g}/t{p['t_max']}" for par in PARITIES for g in p["genera"]]
    if workload == "crosscheck":
        return [f"{par}/r{r}/t{t}" for r, t in p["cells"] for par in PARITIES]
    if workload == "oracle":
        return [f"{par}/s{s1},{s2}/t{t}" for par, s1, s2, t in _oracle_cells(size)]
    if workload == "envelope":
        return ["/".join(map(str, job)) for job in _envelope_jobs(size)]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ helpers


def _cfg(parity: str, r: int):
    from linkchi import LinkConfig

    m, d = PARITIES[parity][2], PARITIES[parity][3]
    return LinkConfig.create((m,) * r, d)


def _series_problem(label, a, b):
    """Mismatch message if a and b differ on their common truncation, else None."""
    spec = a.spec.meet(b.spec)
    if a.truncate(spec) == b.truncate(spec):
        return None
    return f"{label}: routes differ"


def _bump(series):
    """series with 1 added to one coefficient: a corrupted reference."""
    mono = min(series.coeffs)
    bumped = dict(series.coeffs)
    bumped[mono] = bumped[mono] + 1
    return type(series)(series.vars, series.spec, bumped, _trusted=True)


# ------------------------------------------------------------------ builders


def _build_grid(size, corrupt, scratch):
    import copy

    from linkchi import cli
    from linkchi.reference_tables import RECONCILIATION_CELLS, TABLES

    p = SIZES[size]["grid"]
    t_max = p["t_max"]
    tables = copy.deepcopy(TABLES) if corrupt else TABLES
    if corrupt:
        tables[p["genera"][0]][1][0] += 1
    recon = set(RECONCILIATION_CELLS)

    def make(parity, genus):
        m, d = PARITIES[parity][:2]
        path = os.path.join(scratch, f"{parity}-g{genus}.csv")
        argv = ["table", "--genus", str(genus), "--m", f"{m},{m}", "--d", d,
                "--t-max", str(t_max), "--format", "csv", "--output", path]

        def job():
            code = cli.main(argv)
            if code != 0:
                return "", [f"cli exit code {code}"]
            with open(path) as f:
                text = f.read()
            rows = {}
            for line in text.splitlines()[1:]:
                t, *vals = (int(v) for v in line.split(","))
                rows[t] = vals
            problems = []
            if sorted(rows) != list(range(1, t_max + 1)):
                problems.append(f"rows {sorted(rows)}")
                return text, problems
            for t, row in rows.items():
                s_total = t + 1 - genus
                for s2 in range(min(s_total, t_max) + 1):
                    mirror = s_total - s2
                    if mirror <= t_max and row[s2] != row[mirror]:
                        problems.append(f"t={t}: not palindromic at s2={s2}")
                if parity != "odd-odd" or t not in tables[genus]:
                    continue
                published = tables[genus][t]
                for s2, got in enumerate(row[: len(published)]):
                    if got == published[s2]:
                        continue
                    mirror = s_total - s2
                    if (genus, t, s2) in recon and 0 <= mirror <= t_max and row[mirror] == got:
                        continue  # candidate misprint, as linkchi.verify treats it
                    problems.append(f"t={t} s2={s2}: computed {got}, published {published[s2]}")
            return text, problems

        return job

    return {f"{par}/g{g}/t{t_max}": make(par, g) for par in PARITIES for g in p["genera"]}


def _build_crosscheck(size, corrupt, scratch):
    from linkchi import genfun, special

    def make(parity, r, t, bad):
        cfg = _cfg(parity, r)

        def job():
            fh = genfun.f_homology(cfg, t)
            fp = genfun.f_homotopy_direct(cfg, t)
            pleth = special.plethystic_log(fh)
            back = special.plethystic_exp(fp)
            want = _bump(fp) if bad else fp
            problems = [
                msg for msg in (
                    _series_problem("plethystic_log(F^H) vs F^pi", pleth, want),
                    _series_problem("plethystic_exp(F^pi) vs F^H", back, fh),
                ) if msg
            ]
            return fp.to_text() + "\n" + fh.to_text(), problems

        return job

    jobs = {}
    for r, t in SIZES[size]["crosscheck"]["cells"]:
        for par in PARITIES:
            jobs[f"{par}/r{r}/t{t}"] = make(par, r, t, corrupt and not jobs)
    return jobs


def _build_oracle(size, corrupt, scratch):
    from linkchi import EnumerationBudget, genfun, graphs

    cells = _oracle_cells(size)
    top = max(t for _par, _s1, _s2, t in cells)
    budget = EnumerationBudget(t_max=top, hairs_max=top + 1)
    f_pi = {par: genfun.f_homotopy_direct(_cfg(par, 2), top) for par in PARITIES}

    def make(parity, s1, s2, t, bad):
        cfg = _cfg(parity, 2)
        want = int(f_pi[parity].coefficient({"x1": s1, "x2": s2, "u": t})) + bad

        def job():
            got = graphs.euler_char_oracle(cfg, (s1, s2), t, budget)
            problems = [] if got == want else [f"enumeration {got}, series {want}"]
            return f"{parity},{s1},{s2},{t},{got}", problems

        return job

    return {
        f"{par}/s{s1},{s2}/t{t}": make(par, s1, s2, t, int(corrupt and i == 0))
        for i, (par, s1, s2, t) in enumerate(cells)
    }


def _build_envelope(size, corrupt, scratch):
    from linkchi import cycleindex, genfun

    def modenv(twist, weight, genus, bad):
        def job():
            a = cycleindex.mod_envelope_supercharacter(twist, weight, genus)
            b = cycleindex.mod_envelope_supercharacter_direct(twist, weight, genus)
            problem = _series_problem(f"modular envelope ({twist})", a, _bump(b) if bad else b)
            return a.to_text(), [problem] if problem else []

        return job

    def specialize(r, d_parity, t, bad):
        cfg = _cfg("odd-odd" if d_parity == "odd" else "odd-even", r)

        def job():
            z = cycleindex.z_graph_supercharacter(d_parity, t + 1, t)
            spec = cycleindex.specialize_colors(z, cfg, "euler")
            direct = genfun.f_homotopy_direct(cfg, t, x_total_max=t + 1)
            want = _bump(direct) if bad else direct
            problem = _series_problem(f"Euler specialization (r={r}, d {d_parity})", spec, want)
            return spec.to_text(), [problem] if problem else []

        return job

    jobs = {}
    for spec in _envelope_jobs(size):
        make = modenv if spec[0] == "modenv" else specialize
        jobs["/".join(map(str, spec))] = make(*spec[1:], corrupt and not jobs)
    return jobs


_BUILDERS = {
    "grid": _build_grid,
    "crosscheck": _build_crosscheck,
    "oracle": _build_oracle,
    "envelope": _build_envelope,
}


def build(workload: str, size: str, scratch: str, corrupt: bool = False):
    """Reference values and job callables, keyed as :func:`job_keys` lists them.

    ``scratch`` is an existing directory for the files jobs write.
    """
    jobs = _BUILDERS[workload](size, corrupt, scratch)
    if list(jobs) != job_keys(workload, size):
        raise RuntimeError(f"{workload}: built jobs do not match the job keys")
    return jobs
