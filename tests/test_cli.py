import gc
import json
import subprocess
import sys
import warnings

import pytest

from library_extras import schur
from qfrob import cli, partitions, pcomplex, pdgmod, qgroup, symfunc
from qfrob.cyclotomic import ExactDivisionError, LaurentPoly
from qfrob.pcomplex import PComplex
from qfrob.cli import CheckSpec, default_specs, main, run_check


# parameters no check can decide on: a non-prime p (the F_p eliminations
# invert by Fermat), a negative n, a twist check with n = 0, a cap below
# 2(p−1), which leaves an empty valid window, a thick check with a·p over
# its size guard, a nilHecke or Grassmannian check whose module rank is over
# the END size guard, a flag the check does not read, and words no flag
# reads: a non-integer value, a stray word, an unbalanced quote
BAD_ARGS = [
    "verify-slash --p 4 --n 2",
    "verify-vi --p 0",
    "verify-binom --p 1 --max 2",
    "verify-lima --p 9 --a 1 --b 1",
    "verify-slash --p 2 --n -1",
    "verify-twist --p 3 --n -1",
    "verify-slash --p 3 --n 2 --cap 3",
    "verify-twist --p 3 --n 2 --cap 3",
    "verify-vi --p 3 --kmax 0",
    "verify-theta0 --p 2 --kmax 0",
    "verify-binom --p 2 --max -1",
    "verify-grass --p 3 --max -1",
    "verify-lima --p 2 --a -1 --b 1",
    "verify-lima --p 2 --a 1 --b -1",
    "verify-frobenius --p 2 --amax -1",
    "verify-frobenius --p 2 --nmax -1",
    "verify-frobenius --p 3 --oracle_amax -1",
    "verify-frobenius --p 3 --oracle_nmax -1",
    "verify-frobenius --p 2 --amax 0 --nmax 0",
    "verify-thick --p 2 --a 0",
    "verify-nilhecke --p 2 --n 0",
    "verify-nilhecke --p 3 --n 3 --cap 11",
    "verify-thick --p 7 --a 1",
    "verify-thick --p 3 --a 3",
    "verify-nilhecke --p 7",
    "verify-nilhecke --p 7 --n 2 --cap 8",
    "verify-nilhecke --p 5 --n 6 --cap 24",
    "verify-twist --p 2 --n 0",
    "verify-binom --p 2 --max 1 --n 7",
    "verify-thick --p 2 --a 2 --cap 10",
    "verify-grass --p 2 --max 6",
    "verify-nilhecke --p 2 --cap 1e3",
    "verify-binom --p 2 --max 1 extra",
    'verify-binom --p "2 --max 1',
]


class TestRunCheck:
    def test_lima_pass(self):
        rep = run_check(CheckSpec("verify-lima", {"p": 2, "a": 1, "b": 1}))
        assert rep.status == "pass"
        assert rep.values["dim"] == 2

    def test_slash_pass(self):
        rep = run_check(CheckSpec("verify-slash", {"p": 3, "n": 2, "cap": 40}))
        assert rep.status == "pass"
        # n < p: only the unit class
        assert rep.values["H0_dims"] == {"0": 1}

    def test_binom_records_varrho(self):
        rep = run_check(CheckSpec("verify-binom", {"p": 3, "max": 2}))
        assert rep.status == "pass"
        assert "varrho_2p" in rep.values and "varrho_p" in rep.values

    def test_vi_pass(self):
        rep = run_check(CheckSpec("verify-vi", {"p": 2, "kmax": 2}))
        assert rep.status == "pass"

    def test_crash_is_failure(self):
        rep = run_check(CheckSpec("verify-lima", {"p": 2, "a": -1, "b": 1}))
        assert rep.status == "fail"
        assert "error" in rep.values


class TestOracleBoxOnce:
    def test_second_p_reuses_the_decision(self):
        qgroup.oracle_box_check.cache_clear()
        _, v2 = cli.check_verify_frobenius(2, 1, 2, 2, 4)
        _, v3 = cli.check_verify_frobenius(3, 1, 2, 2, 4)
        info = qgroup.oracle_box_check.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert v2["oracle_pairs"] == v3["oracle_pairs"] > 0
        assert v2["oracle_ok"] is v3["oracle_ok"] is True

    def test_wrong_binomial_fails_the_check(self, monkeypatch):
        # the generic [2, 1] gains a v^5 term, as in the qgroup oracle
        # test; the box decision is cached per process, so the cache is
        # cleared on both sides of the change
        real = qgroup._ring_binom

        def wrong(tag, p, m, k):
            c = real(tag, p, m, k)
            return c + LaurentPoly({5: 1}) if (tag, m, k) == ("generic", 2, 1) else c

        qgroup.oracle_box_check.cache_clear()
        monkeypatch.setattr(qgroup, "_ring_binom", wrong)
        try:
            status, values = cli.check_verify_frobenius(2, 1, 2, 2, 4)
        finally:
            qgroup.oracle_box_check.cache_clear()
        assert status == "fail"
        assert values["oracle_ok"] is False
        assert values["hom_ok"] and values["kernel_ok"]

    def test_inexact_division_fails_the_check(self, monkeypatch):
        # μ(2, m) = −[2]·[m+1] gains 1, so the oracle's normal form cannot
        # divide it by [2]; the crashed check fails with its error, as a
        # check that raises always does
        real = qgroup._move_v_past_powers

        def wrong(i, n):
            c = real(i, n)
            return c + 1 if i == 2 else c

        qgroup.oracle_box_check.cache_clear()
        monkeypatch.setattr(qgroup, "_move_v_past_powers", wrong)
        try:
            with pytest.raises(ExactDivisionError):
                cli.check_verify_frobenius(2, 1, 2, 2, 4)
            rep = run_check(
                CheckSpec(
                    "verify-frobenius",
                    {"p": 2, "amax": 1, "nmax": 2, "oracle_amax": 2, "oracle_nmax": 4},
                )
            )
        finally:
            qgroup.oracle_box_check.cache_clear()
        assert rep.status == "fail"
        assert rep.values["error"].startswith("ExactDivisionError")


class TestRankOnlySlash:
    def test_dims_callers_build_no_strings(self, monkeypatch):
        # slash dims come from ranks; explicit strings serve only END's
        # coboundaries
        def refuse(self):
            raise AssertionError("string_decompose called")

        monkeypatch.setattr(PComplex, "string_decompose", refuse)
        assert cli.check_verify_slash(3, 4, 72)[0] == "pass"
        assert cli.check_verify_twist(3, 4, 72)[0] == "pass"
        assert cli.check_verify_vi(3, 2)[0] == "pass"


class TestStatsBuildNoPartitions:
    """The stats-only callers read Sym_n, S_n(a) and the box complexes off
    bead segments."""

    def test_refuse_content_complex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar_complex called")

        hilbert = pdgmod.end_algebra((1, 1, 1), 3).slash_hilbert(40)
        hilbert_22 = pdgmod.end_algebra((2, 2), 2).slash_hilbert(40)
        monkeypatch.setattr(pdgmod.EndAlgebra, "scalar_complex", refuse)
        assert cli.check_verify_slash(3, 6, 72)[0] == "pass"
        assert cli.check_verify_twist(3, 5, 72)[0] == "pass"
        assert cli.check_verify_theta0(3, 1)[0] == "pass"
        assert cli.check_verify_vi(5, 3)[0] == "pass"
        assert cli.check_verify_grass(3, 2)[0] == "pass"
        assert pdgmod.end_algebra((1, 1, 1), 3).slash_hilbert(40) == hilbert
        assert pdgmod.end_algebra((2, 2), 2).slash_hilbert(40) == hilbert_22

    def test_wall_shifted_by_one_fails(self, monkeypatch):
        real = symfunc._bead_distributions
        monkeypatch.setattr(
            symfunc,
            "_bead_distributions",
            lambda n, w, p, cap, end: real(n, (w + 1) % p, p, cap, end),
        )
        assert cli.check_verify_slash(3, 6, 72)[0] == "fail"

    def test_dropped_distribution_is_a_failure(self, monkeypatch):
        real = symfunc._bead_distributions
        monkeypatch.setattr(symfunc, "_bead_distributions", lambda *args: real(*args)[:-1])
        with pytest.raises(AssertionError, match="bookkeeping"):
            symfunc.twist_stats(6, 0, 3, 72)
        rep = run_check(CheckSpec("verify-slash", {"p": 3, "n": 6, "cap": 72}))
        assert rep.status == "fail"
        assert rep.values["error"].startswith("AssertionError")


class TestMain:
    def test_single_check_exit_zero(self, capsys):
        assert main(["verify-binom", "--p", "2", "--max", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["verify-lima", "--p", "2", "--a", "1", "--b", "1",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload[0]["check"] == "verify-lima"
        assert payload[0]["status"] == "pass"

    def test_json_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-lima", "--p", "2", "--a", "1", "--b", "2", "--json", str(p1)])
        main(["verify-lima", "--p", "2", "--a", "1", "--b", "2", "--json", str(p2)])
        capsys.readouterr()
        a = json.loads(p1.read_text())
        b = json.loads(p2.read_text())
        for r in (a, b):
            r[0].pop("ms")
        assert a == b

    @pytest.mark.parametrize("command", ["verify-binom", "report-all"])
    def test_unwritable_json_is_refused_before_any_check(
        self, command, tmp_path, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setitem(
            cli.CHECKS, "verify-binom", (lambda p, maxab: ran.append(p), ("p", "max"))
        )
        cfg = tmp_path / "own.cfg"
        cfg.write_text("verify-binom --p 2 --max 1\n")
        target = str(tmp_path / "missing" / "r.json")
        argv = ["report-all", "--config", str(cfg)]
        if command == "verify-binom":
            argv = ["verify-binom", "--p", "2", "--max", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json", target])
        assert exc.value.code == 2
        assert target in capsys.readouterr().err
        assert not ran

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qfrob.cli", "no-such-check"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_numpy(self):
        # numpy is a test-only dependency
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qfrob.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_missing_p_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lima", "--a", "1", "--b", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", BAD_ARGS)
    def test_bad_parameters_are_usage_errors(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args.split())
        assert exc.value.code == 2
        capsys.readouterr()


class TestConfig:
    def test_defaults_parse(self):
        specs = default_specs()
        names = {s.name for s in specs}
        assert {
            "verify-slash",
            "verify-twist",
            "verify-lima",
            "verify-vi",
            "verify-binom",
            "verify-nilhecke",
            "verify-thick",
            "verify-grass",
            "verify-frobenius",
            "verify-theta0",
        } <= names
        slash = [s for s in specs if s.name == "verify-slash"]
        assert {(s.params["p"], s.params["n"]) for s in slash} == {
            (p, n) for p in (2, 3) for n in range(1, 7)
        }

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "own.cfg"
        cfg.write_text("verify-binom --p 2 --max 1\n# comment\n")
        specs = default_specs(str(cfg))
        assert specs == [CheckSpec("verify-binom", {"p": 2, "max": 1})]

    def test_report_all_runs_custom_config(self, tmp_path, capsys):
        cfg = tmp_path / "own.cfg"
        cfg.write_text(
            "verify-binom --p 2 --max 2\nverify-lima --p 2 --a 1 --b 1\n"
        )
        rc = main(["report-all", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 2

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("verify-binom --p 2 --max 1\n")
        monkeypatch.setenv("QFROB_CONFIG", str(cfg))
        assert default_specs() == [CheckSpec("verify-binom", {"p": 2, "max": 1})]

    @pytest.mark.parametrize("line", BAD_ARGS)
    def test_bad_config_line_is_usage_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "own.cfg"
        cfg.write_text(f"verify-binom --p 2 --max 1\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["report-all", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config line 2" in capsys.readouterr().err

    def test_empty_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "own.cfg"
        cfg.write_text("# only a comment\n\n")
        with pytest.raises(SystemExit) as exc:
            main(["report-all", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "holds no check" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["flag", "env"])
    def test_unreadable_config_is_usage_error(
        self, spelling, tmp_path, capsys, monkeypatch
    ):
        missing = str(tmp_path / "missing.cfg")
        argv = ["report-all"]
        if spelling == "flag":
            argv += ["--config", missing]
        else:
            monkeypatch.setenv("QFROB_CONFIG", missing)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "own.cfg"
        cfg.write_bytes(b"verify-binom --p 2 --max 1\n\xff\xfe\n")
        with pytest.raises(SystemExit) as exc:
            main(["report-all", "--config", str(cfg)])
        assert exc.value.code == 2
        assert str(cfg) in capsys.readouterr().err

    def test_config_file_is_closed(self, tmp_path):
        cfg = tmp_path / "own.cfg"
        cfg.write_text("verify-binom --p 2 --max 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            default_specs(str(cfg))
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_failing_config_exit_one(self, tmp_path, capsys, monkeypatch):
        def crash(p, maxab):
            raise RuntimeError("check crashed")

        # a crashed check counts as a failure
        monkeypatch.setitem(cli.CHECKS, "verify-binom", (crash, ("p", "max")))
        cfg = tmp_path / "own.cfg"
        cfg.write_text("verify-binom --p 2 --max 1\n")
        rc = main(["report-all", "--config", str(cfg)])
        capsys.readouterr()
        assert rc == 1


class TestTheta0Check:
    def test_coproduct_compatibility_p2(self):
        rep = run_check(CheckSpec("verify-theta0", {"p": 2, "kmax": 2}))
        assert rep.status == "pass"

    @staticmethod
    def _patch_split(monkeypatch, change):
        real = symfunc.split_vars

        def patched(f, a, b):
            out = dict(real(f, a, b))
            change(out, f.p, a, b)
            return out

        monkeypatch.setattr(symfunc, "split_vars", patched)

    def test_changed_coefficient_on_shared_term_fails(self, monkeypatch):
        # ((3,3,3), (3,3,3)) is on both sides; doubled, the difference is
        # a term neither of whose factors is a coboundary
        key = ((3, 3, 3), (3, 3, 3))

        def double(out, p, a, b):
            if key in out:
                out[key] = 2 * out[key] % p

        self._patch_split(monkeypatch, double)
        assert cli.check_verify_theta0(3, 2) == (
            "fail",
            {"kmax": 2, "noncoboundary_term": (2, 1, 1, (3, 3, 3), (3, 3, 3))},
        )

    def test_leftover_coboundary_term_passes(self, monkeypatch):
        # π_(2,1) = ∂π_(2) in Sym_2 at p = 2, so a leftover term with that
        # left factor dies in slash cohomology; π_(3,2) is no coboundary
        assert schur(2, (2,), n=2).diff() == schur(2, (2, 1), n=2)

        def inject(out, p, a, b):
            if (a, b) == (2, 2):
                out[((2, 1), (3, 2))] = 1

        self._patch_split(monkeypatch, inject)
        assert cli.check_verify_theta0(2, 2) == ("pass", {"kmax": 2})

    def test_non_cocycle_generator_fails(self, monkeypatch):
        real = symfunc.theta0_gen

        def gen(i, p, n=None):
            g = real(i, p, n)
            return g + schur(p, (1,), n) if i == 2 else g

        monkeypatch.setattr(symfunc, "theta0_gen", gen)
        assert cli.check_verify_theta0(2, 2) == ("fail", {"kmax": 2, "not_cocycle": 2})


class TestLimaCheck:
    @staticmethod
    def _swap(monkeypatch, old, new):
        real = symfunc.lima_partitions

        def patched(b, a, p):
            return [new if tuple(lam) == old else lam for lam in real(b, a, p)]

        monkeypatch.setattr(symfunc, "lima_partitions", patched)

    def test_non_cocycle(self, monkeypatch):
        self._swap(monkeypatch, (2, 2), (1, 1, 1, 1))
        assert cli.check_verify_lima(2, 1, 2) == (
            "fail",
            {"dim": 3, "expected_dim": 3, "non_cocycle": "(1, 1, 1, 1)"},
        )

    def test_degree_mismatch(self, monkeypatch):
        self._swap(monkeypatch, (2, 2), (2, 1))
        assert cli.check_verify_lima(2, 1, 1) == (
            "fail",
            {"dim": 2, "expected_dim": 2, "degree_mismatch": 6},
        )


def test_cli_runs_no_elimination_of_its_own():
    assert not hasattr(cli, "SparseSpan")


def test_pdgmod_runs_no_elimination_of_its_own():
    # END's coboundaries read string coordinates off dual strings
    assert not hasattr(pdgmod, "linalg")


class TestFillsSegmentsTeeth:
    """lima and END decide coboundaries through `symfunc.fills_segments`:
    forced to False it makes every line free, forced to True it makes every
    partition a line, and both give wrong verdicts."""

    def _force(self, monkeypatch, value):
        def forced(lam, n, p):
            return value

        monkeypatch.setattr(symfunc, "fills_segments", forced)
        monkeypatch.setattr(pdgmod, "fills_segments", forced)

    def test_forced_false(self, monkeypatch):
        self._force(monkeypatch, False)
        assert cli.check_verify_lima(2, 1, 1) == (
            "fail",
            {"dim": 2, "expected_dim": 2, "dependent_modulo_coboundary": 0},
        )
        alg = pdgmod.end_algebra((2, 2), 2)
        assert alg.is_slash_coboundary(alg.op_identity())

    def test_forced_true(self, monkeypatch):
        self._force(monkeypatch, True)
        assert pdgmod.thick_nilhecke_check(2, 2)["dot_slide_mod_coboundary"] is False
        assert cli.check_verify_thick(2, 3)[0] == "fail"


def test_src_builds_no_partition_complex():
    # the complexes on partition labels and truncated complexes are built
    # only by the tests (library_extras); src reads them off beads
    moved = {
        symfunc: ("_content_complex", "sym_pcomplex", "twist_pcomplex", "vab_pcomplex"),
        symfunc.SchurPoly: ("degree",),
        pcomplex: ("GradedDims",),
        pcomplex.PComplex: ("independent_mod_coboundaries", "dual"),
        pcomplex.SlashCohomology: ("hilbert",),
        partitions: ("partitions_of",),
    }
    assert not [(obj, name) for obj, names in moved.items() for name in names if hasattr(obj, name)]
