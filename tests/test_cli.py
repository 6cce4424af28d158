import json
import subprocess
import sys

import pytest

from qfrob import cli, qgroup
from qfrob.cyclotomic import LaurentPoly
from qfrob.cli import CheckSpec, default_specs, main, run_check


# parameters no check can decide on: a non-prime p (the F_p eliminations
# invert by Fermat), a negative n, a cap below 2(p−1), which leaves an
# empty valid window, a thick check with a·p over its size guard, and a
# nilHecke check whose staircase module rank p! is over the END size guard
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
            return c + LaurentPoly.v_power(5) if (tag, m, k) == ("generic", 2, 1) else c

        qgroup.oracle_box_check.cache_clear()
        monkeypatch.setattr(qgroup, "_ring_binom", wrong)
        try:
            status, values = cli.check_verify_frobenius(2, 1, 2, 2, 4)
        finally:
            qgroup.oracle_box_check.cache_clear()
        assert status == "fail"
        assert values["oracle_ok"] is False
        assert values["hom_ok"] and values["kernel_ok"]


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
