import json
from fractions import Fraction

import pytest

from loglegendre import cli, legendre
from loglegendre.exact import DensePoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *argv):
    """run(), with argparse's exit on a usage error read as the exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("log2-m1", "log2-m2", "log54-m3", "log65-m3",
                     "log2019-m4", "hmv-n2"):
            assert name in out


class TestBoundCommand:
    def test_preset_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--preset", "log2-m1",
                           "--precision", "128")
        assert code == 0
        payload = json.loads(out)
        assert payload["approx_exponent"].startswith("3.5745539025")
        assert "timestamp" in payload

    def test_deterministic_modulo_timestamp(self, capsys):
        _, out1, _ = run(capsys, "bound", "--preset", "hmv-n2", "--precision", "128")
        _, out2, _ = run(capsys, "bound", "--preset", "hmv-n2", "--precision", "128")
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("timestamp"), p2.pop("timestamp")
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "bound", "--preset", "log2-m1",
                           "--precision", "128", "--format", "table")
        assert code == 0
        assert "approx exponent 3.5745539" in out

    def test_inline_flags(self, capsys):
        code, out, _ = run(capsys, "bound", "--z", "-1", "--p", "4,5,3",
                           "--q", "1,2,0", "--m", "1", "--precision", "128")
        assert code == 0
        assert json.loads(out)["poly_exponent"].startswith("2.574553")

    def test_invalid_m_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--z", "-1", "--p", "4,5,3",
                           "--q", "1,2,0", "--m", "7", "--precision", "128")
        assert code == 2
        assert "usage error" in err

    def test_decimal_z_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--z", "-0.5", "--p", "1,1",
                           "--q", "0,0", "--m", "1")
        assert code == 2

    def test_hypothesis_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "bound", "--z=-1/99", "--p", "1,1",
                           "--q", "0,0", "--m", "1", "--precision", "128")
        assert code == 3
        assert "hypothesis failure" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "bound", "--preset", "nope")
        assert code == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z = -1\np = 4,5,3\nq = 1,2,0\nm = 1\n# comment\n")
        code, out, _ = run(capsys, "bound", "--config", str(cfg),
                           "--precision", "128")
        assert code == 0
        assert json.loads(out)["params"]["z"] == "-1/1"

    @pytest.mark.parametrize("text, flags, key", [
        ("", ["--preset", "log2-m1", "--m", "2"], "m"),
        ("", ["--preset", "log2-m1", "--z=-3"], "z"),
        ("", ["--preset", "log2-m1", "--n", "7"], "n"),
        ("", ["--preset", "log2-m1", "--p", "1,1"], "p"),
        ("", ["--preset", "log2-m1", "--q", "0,0"], "q"),
        ("preset = log2-m1\nm = 2\n", [], "m"),
        ("z = -3\n", ["--preset", "log2-m1"], "z"),
        ("preset = log2-m1\n", ["--n", "7"], "n")])
    def test_preset_with_instance_key_is_usage_error(self, capsys, tmp_path, text, flags, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "bound", "--config", str(cfg), *flags,
                             "--precision", "128")
        assert code == 2
        assert err.startswith("usage error: preset 'log2-m1'") and err.rstrip().endswith(f"drop {key}")
        assert out == ""

    @pytest.mark.parametrize("key", ["precision", "precison", "t"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset = log2-m1\n{key} = 1024\n")
        code, out, err = run(capsys, "bound", "--config", str(cfg), "--precision", "128")
        assert code == 2
        assert err.startswith(f"usage error: unknown config key {key!r}")
        assert out == ""

    @pytest.mark.parametrize("text, key", [
        ("z = -1\np = 4,5,3\nq = 1,2,0\nm = 1\nz = -3\n", "z"),
        ("preset = log2-m1\npreset = hmv-n2\n", "preset")])
    def test_repeated_config_key_is_usage_error(self, capsys, tmp_path, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "bound", "--config", str(cfg), "--precision", "128")
        assert code == 2
        assert err.startswith(f"usage error: config key {key!r} is given twice")
        assert out == ""

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, _, err = run(capsys, "bound", "--config", str(missing))
        assert code == 2
        assert "usage error" in err and "absent.cfg" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "bound", "--preset", "hmv-n2",
                         "--precision", "128", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["params"]["n"] == 2

    @pytest.mark.parametrize("line", ["m = one", "n = x"])
    def test_non_integer_config_value_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"z = -1\np = 4,5,3\nq = 1,2,0\n{line}\n")
        code, out, err = run(capsys, "bound", "--config", str(cfg),
                             "--precision", "128")
        assert code == 2
        assert "usage error" in err and "Traceback" not in err
        assert out == ""

    @staticmethod
    def instance_argv(tmp_path, where, **given):
        """The flags of an instance, or a config file holding the same keys."""
        if where == "flags":
            return [arg for key, value in given.items() for arg in (f"--{key}", value)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in given.items()))
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("where", ["flags", "config"])
    @pytest.mark.parametrize("p, q, bad", [
        ("4 5 3", "1 2 0", "4 5 3"),  # once read as the one pair p = 453, q = 120
        ("4,,5,3", "1,2,0", "4,,5,3"), ("4,5,3,", "1,2,0", "4,5,3,"),
        ("4,5,3", ",1,2,0", ",1,2,0"), ("4,5,3", "1, 2 0", "1, 2 0"),
        ("4,\t5,3 3", "1,2,0", "4,\t5,3 3")])
    def test_loose_integer_list_is_usage_error(self, capsys, tmp_path, where, p, q, bad):
        argv = self.instance_argv(tmp_path, where, z="-1", p=p, q=q)
        code, out, err = run(capsys, "construct", *argv)
        assert code == 2
        assert err.startswith("usage error:") and repr(bad) in err
        assert out == ""

    @pytest.mark.parametrize("where", ["flags", "config"])
    def test_spaces_around_list_entries_accepted(self, capsys, tmp_path, where):
        argv = self.instance_argv(tmp_path, where, z="-1", p="4, 5 ,3", q=" 1,2,\t0", m="1")
        code, out, _ = run(capsys, "bound", *argv, "--precision", "128")
        assert code == 0
        assert json.loads(out)["params"]["p"] == [4, 5, 3]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "absent" / "report.json" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, "bound", "--preset", "hmv-n2",
                             "--precision", "128", "--out", str(target))
        assert code == 2
        assert "usage error" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("preset", ["log2-m1", "log2019-m4"])
    def test_minimum_precision_succeeds(self, capsys, preset):
        # 64 bits is the smallest precision accepted; tiny but legitimate
        # characteristic values there must not count as vanishing
        code, out, err = run(capsys, "bound", "--preset", preset, "--precision", "64")
        assert code == 0, err
        assert json.loads(out)["params"]["n"] >= 3


class TestVerifyCommand:
    def test_hyperharmonic_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hyperharmonic", "--max", "12")
        assert code == 0
        assert "hyperharmonic: PASS" in out

    def test_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--count", "6")
        assert code == 0
        assert "oracle: PASS" in out

    def test_derivative_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "derivative", "--count", "10")
        assert code == 0

    @pytest.mark.parametrize("suite", ["structural", "integrality"])
    def test_exact_suites(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--count", "5")
        assert code == 0
        assert f"{suite}: PASS" in out

    def test_integrality_suite_names_a_wrong_iterate(self, capsys, monkeypatch):
        real = cli.transform_iterates

        def wrong(params, t, L, m):
            out = real(params, t, L, m)
            return out[:-1] + [out[-1] + DensePoly([1])]

        monkeypatch.setattr(cli, "transform_iterates", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "integrality", "--count", "5")
        assert code == cli.EXIT_INTERNAL
        fails = [line for line in out.splitlines() if "FAIL iterates" in line]
        assert len(fails) == 4  # max(4, count // 5) instances
        assert all(line.strip().startswith("FAIL iterates at p=(") and " t=" in line
                   for line in fails)

    def test_structural_suite_runs_the_checks_that_need_m(self, capsys, monkeypatch):
        calls = {"check_orthogonality": 0, "check_trivial_integrality": 0}
        for name in calls:
            check = getattr(legendre, name)

            def counted(*args, _name=name, _check=check):
                calls[_name] += 1
                return _check(*args)

            monkeypatch.setattr(legendre, name, counted)
        code, out, _ = run(capsys, "verify", "--suite", "structural", "--count", "4")
        assert code == 0 and "structural: PASS" in out
        assert calls == {"check_orthogonality": 4, "check_trivial_integrality": 4}

    @pytest.mark.parametrize("suite", ["all", "structural", "oracle", "hyperharmonic",
                                       "derivative", "integrality"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, capsys, suite, count):
        code, out, err = run(capsys, "verify", "--suite", suite, "--count", count)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: --count")
        assert "PASS" not in out and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["all", "hyperharmonic"])
    def test_negative_max_is_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max", "-1")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: --max")
        assert "PASS" not in out and "Traceback" not in err

    def test_smallest_ranges_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hyperharmonic", "--max", "0")
        assert code == 0 and "hyperharmonic: PASS" in out
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--count", "1")
        assert code == 0 and "oracle: PASS" in out


class TestConstructCommand:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "--z", "-1", "--p", "1,1",
                           "--q", "0,0", "--t", "1")
        assert code == 0
        assert [Fraction(line) for line in out.splitlines()] == [1, -3, 2]

    def test_transforms_included_with_m(self, capsys):
        code, out, _ = run(capsys, "construct", "--z", "-1", "--p", "1,1",
                           "--q", "0,0", "--m", "1", "--t", "1")
        assert code == 0
        assert "# transform 1" in out

    def test_zero_scale_is_usage_error(self, capsys):
        code, out, err = run(capsys, "construct", "--preset", "log2-m1", "--t", "0")
        assert code == 2
        assert "usage error" in err and out == ""


class TestDeltaCommand:
    def test_example_values(self, capsys, example1):
        code, out, _ = run(capsys, "delta", "--preset", "log2-m1", "--t", "12",
                           "--precision", "128")
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor"] == "18579448222667298067513"
        assert payload["rate_limit"].startswith("4.995102335817")

    def test_divisor_beyond_int_str_limit(self, capsys):
        # Delta_3000 has 6389 digits, more than str(int) converts by default
        from decimal import Decimal

        from loglegendre.divisors import guaranteed_divisor
        from loglegendre.measures import preset_catalog
        code, out, _ = run(capsys, "delta", "--preset", "log2-m1", "--t", "3000")
        assert code == 0
        digits = json.loads(out)["divisor"]
        assert len(digits) == 6389 and digits.isdigit()
        assert int(Decimal(digits)) == guaranteed_divisor(preset_catalog()["log2-m1"], 3000)

    def test_ten_exponent_pairs(self, capsys):
        code, out, _ = run(capsys, "delta", "--z", "-1", "--p", "1,2,3,4,5,6,7,8,9,10",
                           "--q", "0,1,2,3,4,5,6,7,8,9", "--t", "12")
        assert code == 0
        payload = json.loads(out)
        assert int(payload["divisor"]) >= 1 and payload["mu_profile"]

    def test_zero_scale_is_usage_error(self, capsys):
        code, out, err = run(capsys, "delta", "--preset", "log2-m1", "--t", "0")
        assert code == 2
        assert "usage error" in err and out == ""


class TestAsymptoticsCommand:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--preset", "log2-m1",
                           "--sequence", "L", "--t-max", "12")
        assert code == 0
        assert "slope," in out and "target," in out

    def test_form_sequence(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--preset", "log2-m1",
                           "--sequence", "I", "--t-max", "10")
        assert code == 0
        target = [ln for ln in out.splitlines() if ln.startswith("target,")][0]
        assert target.startswith("target,-10.31")

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "asymptotics", "--preset", "log2-m1",
                           "--sequence", "L", "--t-max", "8")
        _, parallel, _ = run(capsys, "asymptotics", "--preset", "log2-m1",
                             "--sequence", "L", "--t-max", "8", "--threads", "2")
        assert serial == parallel

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._worker_count(64) == 2
        assert cli._worker_count(2) == 2
        assert cli._worker_count(1) == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._worker_count(8) == 1

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_nonpositive_threads_is_usage_error(self, capsys, threads):
        code, out, err = run(capsys, "asymptotics", "--preset", "log2-m1",
                             "--t-max", "8", "--threads", threads)
        assert code == 2
        assert "usage error" in err and out == ""

    def test_missing_t_max(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--preset", "log2-m1")
        assert code == 2

    @pytest.mark.parametrize("t_max", ["5", "3", "0", "-3"])
    def test_too_short_range_is_usage_error(self, capsys, monkeypatch, t_max):
        # log2-m1 has n = 3, so the window fit needs --t-max >= n + 3 = 6;
        # the I sequence at a high precision is refused before any value
        calls = []
        monkeypatch.setattr(cli, "_asym_point", lambda job: calls.append(job) or 1)
        code, out, err = run(capsys, "asymptotics", "--preset", "log2-m1", "--sequence", "I",
                             "--t-max", t_max, "--precision", "4096")
        assert code == 2
        assert "usage error" in err and "n + 3 = 6" in err and "Traceback" not in err
        assert out == ""
        assert calls == []


class TestNumberGrammar:
    """An integer is an optional sign and ASCII digits, and z is an integer
    or an integer, '/' and an integer; spaces may surround a number only."""

    @pytest.mark.parametrize("argv", [
        ["construct", "--preset", "hmv-n2", "--t", "1_0"],
        ["delta", "--preset", "hmv-n2", "--t", "\u0661"],
        ["bound", "--preset", "hmv-n2", "--precision", "1_28"],
        ["delta", "--preset", "hmv-n2", "--precision", "\u0661\u0662\u0668"],
        ["verify", "--suite", "oracle", "--count", "\u0661"],
        ["verify", "--suite", "hyperharmonic", "--max", "2_5"],
        ["verify", "--suite", "oracle", "--seed", "0_1"],
        ["asymptotics", "--preset", "hmv-n2", "--t-max", "1_0"],
        ["asymptotics", "--preset", "hmv-n2", "--t-max", "8", "--threads", "0_1"],
        ["construct", "--preset", "hmv-n2", "--t", "+"],
        ["construct", "--preset", "hmv-n2", "--t", "1 0"],
        ["delta", "--preset", "hmv-n2", "--precision", "1" * 5000],
    ])
    def test_loose_integer_flag_is_usage_error(self, capsys, argv):
        code, out, err = run_exit(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == "" and "Traceback" not in err

    @staticmethod
    def instance_argv(tmp_path, where, **given):
        """`--key=value` for each key, or a config file holding the same keys."""
        if where == "flags":
            return [f"--{key}={value}" for key, value in given.items()]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in given.items()))
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("where", ["flags", "config"])
    @pytest.mark.parametrize("key, value", [
        ("p", "1,1_0"), ("q", "0,\u0660"), ("m", "0_1"), ("m", "1.5"), ("n", "\u0662"),
        ("z", "-1e1"), ("z", "-1_0"), ("z", "-\u0661"), ("z", "-1/ 99"), ("z", "-1/0"),
        ("z", "1/2/3"), ("z", "-1.5"), ("z", "--1"), ("z", "-1/"), ("z", "/2")])
    def test_loose_instance_number_is_usage_error(self, capsys, tmp_path, where, key, value):
        given = {"z": "-1", "p": "1,2", "q": "0,0", "m": "1", key: value}
        argv = self.instance_argv(tmp_path, where, **given)
        code, out, err = run_exit(capsys, "construct", *argv, "--t", "1")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and out == ""

    @pytest.mark.parametrize("where", ["flags", "config"])
    def test_signs_and_surrounding_spaces_accepted(self, capsys, tmp_path, where):
        argv = self.instance_argv(tmp_path, where, z=" -1/99 ", p=" 1,+1", q="0, 0",
                                  m=" +1", n="2 ")
        code, out, _ = run_exit(capsys, "construct", *argv, "--t", " 2 ")
        assert code == 0
        assert (0, out) == run(capsys, "construct", "--z=-1/99", "--p", "1,1", "--q", "0,0",
                               "--m", "1", "--t", "2")[:2]


class TestExitCodeMapping:
    def test_internal_error_maps_to_4(self, capsys, monkeypatch):
        from loglegendre.errors import InternalCheckError

        def boom(*a, **k):
            raise InternalCheckError("fabricated")

        monkeypatch.setattr(cli, "measure_bound", boom)
        code, _, err = run(capsys, "bound", "--preset", "log2-m1")
        assert code == 4
        assert "internal error" in err

    def test_root_refinement_failure_maps_to_4(self, capsys, monkeypatch):
        from loglegendre import spectral

        # one Durand-Kerner sweep from the fixed starts does not converge
        monkeypatch.setattr(spectral, "LOCATOR_MAX_SWEEPS", 1)
        code, out, err = run(capsys, "bound", "--preset", "log2-m1", "--precision", "128")
        assert code == 4
        assert "internal error" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, extra", [("bound", ["--precision", "64"]),
                                                ("bound", []),
                                                ("asymptotics", ["--t-max", "10"])])
    def test_exact_threshold_tie_maps_to_4(self, capsys, command, extra):
        # z = -1/3, p = (1, 1), q = (0, 0): v = 4 and 4/9, and the threshold is exactly 4
        code, out, err = run(capsys, command, "--z=-1/3", "--p", "1,1", "--q", "0,0",
                             "--m", "1", *extra)
        assert code == 4
        assert "threshold tie" in err and out == ""

    def test_low_precision_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["bound", "--preset", "log2-m1", "--precision", "32"])


class TestBrokenPipe:
    def test_reader_closing_early_gives_no_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        # about 350 kB of output, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "loglegendre.cli", "construct", "--preset", "log2-m1", "--t", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert head == b"0/1\n0/1\n0/"
        assert "Traceback" not in err
        assert code == 1
