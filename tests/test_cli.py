import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from io import StringIO
from pathlib import Path

import pytest

from tracelab import trace
from tracelab.cache import CACHE_VERSION
from tracelab.cli import _COMMANDS, _build_parser, main
from tracelab.experiments import genericity_csv, genericity_scan
from tracelab.trace import TraceEngine, trace_poly
from tracelab.words import parse

from _oracles import direct_fiber_totals

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    out = StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTrace:
    def test_json_schema(self):
        code, out = run("trace", "xy", "--json")
        assert code == 0
        assert json.loads(out) == {"f": "u", "r": 1, "A": 1, "B": 1}

    def test_text_format(self):
        code, out = run("trace", "xyXY")
        assert code == 0
        assert out.splitlines() == [
            "word: xyXY",
            "canonical: xyx^-1y^-1",
            "r: 2  A: 0  B: 0  length: 4",
            "f: u^2 - s*t*u + s^2 + t^2 - 2",
        ]

    def test_large_exponent(self):
        code, out = run("trace", "x^1000y", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["f"] == trace_poly(parse("x^1000y")).f.render()
        assert (blob["A"], blob["B"]) == (1000, 1)

    def test_degenerate_word(self):
        code, out = run("trace", "xxx")
        assert code == 0
        assert "s^3 - 3*s" in out

    @pytest.mark.parametrize(
        "word, r",
        [("x^3", 0), ("", 0), ("xxyXYYxyXy", 4), ("Yx", 1)],
        ids=["pure-power", "empty", "canonical", "rotated"],
    )
    def test_r_is_the_complexity(self, word, r):
        code, out = run("trace", word, "--json")
        assert code == 0
        assert json.loads(out)["r"] == r
        code, out = run("trace", word)
        assert code == 0
        assert out.splitlines()[2].startswith(f"r: {r}  ")

    def test_syntax_error_exit_two(self, capsys):
        code, _ = run("trace", "zz")
        assert code == 2

    @pytest.mark.parametrize(
        "word", ["x^\u00b2", "x^\u0663y", "x^" + "1" * 5000 + "y"], ids=["superscript", "arabic-indic", "5000-digits"]
    )
    def test_malformed_exponent_is_a_syntax_error(self, capsys, word):
        assert run("trace", word) == (2, "")
        assert capsys.readouterr().err.startswith("tracelab: syntax error: ")

    def test_deterministic(self):
        assert run("trace", "xxyXYxy") == run("trace", "xxyXYxy")


class TestClassify:
    def test_square_word_json(self):
        code, out = run("classify", "xyxy", "--p-max", "5", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["conclusion"] == "NotEquidistributed"
        assert blob["bad_prime"] == 3
        assert blob["certified_to"] is None
        assert blob["rational"]["class"] == "CompositeQ"
        assert blob["rational"]["witness"] == {
            "outer": "z^2 - 2",
            "inner": "u",
            "dickson_index": 2,
        }
        by_p = {row["p"]: row for row in blob["per_prime"]}
        assert by_p[2]["class"] == "SpecialP"
        assert by_p[2]["frobenius_k"] == 1
        assert by_p[3]["class"] == "CompositeNotSpecial"

    def test_commutator_certified(self):
        code, out = run("classify", "xyXY", "--p-max", "11", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["conclusion"] == "Equidistributed-certified-to-11"
        assert blob["certified_to"] == 11
        assert blob["bad_prime"] is None
        assert all(row["class"] == "NoncompositeP" for row in blob["per_prime"])

    def test_p_max_below_two_exit_two(self, capsys):
        code, out = run("classify", "xyxy", "--p-max", "1")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "tracelab: error: p_max must be >= 2\n"

    def test_p_max_past_the_guard_exit_two(self, capsys):
        start = time.monotonic()
        code, out = run("classify", "xy", "--p-max", "1000000000")
        assert time.monotonic() - start <= 1
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == "tracelab: error: resource guard exceeded: p_max = 1000000000 > 10000\n"

    def test_degenerate_report(self):
        code, out = run("classify", "x", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["degenerate"] is True
        assert blob["f"] == "s"


class TestFibers:
    def test_csv_output(self):
        code, out = run("fibers", "xyXY", "--q", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class_id,trace,type,class_size,fiber_per_element,deviation"
        assert "central_tr2,2,central,1,1080,8" in lines
        assert len(lines) == 10  # header + 9 classes

    def test_psl_flag(self):
        code, out = run("fibers", "xyXY", "--q", "5", "--psl")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert all(r.startswith("psl:") for r in rows)
        assert len(rows) == 5

    def test_oversized_q(self):
        code, _ = run("fibers", "xy", "--q", "131")
        assert code == 2

    def test_untraceable_word_past_q_81(self):
        # 34 letters after exponent reduction, counted without tracing
        code, out = run("fibers", "xy" * 17, "--q", "83")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2 + 4 + 81  # header and 87 classes

    # Exponents are reduced modulo lcm(6, 8, 14) = 168.  The first residue word
    # is x^64y^-63, read from one pair per point; the second x^3y^3, traced.
    # The 32-letter word was the slowest of 260 random ones to trace on a cold
    # engine; the 48-letter word is read from one pair per point, and tracing
    # it takes about 10 s.
    @pytest.mark.parametrize(
        "wtext",
        [
            "x^1000000y^-999999",
            "x^1000107y^-1000106x^1000104y^5",
            "x^-1yx^2yx^-2y^-2x^2y^-1x^-1yx^-1y^-2x^-1yx^2yxy^-2xyx^-2y^-2x^-1",
            "y^-1x^-2y^-1x^2y^2xy^-2x^-1y^-2x^-1yxy^-2xyx^-2y^2x^2y^-2xy^-2x^-2"
            "y^-1x^-2y^-1x^-2yx^2yx^-1y^-2x^-1",
        ],
        ids=["residue-direct", "residue-traced", "at-cap", "past-cap"],
    )
    def test_within_budget_and_exact(self, wtext):
        t0 = time.monotonic()
        code, out = run("fibers", wtext, "--q", "7")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert elapsed <= 2, f"budget exceeded: {elapsed:.1f}s > 2s"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[3]) * int(r[4]) for r in rows] == direct_fiber_totals(parse(wtext), 7)


class TestEpsilon:
    def test_uniform_word(self):
        code, out = run("epsilon", "xy", "--q", "7", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["epsilon"] == "0"
        assert blob["excluded_classes"] == []
        assert blob["params"] == {
            "q0": 10000,
            "A": 18,
            "alpha": 1,
            "B": 101,
            "beta": 0.5,
        }

    def test_q_list(self):
        code, out = run("epsilon", "xyXY", "--q-list", "5,7", "--json")
        assert code == 0
        blob = json.loads(out)
        assert [row["q"] for row in blob] == [5, 7]
        assert blob[0]["epsilon"] == "13/24"
        assert blob[1]["epsilon"] == "5/12"

    @pytest.mark.parametrize("q_list", ["", ",", ",,"])
    def test_q_list_without_a_q_exit_two(self, q_list, capsys):
        assert run("epsilon", "xy", "--q-list", q_list) == (2, "")
        assert "--q-list names no q" in capsys.readouterr().err


class TestScan:
    def test_exhaustive_cumulative_counts(self):
        code, out = run("scan", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,total,proper_powers,certified,mu_power,mu_certified"
        data = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in data] == [
            ("2", "4", "0"),
            ("3", "12", "0"),
            ("4", "40", "4"),
            ("5", "120", "4"),
            ("6", "364", "16"),
        ]

    def test_exhaustive_scan_at_twelve(self):
        # past the reach of the walk over every word, about 15 s on a 2-vCPU host
        code, out = run("scan", "--n-max", "12")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("12,265720,404,265316,")

    def test_sampled_scan(self):
        a = run("scan", "--n-max", "7", "--samples", "100", "--seed", "3")
        b = run("scan", "--n-max", "7", "--samples", "100", "--seed", "3")
        assert a == b

    def test_constraint_reaches_the_scan(self):
        code, out = run("scan", "--n-max", "6", "--constraint", "prime-complexity")
        assert code == 0
        data = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[0], r[1]) for r in data] == [("4", "16"), ("5", "80"), ("6", "304")]
        sampled = genericity_scan(
            7, mode="sampled", samples=50, seed=2, constraint="prime-complexity"
        )
        assert [r.n for r in sampled] == [4, 5, 6, 7]
        argv = ["--n-max", "7", "--samples", "50", "--seed", "2"]
        got = run("scan", *argv, "--constraint", "prime-complexity")
        assert got == (0, genericity_csv(sampled))
        assert got != run("scan", *argv)

    def test_seed_without_samples_exit_two(self, capsys):
        code, out = run("scan", "--n-max", "4", "--seed", "3")
        assert code == 2
        assert out == ""
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_max, samples, message",
        [("200", "1", "capped at n_max = 32"), ("2", "1000000000", "capped at samples = 5000")],
    )
    def test_sampled_scan_past_a_cap_exit_two(self, n_max, samples, message, capsys):
        start = time.monotonic()
        code, out = run("scan", "--n-max", n_max, "--samples", samples)
        assert time.monotonic() - start <= 1
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"tracelab: error: sampled scan {message}\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_two(self, samples, capsys):
        code, out = run("scan", "--n-max", "4", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["identities", "dickson", "fibers"])
    def test_suites_pass(self, suite):
        code, out = run("verify", "--suite", suite)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("OK: 0 failure")

    def test_all_suites(self):
        code, out = run("verify", "--suite", "all")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            run("verify", "--suite", "bogus")
        assert exc.value.code == 2


class TestErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("fibers", "xy")
        assert exc.value.code == 2

    def test_bad_word_exit_code(self):
        assert run("classify", "qq")[0] == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2


def _fresh_cli(*argv):
    """(exit code, stdout, stderr, seconds) of the command in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "tracelab.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - start


class TestWordSize:
    # x^4000y took 4.5 s to trace and 6.1 s for epsilon at q = 7 when each
    # block cost O(e^2) term operations; the closed form makes them O(e)
    @pytest.mark.parametrize(
        "argv", [("trace", "x^4000y"), ("epsilon", "x^4000y", "--q", "7", "--json")]
    )
    def test_long_exponent_within_budget(self, argv):
        code, out, err, seconds = _fresh_cli(*argv)
        assert code == 0, err
        assert out
        assert seconds <= 3, f"budget exceeded: {seconds:.1f}s > 3s"

    @pytest.mark.parametrize(
        "argv",
        [
            ("trace", "x^123456y"),
            ("classify", "x^123456y"),
            ("epsilon", "x^123456y", "--q", "7"),
            ("trace", "x^1000y^1000x^1000y^-1000"),
        ],
    )
    def test_word_past_the_bounds_refused(self, argv, capsys):
        start = time.monotonic()
        code, out = run(*argv)
        seconds = time.monotonic() - start
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("tracelab: error: word too large to trace: ")
        assert err.count("\n") == 1
        assert seconds <= 2, f"the refusal took {seconds:.1f}s"

    @pytest.mark.parametrize("command", ["trace", "classify"])
    def test_a_long_power_of_a_short_root_runs(self, command):
        code, out = run(command, "xy" * 100)
        assert code == 0
        assert out

    def test_fibers_reduces_exponents_first(self):
        code, out = run("fibers", "x^123456y", "--q", "7")
        assert code == 0
        assert out == run("fibers", f"x^{123456 % 336}y", "--q", "7")[1]


class TestCacheFlag:
    """No command reads or writes the trace cache: ``--cache`` and TRACELAB_CACHE are gone."""

    def test_cold_and_warm_runs_identical(self, monkeypatch):
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        for argv in (("trace", "xyXYxy"), ("classify", "xyXYxY", "--json")):
            assert run(*argv) == run(*argv)

    def test_warm_classify_reads_the_cache(self, monkeypatch):
        # within one process the cache is the default engine's memo
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        cold = run("classify", "xyXYxY", "--json")
        steps = []
        init = trace._WordEntry.__init__

        def counted(entry, f, *rest):
            # every f_w the engine computes, by product or by D_k, enters a new entry
            steps.append(f)
            init(entry, f, *rest)

        monkeypatch.setattr(trace._WordEntry, "__init__", counted)
        warm = run("classify", "xyXYxY", "--json")
        assert steps == []
        assert warm == cold

    def test_commands_that_ignore_the_cache_reject_the_flag(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        for argv in (("fibers", "xy", "--q", "5"), ("epsilon", "xy", "--q", "5"), ("scan", "--n-max", "2"), ("verify",)):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--cache", path)
            assert exc.value.code == 2
            assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["trace", "classify"])
    @pytest.mark.parametrize("name", ["a-directory", "a-file/cache.json"])
    def test_unwritable_cache_path_exit_two(self, tmp_path, capsys, command, name):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        with pytest.raises(SystemExit) as exc:
            run(command, "xy", "--cache", str(tmp_path / name))
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not list((tmp_path / "a-directory").iterdir())
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["trace", "classify"])
    def test_file_that_is_not_a_cache_exit_two(self, tmp_path, monkeypatch, command):
        notes = tmp_path / "notes.txt"
        notes.write_text("remember the milk\n")
        with pytest.raises(SystemExit) as exc:
            run(command, "xy", "--cache", str(notes))
        assert exc.value.code == 2
        unset = run(command, "xy")
        monkeypatch.setenv("TRACELAB_CACHE", str(notes))
        assert run(command, "xy") == unset
        assert notes.read_text() == "remember the milk\n"

    @pytest.mark.parametrize("command", ["trace", "classify"])
    def test_wrong_entry_in_the_file_is_a_miss_and_overwritten(self, tmp_path, monkeypatch, command):
        # a cache file left by an older tracelab, holding 2*u under xy, whose f is u:
        # the CLI never reads it, prints the true answer and leaves the file as it was
        path = tmp_path / "cache.json"
        stale = json.dumps({"version": CACHE_VERSION, "entries": {"xy": "0,1,0,2"}})
        path.write_text(stale)
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        with pytest.raises(SystemExit) as exc:
            run(command, "xy", "--cache", str(path))
        assert exc.value.code == 2
        monkeypatch.setenv("TRACELAB_CACHE", str(path))
        code, out = run(command, "xy")
        assert code == 0
        if command == "trace":
            assert out.splitlines()[-1] == "f: u"
        else:
            assert "Equidistributed-certified-to-13" in out
        assert path.read_text() == stale

    def test_env_variable_cache(self, tmp_path, monkeypatch):
        target = tmp_path / "env-cache.json"
        monkeypatch.delenv("TRACELAB_CACHE", raising=False)
        unset = [run("trace", "xyxYxy"), run("classify", "xyxYxy")]
        monkeypatch.setenv("TRACELAB_CACHE", str(target))
        assert [run("trace", "xyxYxy"), run("classify", "xyxYxy")] == unset
        assert not target.exists()


class TestClosedOutput:
    # x^4000y fails in a print, xy in the flush after the command
    @pytest.mark.parametrize(
        "argv", [("trace", "x^4000y"), ("trace", "xy"), ("classify", "xyXY", "--json")], ids=" ".join
    )
    def test_closed_stdout_ends_quietly(self, argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tracelab.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == ""


def _readme_cli_lines():
    """The argument lists of the ``tracelab`` lines in the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("tracelab ")]


class TestReadme:
    def test_cli_block_flags_are_accepted(self):
        lines = _readme_cli_lines()
        assert {argv[0] for argv in lines} == set(_COMMANDS)
        subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for argv in lines:
            accepted = subparsers.choices[argv[0]]._option_string_actions
            for token in argv:
                if token.startswith("--"):
                    assert token.split("=", 1)[0] in accepted, f"{token} in {argv}"
            _build_parser().parse_args(argv)
