"""End-to-end CLI behaviour: output shapes, exit codes, precedence."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from superder import cli
from superder.algebra import KIND_L, BasisVector, Element
from superder.annihilator import GradedWindow
from superder.cli import (
    ENV_SEED,
    EXIT_CLOSED_OUTPUT,
    MAX_ANNIHILATE_BOUND,
    MAX_GLOBALIZE_BOUND,
    MAX_JACOBI_BOUND,
    _load_config,
    run_command,
)
from superder.expr import MAX_DIGITS
from superder.lemmas import LEMMA_NAMES, run_lemma
from superder.two_local import MAX_RANDOM_TESTS, TestSet, TwoLocalOracle

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_parse_error_line(err, position=None):
    """One stderr line naming the ParseError, with the position once, at the
    end of the message."""
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith("error: ParseError: ")
    assert err.count("position") == 1
    at = r"\d+" if position is None else str(position)
    assert re.search(r" \(at position %s\)\n$" % at, err)


class TestBracket:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "bracket", "--algebra", "svir0",
                           "G[1]", "G[-1]")
        assert code == 0
        assert out == "2*L[0] + 1/4*C\n"

    def test_default_algebra_is_vir(self, capsys):
        code, out, _ = run(capsys, "bracket", "L[2]", "L[-2]")
        assert code == 0
        assert out == "4*L[0] + 1/2*C\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "bracket", "--json", "--algebra", "svir0",
                           "G[1]", "G[-1]")
        assert code == 0
        assert json.loads(out) == {
            "algebra": "svir0",
            "x": "G[1]",
            "y": "G[-1]",
            "result": "2*L[0] + 1/4*C",
        }


class TestJacobi:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--bound", "1")
        assert code == 0
        assert out == "0 violations / 64 triples\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--json", "--bound", "1",
                           "--algebra", "svir12")
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra"] == "svir12"
        assert payload["bound"] == 1
        assert payload["violations"] == 0
        assert payload["verdict"] == "pass"
        assert payload["triples"] == 6 ** 3


class TestDefect:
    def test_outer_derivation_has_no_defect(self, capsys):
        code, out, _ = run(capsys, "defect", "--algebra", "sw22",
                           "D", "L[2]", "I[-1]")
        assert code == 0
        assert out == "0\n"

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "defect", "--json", "--algebra", "svir0",
                           "ad(G[1])", "G[0]", "G[2]")
        assert code == 0
        payload = json.loads(out)
        assert payload["derivation"] == "ad(G[1])"
        assert payload["zero"] is True
        assert payload["defect"] == "0"


class TestAnnihilate:
    def test_default_bound_rule(self, capsys):
        code, out, _ = run(capsys, "annihilate", "--algebra", "svir0", "G[2]")
        assert code == 0
        assert out == "dimension 1\nad(L[4])\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "annihilate", "--json", "--algebra", "svir0",
                           "G[2]")
        assert json.loads(out) == {
            "algebra": "svir0",
            "target": "G[2]",
            "bound": 6,
            "dimension": 1,
            "basis": ["ad(L[4])"],
        }

    def test_explicit_bound(self, capsys):
        code, out, _ = run(capsys, "annihilate", "--json", "--algebra", "sw22",
                           "G[1]", "--bound", "4")
        payload = json.loads(out)
        assert payload["dimension"] == 3
        assert payload["basis"] == ["ad(L[2])", "ad(I[2])", "D"]


class TestGlobalize:
    HONEST = ["globalize", "--algebra", "sw22",
              "--oracle", "honest:ad(I[2]) + 3*D",
              "--bound", "2", "--random", "5"]

    def test_honest_pass(self, capsys):
        code, out, _ = run(capsys, *self.HONEST, "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["mu"] == "3"
        assert payload["candidate"] == {"inner": "I[2]", "lambda": "3"}
        assert payload["failure_witness"] is None

    def test_adversarial_fail(self, capsys):
        code, out, _ = run(capsys, "globalize", "--algebra", "svir0",
                           "--oracle", "adversarial:shift_map",
                           "--bound", "2", "--random", "5", "--seed", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["failure_witness"] is not None

    def test_vir_globalizes_on_the_default_family(self, capsys):
        code, out, _ = run(capsys, "globalize", "--oracle", "honest:ad(L[1])")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "vir"
        assert payload["verdict"] == "pass"
        assert payload["candidate"] == {"inner": "L[1]", "lambda": "0"}
        code, out, _ = run(capsys, "globalize", "--oracle", "adversarial:shift_map")
        assert code == 1
        assert json.loads(out)["failure_witness"] is not None

    @pytest.mark.parametrize("as_json", [False, True])
    def test_an_oracle_that_contradicts_itself_exits_one(self, capsys, monkeypatch,
                                                         as_json):
        """Every response reports delta_y with one extra L[0] term, so the
        first query, at the anchors L[1] and L[2], is refused at L[2]."""
        honest = cli.make_honest_oracle

        def contradicting(d, window, seed):
            oracle = honest(d, window, seed)
            extra = Element.basis(BasisVector(d.family, KIND_L, 0))

            def query(x, y):
                answer = oracle.query(x, y)
                return answer._replace(delta_y=answer.delta_y + extra)
            return TwoLocalOracle(oracle.family, query)

        monkeypatch.setattr(cli, "make_honest_oracle", contradicting)
        argv = ["globalize", "--oracle", "honest:ad(L[1])"] + (["--json"] if as_json else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        message = "oracle response disagrees with its delta at L[2]"
        if as_json:
            assert err == ""
            assert json.loads(out) == {"error": {"type": "OracleDefectError",
                                                 "message": message}}
        else:
            assert out == ""
            assert err == "error: OracleDefectError: %s\n" % message

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, *self.HONEST, "--seed", "7")
        _, second, _ = run(capsys, *self.HONEST, "--seed", "7")
        assert first == second

    def test_seed_precedence(self, capsys, monkeypatch):
        _, seed5, _ = run(capsys, *self.HONEST, "--seed", "5")
        _, seed9, _ = run(capsys, *self.HONEST, "--seed", "9")
        assert seed5 != seed9
        monkeypatch.setenv(ENV_SEED, "5")
        _, from_env, _ = run(capsys, *self.HONEST)
        assert from_env == seed5
        _, flag_beats_env, _ = run(capsys, *self.HONEST, "--seed", "9")
        assert flag_beats_env == seed9


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"algebra": "sw22", "bound": 1, "seed": 3}))
        code, out, _ = run(capsys, "annihilate", "--json", "G[1]",
                           "--config", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra"] == "sw22"
        assert payload["bound"] == 1
        assert payload["basis"] == ["D"]

    def test_explicit_algebra_beats_config(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"algebra": "sw22", "bound": 1}))
        code, out, _ = run(capsys, "annihilate", "--json", "--algebra", "svir0",
                           "G[2]", "--config", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra"] == "svir0"
        assert payload["dimension"] == 0

    def test_rational_bounds_accepted(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"bound": "7/2"}))
        from_flag = run(capsys, "jacobi", "--json", "--bound", "7/2")
        from_config = run(capsys, "jacobi", "--json", "--config", str(path))
        assert from_flag == from_config
        assert from_flag[0] == 0
        assert json.loads(from_flag[1])["bound"] == "7/2"

    def test_config_seed_matches_explicit_seed(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"seed": 3}))
        argv = TestGlobalize.HONEST
        _, explicit, _ = run(capsys, *argv, "--seed", "3")
        _, from_config, _ = run(capsys, *argv, "--config", str(path))
        assert from_config == explicit


class TestErrors:
    def test_parse_error_json_diagnostic(self, capsys):
        code, out, _ = run(capsys, "bracket", "--json", "L[2", "L[0]")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["position"] == 3

    def test_parse_error_text_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "bracket", "L[2", "L[0]")
        assert code == 2
        assert out == ""
        assert_parse_error_line(err, 3)

    @pytest.mark.parametrize("coeff", ["1.5", "1e2"])
    def test_non_rational_outer_coefficient(self, capsys, coeff):
        code, out, err = run(capsys, "globalize", "--algebra", "sw22",
                             "--oracle", "honest:ad(L[1]) + %s*D" % coeff)
        assert code == 2
        assert out == ""
        assert_parse_error_line(err, 12)

    def test_position_inside_ad_indexes_the_argument(self, capsys):
        code, out, _ = run(capsys, "defect", "--json", "--algebra", "sw22",
                           "ad(L[1/3])", "L[0]", "G[0]")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["position"] == 6

    def test_kind_outside_family(self, capsys):
        code, out, _ = run(capsys, "bracket", "--json", "--algebra", "svir0",
                           "Q[0]", "L[0]")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "KindNotInFamilyError"
        assert payload["error"]["position"] == 0

    def test_zero_annihilator_target(self, capsys):
        code, _, err = run(capsys, "annihilate", "0")
        assert code == 2
        assert "ZeroTargetError" in err

    @pytest.mark.parametrize("spec", ["honest", "adversarial:nope", "x:y"])
    def test_bad_oracle_spec(self, capsys, spec):
        code, _, err = run(capsys, "globalize", "--algebra", "svir0",
                           "--oracle", spec)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("bound", ["1e1", "1_0", "1.5"])
    def test_bound_follows_rational_grammar(self, capsys, bound):
        code, out, err = run(capsys, "jacobi", "--bound", bound)
        assert code == 2
        assert out == ""
        assert_parse_error_line(err, 1)

    def test_mask_bound_follows_rational_grammar(self, capsys):
        code, _, err = run(capsys, *TestGlobalize.HONEST, "--mask-bound", "1e1")
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("config", [{"bound": "1e1"}, {"seed": 1.9},
                                        {"seed": True}, {"seed": "1"}])
    def test_config_numbers_are_checked(self, capsys, tmp_path, config):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "globalize", "--algebra", "sw22", "--oracle",
                             "honest:ad(I[2])", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("algebra", ["", 0, False, None])
    def test_malformed_config_algebra(self, capsys, tmp_path, algebra):
        # A present but malformed key is an error, not a fall back to vir.
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"algebra": algebra}))
        code, out, err = run(capsys, "annihilate", "L[1]", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError: unknown algebra family")

    def test_negative_random_count(self, capsys):
        code, out, err = run(capsys, *TestGlobalize.HONEST, "--random", "-3")
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_random_count_over_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(TestSet, "elements", None)  # building any would fail
        code, out, err = run(capsys, *TestGlobalize.HONEST,
                             "--random", str(MAX_RANDOM_TESTS + 1))
        assert code == 2
        assert out == ""
        assert "at most %d" % MAX_RANDOM_TESTS in err

    CAPPED = [
        (["jacobi", "--bound"], MAX_JACOBI_BOUND),
        (["annihilate", "L[1]", "--bound"], MAX_ANNIHILATE_BOUND),
        (["globalize", "--oracle", "honest:ad(L[1])", "--random", "0", "--bound"],
         MAX_GLOBALIZE_BOUND),
        (["globalize", "--oracle", "honest:ad(L[1])", "--random", "0", "--mask-bound"],
         MAX_GLOBALIZE_BOUND),
    ]

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_bound_just_over_the_cap(self, capsys, monkeypatch, argv, cap):
        def no_window(self, *args):
            raise AssertionError("a window was built")
        monkeypatch.setattr(GradedWindow, "__init__", no_window)
        code, out, err = run(capsys, *argv, "%d/2" % (2 * cap + 1))
        assert code == 2
        assert out == ""
        assert "must be at most %d, got %d/2" % (cap, 2 * cap + 1) in err

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_bound_at_the_cap(self, capsys, argv, cap):
        assert run(capsys, *argv, str(cap))[0] == 0

    def test_config_bound_over_the_cap(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"bound": MAX_JACOBI_BOUND + 1}))
        code, out, err = run(capsys, "jacobi", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "must be at most %d" % MAX_JACOBI_BOUND in err

    def test_default_annihilate_bound_over_the_cap(self, capsys):
        # The default bound 2*64 + 2 = 130 is over the cap as well.
        code, _, err = run(capsys, "annihilate", "L[64]")
        assert code == 2
        assert "must be at most %d, got 130" % MAX_ANNIHILATE_BOUND in err

    @pytest.mark.parametrize("argv, position", [
        (["bracket", "L[\u0663]", "L[-3]"], 2),
        (["bracket", "\u00b2*L[1]", "L[0]"], 0),
        (["jacobi", "--bound", "\u0662"], 0),
    ])
    def test_digits_are_ascii_only(self, capsys, argv, position):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["position"] == position

    @pytest.mark.parametrize("flag, value, position", [
        ("--seed", "1_0", 1), ("--seed", "\u0663", 0), ("--seed", "1.0", 1),
        ("--random", "1_0", 1), ("--random", "\u0663", 0),
    ])
    def test_integer_flags_follow_the_integer_rule(self, capsys, flag, value, position):
        code, out, err = run(capsys, *TestGlobalize.HONEST, flag, value)
        assert code == 2
        assert out == ""
        assert_parse_error_line(err, position)

    @pytest.mark.parametrize("argv, position", [
        (["jacobi", "--bound", "1" * (MAX_DIGITS + 1)], MAX_DIGITS),
        (["annihilate", "L[%s]" % ("1" * 5000)], 2 + MAX_DIGITS),
        (TestGlobalize.HONEST + ["--seed", "1" * 5000], MAX_DIGITS),
    ])
    def test_over_long_digit_runs(self, capsys, argv, position):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert error["position"] == position
        assert "set_int_max_str_digits" not in error["message"]

    @pytest.mark.parametrize("value", [" 1_0 ", "\u0663", "ten"])
    def test_seed_variable_follows_the_integer_rule(self, capsys, monkeypatch, value):
        monkeypatch.setenv(ENV_SEED, value)
        code, out, err = run(capsys, *TestGlobalize.HONEST)
        assert code == 2
        assert out == ""
        assert_parse_error_line(err)

    def test_negative_seed_is_an_integer(self, capsys):
        assert run(capsys, *TestGlobalize.HONEST, "--seed", "-4")[0] == 0

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "jacobi", "--config", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_config_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "jacobi", "--config", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_config_integers_up_to_the_digit_cap(self, tmp_path, sign):
        path = tmp_path / "conf.json"
        value = sign + "7" * MAX_DIGITS
        path.write_text('{"seed": %s}' % value)
        assert _load_config(str(path)) == {"seed": int(value)}

    def test_config_integer_over_the_digit_cap(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text('{"seed": -%s}' % ("7" * (MAX_DIGITS + 1)))
        with pytest.raises(ValueError, match="config file holds an integer of more than"):
            _load_config(str(path))

    def test_config_integer_beyond_the_interpreter_limit(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text('{"bound": %s}' % ("1" * 5000))
        code, out, err = run(capsys, "jacobi", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError: config file holds an integer")
        assert "set_int_max_str_digits" not in err

    def test_argparse_usage_errors(self, capsys):
        assert run(capsys, "bracket", "L[0]")[0] == 2
        assert run(capsys, "lemma", "bogus")[0] == 2
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


# sha256 of `superder globalize --algebra sw22 --oracle 'honest:ad(I[2]) + 3*D'
# --seed 7`, the certificate CI pins for the installed console script.
SW22_HONEST_PIN = "b3a37393be588fb532d100561a90b076a3c82fa6efc8bcb66e45b92e55f779c6"


class TestImportFootprint:
    """Importing ``superder.cli`` is most of a short command's wall clock, so
    it loads no module that the package only needs for some commands."""

    PROBE = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import superder.cli",
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)",
        "code = superder.cli.run_command(['globalize', '--algebra', 'sw22', '--oracle',",
        "                                 'honest:ad(I[2]) + 3*D', '--seed', '7'])",
        "print(code, 'hashlib' in sys.modules, file=sys.stderr)",
    ])

    def test_cli_import_then_an_honest_globalize(self):
        # Only modules new to the fresh interpreter count, so a site hook
        # that preloads one of them does not fail this test.
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                              check=True, env={**os.environ, "PYTHONPATH": SRC})
        new, after = proc.stderr.decode().splitlines()
        assert {"dataclasses", "inspect", "hashlib"}.isdisjoint(new.split())
        assert "superder.two_local" in new.split()
        assert after == "0 True"
        assert hashlib.sha256(proc.stdout).hexdigest() == SW22_HONEST_PIN


class TestSharedParser:
    """Every run_command of a process parses with one parser, which must
    carry nothing from one command line to the next."""

    def test_built_on_first_use_not_at_import(self):
        probe = ("import superder.cli as cli; print(cli._parser.cache_info().currsize); "
                 "cli.run_command(['bracket', 'L[1]', 'L[0]']); "
                 "cli.run_command(['bracket', 'L[2]', 'L[0]']); "
                 "print(cli._parser.cache_info())")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
        lines = out.stdout.splitlines()
        assert lines[0] == "0"
        assert lines[-1] == "CacheInfo(hits=1, misses=1, maxsize=1, currsize=1)"

    def test_a_flag_does_not_stick(self, capsys):
        argv = ["globalize", "--algebra", "svir0", "--oracle", "honest:ad(L[1])",
                "--bound", "2", "--random", "3"]
        _, fresh, _ = run(capsys, *argv)
        _, seeded, _ = run(capsys, *argv, "--seed", "5")
        _, again, _ = run(capsys, *argv)
        assert seeded != fresh
        assert again == fresh

    def test_usage_error_then_valid_command(self, capsys):
        assert run(capsys, "bracket", "L[0]")[0] == 2
        assert run(capsys, "bracket", "L[1]", "L[0]") == (0, "L[1]\n", "")

    def test_help_twice(self, capsys):
        code, first, _ = run(capsys, "--help")
        assert code == 0
        code, second, _ = run(capsys, "--help")
        assert code == 0
        assert first == second and first.startswith("usage: superder")


class _ClosedStdout:
    """A stdout whose reader has gone: every write and flush fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [
        ["annihilate", "--algebra", "svir0", "C", "--bound", "30"],
        ["annihilate", "--algebra", "svir0", "C", "--bound", "30", "--json"],
        ["lemma", "lemma3.3"],
        # The error diagnostic of --json goes to the same closed stdout.
        ["bracket", "--json", "L[2", "L[0]"],
        ["--help"],
    ])
    def test_closed_stdout_ends_the_run_quietly(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        code = run_command(argv)
        assert code == EXIT_CLOSED_OUTPUT != 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_console_entry_point_with_a_closed_pipe(self, extra):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from superder.cli import main; main()",
                 "annihilate", "--algebra", "svir0", "C", "--bound", "30", *extra],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CLOSED_OUTPUT
        assert proc.stderr == b""


class TestLemma:
    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "lemma", "lemma3.3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "lemma3.3"
        assert payload["verdict"] == "pass"
        assert tuple(payload["cases"][0])[:3] == ("i", "dim", "pass")
        assert all(case["pass"] for case in payload["cases"])

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "lemma", "lemma4.4i")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "verdict: pass"
        assert all(line.startswith("lemma4.4i:") for line in lines[:-1])
        assert all(line.endswith("-> ok") for line in lines[:-1])

    @pytest.mark.parametrize("name", LEMMA_NAMES)
    def test_every_suite_passes_and_its_text_matches_its_json(self, capsys, name):
        code, out, _ = run(capsys, "lemma", name, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == name
        assert payload["verdict"] == "pass"
        assert payload["cases"] and all(case["pass"] is True for case in payload["cases"])
        code, out, _ = run(capsys, "lemma", name)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "verdict: pass"
        assert lines[:-1] == [
            "%s: %s -> ok" % (name, " ".join("%s=%s" % (k, v) for k, v in case.items()
                                             if k != "pass"))
            for case in payload["cases"]]

    def test_an_unknown_suite_names_every_suite(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'") as info:
            run_lemma("bogus")
        assert all(name in str(info.value) for name in LEMMA_NAMES)
