import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import remixed.cli as cli
from remixed import __version__, engine, formulas, verify
from remixed.config import Configuration, classify, parse_config, shifted_config
from remixed.engine import SWEEP_MAX_N, success_probability
from remixed.formulas import q_hits
from remixed.qcalc import ONE, QPoly


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def python(*args):
    """A fresh interpreter on this checkout's package, its output captured as text."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def fresh_parser():
    """main builds its parser anew, so a patched cmd_* function or suite list is bound; so do later tests."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def envelope(out):
    env = json.loads(out)
    assert set(env) == {"command", "inputs", "result", "version"}
    assert env["version"] == __version__
    return env


def test_eval_envelope(capsys):
    rc, out, err = run(capsys, "eval", "3,0,0,2,0")
    assert rc == 0 and err == ""
    env = envelope(out)
    assert env["command"] == "eval"
    assert env["result"]["method"] == "lukasiewicz"
    assert env["result"]["poly"] == {"coeffs": ["1", "2", "3", "4", "3", "2", "1"]}
    assert env["result"]["crosscheck"] == "skip"
    assert "pretty" not in env["result"]


def test_eval_at_rational(capsys):
    rc, out, _ = run(capsys, "eval", "1,1,1", "--q", "2")
    env = envelope(out)
    assert rc == 0
    assert env["result"]["value"] == "21"
    assert "poly" not in env["result"]
    rc, out, _ = run(capsys, "eval", "1,1,1", "--q", "1/2")
    assert json.loads(out)["result"]["value"] == "21/8"
    # argparse takes "-1/2" after a space for an option, so a negative fraction is written with "="
    rc, out, _ = run(capsys, "eval", "1,1", "--q=-1/2")
    assert rc == 0
    assert json.loads(out)["result"]["value"] == "1/2"


def test_eval_crosscheck_and_pretty(capsys):
    rc, out, _ = run(capsys, "eval", "0,3,0,2,0", "--crosscheck", "--pretty")
    env = envelope(out)
    assert rc == 0
    assert env["result"]["crosscheck"] == "pass"
    assert env["result"]["pretty"] == "[2]^3 [4]^2 - [6] [3]^2"
    assert env["result"]["method"] == "almost_lukasiewicz"


def test_eval_methods(capsys):
    for method in ("exact", "induction"):
        rc, out, _ = run(capsys, "eval", "0,1,2,2,0", "--method", method, "--crosscheck")
        env = envelope(out)
        assert rc == 0
        assert env["result"]["method"] == method
        assert env["result"]["crosscheck"] == "pass"


def test_eval_formula_unavailable(capsys):
    rc, out, err = run(capsys, "eval", "1,0,2,0,2", "--method", "formula")
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_eval_parse_failures(capsys):
    zero_den = ["eval", "2,0", "--q", "1/0"]
    for bad in (["eval", "1,2"], ["eval", ""], ["eval", "1,a"], ["eval", "2,0", "--q", "0.5"], zero_den):
        rc, out, err = run(capsys, *bad)
        assert rc == 2 and err.startswith("error:")
    assert err == "error: zero denominator in '1/0'\n"
    bad_q = [["eval", "2,0", "--q", q] for q in ("1/x", "x", "1/2/3", "1e5", "/2")]
    for bad in bad_q + [["simulate", "2,0", "--q", "1/x", "--trials", "10"]]:
        rc, out, err = run(capsys, *bad)
        assert rc == 2 and out == ""
        assert err == f"error: --q takes an integer or a/b with integers a and b, got {bad[3]!r}\n"


def test_eval_parses_q_before_evaluating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "remixed_exact", lambda c: pytest.fail("evaluated before parsing --q"))
    rc, out, err = run(capsys, "eval", "2,0", "--method", "exact", "--q", "1/x")
    assert (rc, out) == (2, "")
    assert err == "error: --q takes an integer or a/b with integers a and b, got '1/x'\n"


def test_eval_deep_recursion_is_a_usage_error(capsys):
    # the last ball recursion takes one frame per site
    sites = ",".join(["1"] * (sys.getrecursionlimit() + 100))
    rc, out, err = run(capsys, "eval", sites, "--method", "induction")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_simulate_out_of_memory_is_a_usage_error(capsys):
    # the flags of 2^62 trials take 2^62 bytes, more than any 64-bit address
    # space holds, so the allocation fails at once
    rc, out, err = run(capsys, "simulate", "2,0", "--trials", str(1 << 62))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_simulate_without_numpy_is_a_usage_error():
    # simulate imports numpy on its first call; a fresh interpreter where
    # that import fails prints an error line, not a traceback
    script = "import sys; sys.modules['numpy'] = None; from remixed.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = python("-c", script, "simulate", "2,0", "--trials", "5")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_eval_crosscheck_mismatch_exit_code(capsys, monkeypatch):
    # inject a wrong oracle to drive the mismatch path
    monkeypatch.setattr(cli, "remixed_induction", lambda c: QPoly((99,)))
    rc, out, _ = run(capsys, "eval", "1,1", "--method", "exact", "--crosscheck")
    env = envelope(out)
    assert rc == 3
    assert env["result"]["crosscheck"] == "fail"
    assert env["result"]["oracle"] == {"coeffs": ["99"]}


def test_classify_envelope(capsys):
    rc, out, _ = run(capsys, "classify", "0,3,0,2,0")
    env = envelope(out)
    assert rc == 0
    flags = env["result"]["flags"]
    assert flags == {
        "lukasiewicz": False,
        "almost_defect": 1,
        "connected": False,
        "one_hole": True,
        "weakly_lukasiewicz": True,
    }


def test_table_csv_exact_bytes(capsys):
    rc, out, err = run(capsys, "table", "connected", "--gamma", "2", "--n", "2", "--format", "csv")
    assert rc == 0 and err == ""
    assert out == "index,coeff0,coeff1\n0,1,0\n1,0,1\n"


def test_table_json_cs(capsys):
    rc, out, _ = run(capsys, "table", "cs", "--x", "1", "--y", "1", "--rsmax", "2")
    env = envelope(out)
    assert rc == 0
    rows = env["result"]["rows"]
    assert [r["index"] for r in rows] == ["0:0", "0:1", "1:0", "0:2", "1:1", "2:0"]
    by_index = {r["index"]: r["poly"]["coeffs"] for r in rows}
    assert by_index["1:1"] == ["0", "2", "2"]
    assert by_index["0:0"] == ["1"]


def test_table_hit(capsys):
    rc, out, _ = run(capsys, "table", "hit", "--lambda", "2,1", "--n", "3")
    env = envelope(out)
    assert rc == 0
    rows = env["result"]["rows"]
    assert len(rows) == 4
    for row in rows:
        want = q_hits((2, 1), 3)[int(row["index"])]
        assert row["poly"] == want.to_json()
    rc, _, err = run(capsys, "table", "hit", "--lambda", "9", "--n", "3")
    assert rc == 2 and err.startswith("error:")


def test_table_hit_builds_the_series_once(capsys, monkeypatch):
    # every row is a coefficient of one generating series
    built = []
    inner = formulas._bracket_series
    monkeypatch.setattr(formulas, "_bracket_series", lambda *a: built.append(a) or inner(*a))
    rc, out, _ = run(capsys, "table", "hit", "--lambda", "4,2,1", "--n", "7")
    assert rc == 0 and len(envelope(out)["result"]["rows"]) == 8
    assert len(built) == 1


def test_table_missing_option(capsys):
    rc, _, err = run(capsys, "table", "connected", "--n", "5")
    assert rc == 2 and "gamma" in err


def test_table_one_hole(capsys):
    rc, out, _ = run(capsys, "table", "one-hole", "--gamma", "2,0,2", "--n", "4")
    env = envelope(out)
    assert rc == 0
    rows = env["result"]["rows"]
    assert [r["index"] for r in rows] == ["0", "1"]
    assert rows[0]["poly"]["coeffs"] == ["1", "2", "3", "2", "1"]
    # core does not carry enough balls for the requested total
    rc, _, err = run(capsys, "table", "one-hole", "--gamma", "2,0,1", "--n", "4")
    assert rc == 2 and err.startswith("error:")


def test_core_tables_read_n_from_the_core(capsys):
    # a core of n balls fixes n: the table without --n is the one with it
    for kind, gamma, n in (("connected", "1,2,2", "5"), ("weakly", "3,0,2", "5"), ("one-hole", "2,0,2", "4")):
        rc, out, err = run(capsys, "table", kind, "--gamma", gamma, "--format", "csv")
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run(capsys, "table", kind, "--gamma", gamma, "--n", n, "--format", "csv")
    # a given --n is checked after the core: a core spanning more sites than
    # it holds balls reports its span before any --n it contradicts
    rc, out, err = run(capsys, "table", "one-hole", "--gamma", "1,0,0,1", "--n", "3")
    assert (rc, out, err) == (2, "", "error: core spans 4 sites but only 2 exist\n")
    rc, out, err = run(capsys, "table", "connected", "--gamma", "1,2", "--n", "4")
    assert (rc, out, err) == (2, "", "error: core holds 3 balls, configuration needs 4\n")


def test_table_one_hole_rejects_a_core_with_outer_zeros(capsys):
    # (0,2,0,2) is no core: a table of its shifts would be one of core (2,0,2)
    rc, out, err = run(capsys, "table", "one-hole", "--gamma", "0,2,0,2", "--n", "4")
    assert rc == 2 and out == "" and err.startswith("error:")


def test_table_rejects_a_gamma_that_is_not_integers(capsys):
    rc, out, err = run(capsys, "table", "connected", "--gamma", "1,x")
    assert (rc, out, err) == (2, "", "error: gamma must be comma separated integers, got '1,x'\n")


def test_table_impossible_sizes(capsys):
    # an empty range of shifts or sizes, or a gamma that is no core, is a
    # usage error, not an empty table
    for argv in (
        ("connected", "--gamma", "1,2", "--n", "1"),
        ("connected", "--gamma", "1,2", "--n", "0"),
        ("connected", "--gamma", "0,2,0,2", "--n", "4"),
        ("weakly", "--gamma", "0,2,0,2", "--n", "4"),
        ("cs", "--x", "1", "--y", "1", "--rsmax", "-1"),
    ):
        rc, out, err = run(capsys, "table", *argv)
        assert rc == 2 and out == "" and err.startswith("error:"), argv


def test_table_needs_at_least_one_site(capsys):
    kinds = (
        ("connected", "--gamma", "1"),
        ("weakly", "--gamma", "1"),
        ("one-hole", "--gamma", "1,0,1"),
        ("hit", "--lambda", "1"),
    )
    for argv in kinds:
        for n in ("0", "-1"):
            rc, out, err = run(capsys, "table", *argv, "--n", n)
            assert (rc, out, err) == (2, "", f"error: --n must be at least 1, got {n}\n"), argv
    # cs does not read --n, so no value of it is an error there
    rc, _, _ = run(capsys, "table", "cs", "--x", "1", "--y", "1", "--rsmax", "1", "--n", "0")
    assert rc == 0


def test_invocations_byte_identical(capsys):
    _, first, _ = run(capsys, "eval", "0,2,1,0,3,0", "--crosscheck", "--pretty")
    _, second, _ = run(capsys, "eval", "0,2,1,0,3,0", "--crosscheck", "--pretty")
    assert first == second


# SHA-256 of [stdout, stderr, exit code] for each command line, so a change
# to how the CLI builds its output that moves any byte fails here.  Like
# test_verify_output_digest, the envelopes carry the version: a version bump
# must re-pin them.
PINNED_OUTPUTS = {
    "eval 0,2,1,0,3,0 --crosscheck --pretty":
        "93870f8b9b76f60368c3b7f08f76eb13d6df989511ae1b2d71913a09ca2d60fa",
    "eval 0,3,0,2,0 --q 2/3":
        "2ab4a29b507fafd94996c0600a9945e1c0c8c867bcdcde876060c14f46089262",
    "eval 1,1,1 --method exact --crosscheck":
        "d2da4c9cb13b812a4d3878e4bd8ba543f0f430a17958d55c422c291b43d8217d",
    "eval 0,0,3,0,0,3,0,0,3 --method formula":
        "1a8d4bb98a1d61af8191b3ede7521c3b155b94bb74eac2d3b25d8ae3666bbee7",
    # dispatch falls back to the recursion, which has no factored form to print
    "eval 0,0,3,0,0,3,0,0,3 --pretty":
        "b3ca08f5120d1fb4915ff2f80d87bbb056132cc2abf806d37ee4fd9ec8dd9009",
    "eval 1,1,1 --method induction --crosscheck --pretty":
        "0cdb3a102b515bf38ebf28693493983a2edf203307ef4088ac0462777596753f",
    "eval 0,3,0,2,0 --method exact --pretty":
        "9fe22af7786f5d9de9fa655b74927eb59d0936b55527a42f25f6b7d0a0260ed3",
    "classify 1,0,3,0,1":
        "6ace06862d29e92366103fa24c9587e36ee3ef200c63db733c337077503a336a",
    "table connected --gamma 1,2,2 --n 5":
        "e9ee4352e6b6c5b9f7f91d499d516d0f9dce4974c7056b5ff363723d517535a4",
    "table connected --gamma 1,2,2 --n 5 --format csv":
        "4805170726afdf41ff5dd38536fa799d331be250abab2d728a37e10be2c96139",
    "table weakly --gamma 3,0,2 --n 5":
        "bc51e860240582683c3a429c919f1c365582fdf598990235e379b1a3971f25c2",
    "table one-hole --gamma 2,0,2 --n 4":
        "9c9e509e0a843e7d5512ccf77f5925cf80f9ff1f79d70c392caed40429107cc2",
    "table hit --lambda 2,1 --n 3":
        "0d9749a0f0da544da7f38ee788eff2ae5ebd719226385bfbef12d6c267ffb061",
    "table cs --x 1 --y 2 --rsmax 2":
        "2fdd313b158a0dfbfa77cf296cef83a0d0c266a5c4806241a36ae06be6573b80",
    "table cs --x 2 --y 3 --rsmax 5":
        "7f4b15ba8d76f24dc4d960ab3b5c54c0a6a1be3ae3b9ce31f26e36843dab06eb",
    "simulate 0,3,0,2,0 --q 1/3 --trials 2000 --seed 7":
        "42742dce81604c7bc11589c5cb3366327b39aa355f82ee793b8c52c6fd81b998",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS)
def test_command_output_pinned(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(json.dumps([out, err, rc]).encode()).hexdigest()
    assert digest == PINNED_OUTPUTS[argv]


# strings with non-ASCII text, quotes, backslashes and control characters
json_text = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t/é€😀'), max_size=8)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((0, 1, -1, 10**20, -(10**24) - 7))
    | st.floats()
    | json_text
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(json_text, max_size=4)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=24,
)


@given(json_values)
def test_envelope_writer_matches_the_indent_encoder(obj):
    assert cli._indented(obj) == json.dumps(obj, indent=2)


def assert_written_as_json_indents(out):
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_pinned_envelopes_are_the_indent_encoding(capsys):
    # every pinned command but the csv table and the one that exits 2 prints an envelope
    envelopes = 0
    for argv in PINNED_OUTPUTS:
        _, out, _ = run(capsys, *argv.split())
        if out.startswith("{"):
            assert_written_as_json_indents(out)
            envelopes += 1
    assert envelopes == len(PINNED_OUTPUTS) - 2


def test_failure_envelopes_are_the_indent_encoding(capsys, monkeypatch):
    # exit 3: the crosscheck mismatch of test_eval_crosscheck_mismatch_exit_code
    with monkeypatch.context() as m:
        m.setattr(cli, "remixed_induction", lambda c: QPoly((99,)))
        rc, out, _ = run(capsys, "eval", "1,1", "--method", "exact", "--crosscheck")
    assert rc == 3
    assert_written_as_json_indents(out)
    # exit 4: one unit planted on a recursion result fails the families suite
    real = formulas.remixed_induction
    monkeypatch.setattr(formulas, "remixed_induction", lambda c: real(c) + ONE)
    rc, out, _ = run(capsys, "verify", "families", "--nmax", "4")
    assert rc == 4
    assert envelope(out)["result"]["suites"][0]["failures"]
    assert_written_as_json_indents(out)


def test_verify_all_small(capsys):
    rc, out, _ = run(capsys, "verify", "all", "--nmax", "3")
    env = envelope(out)
    assert rc == 0
    suites = env["result"]["suites"]
    assert [s["name"] for s in suites] == ["families", "congruence", "corrective", "abelian"]
    for s in suites:
        assert s["passed"] is True and s["failures"] == []
    fam = suites[0]["checks"]
    assert fam["induction"] == 1 + 3 + 10
    assert fam["dispatch"] == fam["induction"]


def test_verify_output_digest(capsys):
    # Pins every check count and failure record of verify all --nmax 6, so a
    # speed-up that changes any output byte fails here.  The digest covers
    # the whole envelope, the version field included: a version bump must
    # re-pin it.
    rc, out, _ = run(capsys, "verify", "all", "--nmax", "6")
    assert rc == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "e2fd0ce274e3b479da79fec2db0f6a2e52f7352c3344a5d570c846786595c6f9"
    )


def test_verify_single_suite(capsys):
    rc, out, _ = run(capsys, "verify", "congruence", "--nmax", "4")
    env = envelope(out)
    assert rc == 0
    assert [s["name"] for s in env["result"]["suites"]] == ["congruence"]


def test_verify_bad_nmax(capsys, monkeypatch):
    # rejected before any table is built, so a value above the cap returns at once
    monkeypatch.setattr(cli, "exact_sweep", lambda n: pytest.fail(f"built the table for n={n}"))
    for nmax in (0, SWEEP_MAX_N + 1):
        rc, _, err = run(capsys, "verify", "all", "--nmax", str(nmax))
        assert rc == 2 and err.startswith("error:")


def test_verify_failure_exit_code(capsys, monkeypatch):
    fake = {"name": "families", "passed": False, "checks": {}, "failures": [{"config": [9]}]}
    monkeypatch.setitem(verify.SUITES, "families", lambda nmax, table=None: fake)
    rc, out, _ = run(capsys, "verify", "families", "--nmax", "1")
    assert rc == 4
    env = envelope(out)
    assert env["result"]["suites"][0]["passed"] is False


def test_verify_builds_only_the_tables_it_reads(capsys, monkeypatch):
    monkeypatch.setattr(cli, "exact_sweep", lambda n: pytest.fail(f"built the table for n={n}"))
    rc, _, _ = run(capsys, "verify", "abelian", "--nmax", str(SWEEP_MAX_N))
    assert rc == 0


def test_verify_builds_each_table_once_per_command(capsys, monkeypatch):
    real, built = cli.exact_sweep, []

    def record(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(cli, "exact_sweep", record)
    run(capsys, "verify", "corrective", "--nmax", "4")
    assert built == [2, 3, 4]
    built.clear()
    run(capsys, "verify", "all", "--nmax", "3")
    assert built == [1, 2, 3]


def test_single_suite_report_matches_verify_all(capsys):
    # suites read the tables of one command but share no other state
    _, out, _ = run(capsys, "verify", "all", "--nmax", "5")
    for report in envelope(out)["result"]["suites"]:
        rc, out, _ = run(capsys, "verify", report["name"], "--nmax", "5")
        assert rc == 0 and envelope(out)["result"]["suites"] == [report]


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser):
    # importing the module builds no parser; the first main call builds it
    proc = python("-c", "import sys, remixed.cli as cli; sys.exit(cli._parser.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "classify", "1,1")[0] == 0
    # the root parser and one per subcommand
    assert len(built) == 6
    built.clear()
    for argv in (["classify", "1,1"], ["eval", "2,0", "--crosscheck"], ["verify", "all", "--nmax", "2"]):
        assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit):
        cli.main(["eval"])
    assert built == []


def test_repeated_main_calls_share_no_state(capsys):
    rc, out, _ = run(capsys, "eval", "0,3,0,2,0", "--crosscheck", "--pretty", "--q", "2")
    assert rc == 0 and envelope(out)["inputs"]["q"] == "2"
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "0,3,0,2,0", "--method", "fast"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    last = run(capsys, "eval", "0,3,0,2,0")
    inputs = envelope(last[1])["inputs"]
    assert inputs == {"config": "0,3,0,2,0", "method": "auto", "crosscheck": False, "q": None, "pretty": False}
    fresh = python("-m", "remixed.cli", "eval", "0,3,0,2,0")
    assert last == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_patched_command_is_bound_by_a_fresh_parser(capsys, monkeypatch, fresh_parser):
    monkeypatch.setattr(cli, "cmd_classify", lambda args: ({"patched": args.config}, 0))
    rc, out, _ = run(capsys, "classify", "1,1")
    assert rc == 0 and envelope(out)["result"] == {"patched": "1,1"}


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tabulate"])
    assert exc.value.code == 2


def test_simulate_envelope(capsys):
    rc, out, _ = run(capsys, "simulate", "1,1,1", "--trials", "50", "--seed", "3")
    env = envelope(out)
    assert rc == 0
    sim = env["result"]["sim"]
    assert sim["trials"] == 50 and sim["successes"] == 50
    assert env["result"]["exact"] == "1"
    assert env["result"]["sigma_deviation"] == "0.0000"


def test_simulate_compares_with_the_exact_value_above_ten_sites(capsys):
    config = "0,0,0,1,0,0,6,0,0,1,0,3,2"
    rc, out, _ = run(capsys, "simulate", config, "--q", "1/3", "--trials", "200", "--seed", "3")
    result = envelope(out)["result"]
    assert rc == 0
    exact = success_probability(parse_config(config), Fraction(1, 3))
    assert result["exact"] == str(exact)
    assert float(result["sigma_deviation"]) >= 0


def test_simulate_deterministic(capsys):
    _, first, _ = run(capsys, "simulate", "0,3,0", "--q", "1/2", "--trials", "200", "--seed", "5")
    _, second, _ = run(capsys, "simulate", "0,3,0", "--q", "1/2", "--trials", "200", "--seed", "5")
    assert first == second


def test_simulate_argument_validation(capsys):
    rc, _, err = run(capsys, "simulate", "2,0", "--trials", "0")
    assert rc == 2 and err == "error: need at least one trial\n"
    # the simulator checks the trials, so a bad --q is reported first
    rc, _, err = run(capsys, "simulate", "2,0", "--trials", "0", "--q", "x")
    assert rc == 2 and err == "error: --q takes an integer or a/b with integers a and b, got 'x'\n"
    rc, _, err = run(capsys, "simulate", "2,1")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "simulate", "2,0", "--q", "-1")
    assert rc == 2 and err == "error: --q must be nonnegative, got '-1'\n"


def test_in_process_drivers_share_tables(oracle):
    for driver in (verify.verify_families, verify.verify_congruence, verify.verify_corrective):
        report = driver(4, oracle.table)
        assert report["passed"], report["failures"]
    report = verify.verify_abelian(4, oracle.table)
    assert report["passed"]


def test_broken_route_fails_every_check_it_feeds(oracle, monkeypatch):
    # The families suite sums each builder of terms once per configuration
    # and reuses what dispatch computed; a defect in the shared terms must
    # still fail every check that reads them, with unchanged check counts.
    clean = verify.verify_families(5, oracle.table)
    real = formulas._core_terms
    # one extra term adds 1 to every connected, weakly and one hole sum
    def broken_core(*a):
        return real(*a) + [formulas._Term(1, 0, ())]

    monkeypatch.setattr(formulas, "_core_terms", broken_core)
    for name in ("connected", "weakly_lukasiewicz"):
        monkeypatch.setitem(formulas.ROUTES, name, (formulas.ROUTES[name][0], broken_core))
    broken = verify.verify_families(5, oracle.table)
    failed = {f["family"] for f in broken["failures"]}
    assert {"dispatch", "connected", "weakly", "one_hole"} <= failed
    assert "induction" not in failed
    assert not broken["passed"]
    assert broken["checks"] == clean["checks"]
    # exactly the checks that read the broken terms fail, in suite order
    patched = {"connected", "one_hole", "weakly_lukasiewicz"}
    want = []
    for n in range(1, 6):
        for ct in sorted(oracle.table(n)):
            flags = classify(Configuration(ct))
            routes = [name for name, (applies, _) in formulas.ROUTES.items() if applies(flags)]
            if routes and routes[0] in patched:
                want.append({"config": list(ct), "family": "dispatch"})
            for name in routes:
                if name in patched:
                    want.append({"config": list(ct), "family": verify._FAMILY_CHECKS.get(name, name)})
    assert broken["failures"] == want[:20]


def test_planted_defect_in_the_recursion_fallback_fails_its_two_rows(oracle, monkeypatch):
    # (0, 2, 0, 0, 3) has no closed route, so dispatch sends it to the
    # recursion and the families suite reads that one call for both its
    # induction and its dispatch check: a defect there fails both rows
    clean = verify.verify_families(5, oracle.table)
    assert clean["passed"]
    target = (0, 2, 0, 0, 3)
    flags = classify(Configuration(target))
    assert not any(applies(flags) for applies, _ in formulas.ROUTES.values())
    real = formulas.remixed_induction

    def planted(c):
        poly = real(c)
        return poly + ONE if c.c == target else poly

    monkeypatch.setattr(formulas, "remixed_induction", planted)
    broken = verify.verify_families(5, oracle.table)
    assert broken["checks"] == clean["checks"]
    assert broken["failures"] == [{"config": list(target), "family": family} for family in ("induction", "dispatch")]


def test_families_suite_memoizes_only_sub_configurations(oracle):
    # the recursion's top level is called uncached, so after the suite at
    # nmax = 8 the memo holds the sub-configurations of its calls alone
    engine._induction.cache_clear()
    assert verify.verify_families(8, oracle.table)["passed"]
    assert engine._induction.cache_info().currsize == 3042


def test_planted_defects_fail_the_corrective_suite(oracle, monkeypatch):
    # The corrective suite checks each series by addition against its
    # definition; one unit planted on either side of that sum must fail
    # exactly the records that read it, with unchanged check counts.
    clean = verify.verify_corrective(5, oracle.table)
    assert clean["passed"]
    ct = shifted_config((1, 0, 4), 0).c
    table5 = dict(oracle.table(5))
    table5[ct] = table5[ct] + ONE
    broken = verify.verify_corrective(5, lambda n: table5 if n == 5 else oracle.table(n))
    assert broken["checks"] == clean["checks"]
    assert broken["failures"] == [{"alpha": [1], "beta": [4], "n": 5, "law": "definition"}]

    real = verify.corrective_series

    def planted(alpha, beta):
        series = real(alpha, beta)
        if (alpha, beta) != ((1,), (4,)):
            return series
        return (series[0], series[1] + ONE, *series[2:])

    monkeypatch.setattr(verify, "corrective_series", planted)
    broken = verify.verify_corrective(5, oracle.table)
    assert broken["checks"] == clean["checks"]
    # (1),(4) is the base every beta with r = 4 factors through; its own
    # factorization compares the planted series with itself and passes
    want = [
        {"alpha": [1], "beta": list(beta), "n": 5, "law": "definition" if beta == (4,) else "factorization"}
        for beta in verify._compositions(4)
    ]
    assert broken["failures"] == want


def test_planted_defect_fails_the_congruence_suite(oracle):
    # one unit added to a weakly placed n = 5 entry fails exactly the record
    # of its core, with an unchanged check count
    clean = verify.verify_congruence(5, oracle.table)
    assert clean["passed"]
    ct = shifted_config((3, 0, 2), 1).c
    table5 = dict(oracle.table(5))
    table5[ct] = table5[ct] + ONE
    broken = verify.verify_congruence(5, lambda n: table5 if n == 5 else oracle.table(n))
    assert broken["checks"] == clean["checks"]
    assert broken["failures"] == [{"core": [3, 0, 2], "n": 5, "k": 1}]


def test_planted_defect_fails_the_abelian_suite(monkeypatch):
    # 1/1000 added to the success probability of one (order, q) cell fails
    # exactly one record of the 345 checks at nmax 7
    real = verify.drop_order_check
    cells = []
    monkeypatch.setattr(verify, "drop_order_check", lambda order, q0: cells.append((order, q0)) or real(order, q0))
    clean = verify.verify_abelian(7, None)
    assert clean["passed"] and clean["checks"] == 345 == len(cells)
    order, q = cells[-1]
    assert cells.count((order, q)) == 1 and len(order) == 7

    def planted(o, q0):
        return real(o, q0) + (Fraction(1, 1000) if (o, q0) == (order, q) else 0)

    monkeypatch.setattr(verify, "drop_order_check", planted)
    broken = verify.verify_abelian(7, None)
    assert broken["checks"] == 345
    content = [order.count(s) for s in range(1, 8)]
    assert broken["failures"] == [{"config": content, "order": list(order), "q": str(q)}]


def test_pretty_renders_a_power_of_q_above_one(capsys):
    rc, out, _ = run(capsys, "eval", "0,0,0,6,0,0", "--pretty")
    assert rc == 0
    assert envelope(out)["result"]["pretty"] == "[4]^6 - [7] [3]^6 + q qbin(7,2) [2]^6 - q^3 qbin(7,3)"


# Each script breaks one route from inside, then runs the CLI on it; the
# second entry is the message the violated invariant must report.
BROKEN_ROUTES = {
    "formula": (
        "from remixed import formulas\n"
        "formulas._assemble = lambda terms: QPoly((1, -1))\n"
        "argv = ['table', 'connected', '--gamma', '1,2,2', '--n', '5']\n",
        "invariant violated: negative coefficient",
    ),
    # the connected route of eval, chosen by dispatch
    "dispatch": (
        "from remixed import formulas\n"
        "formulas._assemble = lambda terms: QPoly((1, -1))\n"
        "argv = ['eval', '0,1,2,2,0']\n",
        "invariant violated: negative coefficient",
    ),
    # the read-back of the oracle's one value
    "oracle": (
        "from remixed import engine\n"
        "engine.kronecker_read = lambda value, bound, length: QPoly((1, -1))\n"
        "argv = ['eval', '2,0', '--method', 'exact']\n",
        "invariant violated: negative coefficient",
    ),
    # a step denominator one too large, over masses built with the true one,
    # leaves the value a non-integer
    "oracle_weights": (
        "from remixed import engine\n"
        "real = engine._drop\n"
        "def bumped(*args):\n"
        "    out, den = real(*args)\n"
        "    return out, den + 1\n"
        "engine._drop = bumped\n"
        "argv = ['eval', '2,0', '--method', 'exact']\n",
        "invariant violated: non-integer value for (2, 0)",
    ),
    # both branches of a bounce carry the full step, so a bounce copies mass
    # instead of splitting it: two ways to fill the line give 2 [3]!, whose
    # digits sum to 12 > 3!; the drop step is rebuilt from its own source
    # with both branch weights replaced
    "oracle_range": (
        "import inspect\n"
        "from remixed import engine\n"
        "src = inspect.getsource(engine._drop)\n"
        "for weight in ('ups[a] * brackets[b]', 'vps[b] * brackets[a]'):\n"
        "    if weight not in src:\n"
        "        sys.exit(98)\n"
        "    src = src.replace(weight, 'brackets[a + b]')\n"
        "exec(src, vars(engine))\n"
        "argv = ['eval', '0,3,0', '--method', 'exact']\n",
        "invariant violated: coefficients of (0, 3, 0) outside [0, 6]",
    ),
    # a doubled weight doubles each level of the recursion: 2 [1] for (2, 0)
    # at the last ball and 2 for the (1,) below it give 4 > 2!
    "recursion": (
        "from remixed import engine\n"
        "real = engine._wt\n"
        "engine._wt = lambda *args: 2 * real(*args)\n"
        "argv = ['eval', '2,0', '--method', 'induction']\n",
        "invariant violated: coefficients of (2, 0) outside [0, 2]",
    ),
    # a doubled q-binomial doubles every level of q-Pascal below it: on
    # (1, 0, 0, 3) the q^5 and q^6 coefficients reach 128 = x/2, past the
    # signed digits at x = 256, and carry into a degree above 4 * 3 / 2
    "recursion_qbin": (
        "from remixed import engine\n"
        "real = engine._qbin\n"
        "engine._qbin = lambda *args: 2 * real(*args)\n"
        "argv = ['eval', '1,0,0,3', '--method', 'induction']\n",
        "invariant violated: value of degree above 6 for (1, 0, 0, 3)",
    ),
}


@pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
def test_invariant_violation_survives_optimize(route):
    script = (
        "import sys\n"
        "from remixed import cli\n"
        "from remixed.qcalc import QPoly\n"
        + BROKEN_ROUTES[route][0]
        + "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "sys.exit(cli.main(argv))\n"
    )
    proc = python("-O", "-c", script)
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout == ""
    assert BROKEN_ROUTES[route][1] in proc.stderr
    assert "Traceback" not in proc.stderr
