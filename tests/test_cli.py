import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import cli
from netbell.builder import mixed_state_bound
from netbell.errors import NonConvergenceError
from netbell.qstate import WernerSpec, random_mixed, werner

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "netbell.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_cli_import_loads_no_scipy():
    """The CLI depends on numpy alone; importing scipy would more than double
    the start-up time of every command."""
    code = ("import sys, netbell.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_analyze_tree5():
    proc = run_cli("analyze", f"{CONFIG_DIR}/tree5.json")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["l"] == 3
    assert out["leaf_set"] == [1, 4, 5]
    assert out["peripheral_map"] == {"1": 1, "4": 3, "5": 4}


def test_build_six_party():
    proc = run_cli("build", f"{CONFIG_DIR}/six_party.json")
    out = json.loads(proc.stdout)
    assert out["classical_bound"] == 1.0
    assert out["quantum_bound"] == pytest.approx(np.sqrt(2), abs=1e-9)


def test_eval_six_party():
    proc = run_cli("eval", f"{CONFIG_DIR}/six_party.json")
    out = json.loads(proc.stdout)
    assert out["S"] == pytest.approx(np.sqrt(2), abs=1e-9)
    assert out["flags"] == {
        "violates_classical": True,
        "saturates_quantum": True,
        "conditions_met": True,
    }


def test_eval_explicit_strategy(tmp_path):
    """Bilocal chain with hand-written observables reaches sqrt(2)."""
    s = 1 / np.sqrt(2)
    config = {
        "network": {"parties": 3, "sources": [[1, 2], [2, 3]]},
        "inequality": {"k": 2, "fcbi": {"1": "chsh", "2": "chsh"}},
        "states": {
            "1": {"type": "max_entangled"},
            "2": {"type": "max_entangled"},
        },
        "strategy": {
            "1": {"1": {"1": [0, 0, 1]}, "2": {"1": [1, 0, 0]}},
            "2": {
                "1": {"1": [-s, 0, s], "2": [-s, 0, s]},
                "2": {"1": [s, 0, s], "2": [s, 0, s]},
            },
            "3": {"1": {"2": [0, 0, 1]}, "2": {"2": [1, 0, 0]}},
        },
    }
    path = tmp_path / "bilocal_explicit.json"
    path.write_text(json.dumps(config))
    proc = run_cli("eval", str(path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["S"] == pytest.approx(np.sqrt(2), abs=1e-9)
    assert out["provenance"]["strategy"] == "explicit"


def test_optimized_strategy_meets_the_conditions(tmp_path):
    """The strategy `optimize` prints, fed back to `eval`, meets both
    saturation conditions as well as the bound: a see-saw optimum may have
    an intermediate pair at -t0 and X rank one only to about 1e-7."""
    config = json.loads((CONFIG_DIR / "six_party.json").read_text())
    proc = run_cli("optimize", str(CONFIG_DIR / "six_party.json"))
    assert proc.returncode == 0, proc.stderr
    config["strategy"] = json.loads(proc.stdout)["strategy"]
    path = tmp_path / "six_party_optimized.json"
    path.write_text(json.dumps(config))
    proc = run_cli("eval", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["flags"] == {
        "violates_classical": True,
        "saturates_quantum": True,
        "conditions_met": True,
    }


def test_oracle_and_bounds():
    proc = run_cli("oracle", f"{CONFIG_DIR}/bilocal_chain.json")
    out = json.loads(proc.stdout)
    assert out["best_value"] == 1.0
    proc = run_cli("bounds", f"{CONFIG_DIR}/bilocal_chain.json")
    out = json.loads(proc.stdout)
    assert out["mixed"] == pytest.approx(np.sqrt(2) * 0.9, abs=1e-9)


def test_visibility_json_and_csv():
    proc = run_cli("visibility", f"{CONFIG_DIR}/bilocal_chain.json")
    out = json.loads(proc.stdout)
    assert out["per_source_threshold"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert out["sensitivity"]["per_source_threshold_m_plus_1"] == pytest.approx(
        2.0 ** (-1 / 3), abs=1e-9
    )
    proc = run_cli(
        "visibility", f"{CONFIG_DIR}/bilocal_chain.json", "--format", "csv"
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "v,mixed_bound,classical_bound"
    assert len(lines) == 102


def test_discriminate_reports_window():
    proc = run_cli(
        "discriminate",
        f"{CONFIG_DIR}/discriminate_tree_vs_chain.json",
        "--restarts",
        "8",
    )
    out = json.loads(proc.stdout)
    assert out["verdict"] in ("BOUNDARY", "VIOLATED")
    assert out["window"]["bounds"][0] == pytest.approx(2.0 ** -0.375, abs=1e-9)
    assert out["window"]["sensitivity"]["bounds_m_plus_1"][0] == pytest.approx(
        2.0 ** -0.3, abs=1e-9
    )


@pytest.mark.parametrize(
    "name", ["bilocal_chain", "six_party_chained3", "six_party_asymmetric"]
)
def test_visibility_csv_is_the_werner_bound(name):
    """The sweep's closed form equals mixed_state_bound on |Phi+> Werner
    states at every source, for CHSH, chained and EBI maps."""
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    topology = cli._parse_topology(config["network"])
    ineq = cli._parse_inequality(config, topology)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["visibility", str(CONFIG_DIR / f"{name}.json"), "--format", "csv"])
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.getvalue().splitlines()}
    for v in (0.3, 0.75, 1.0):
        states = {s: werner(WernerSpec(v)) for s in range(1, topology.n_sources + 1)}
        expected = mixed_state_bound(ineq, states)
        assert float(rows[str(v)][1]) == pytest.approx(expected, abs=1e-9)
        assert float(rows[str(v)][2]) == pytest.approx(ineq.classical_bound, abs=1e-9)


def test_discriminate_on_leafless_host(tmp_path):
    """A ring host has no leaves and so no visibility threshold: the search
    result is still reported, with no window."""
    config = json.loads((CONFIG_DIR / "discriminate_tree_vs_chain.json").read_text())
    config["host_network"] = {"parties": 5, "sources": [[p, p % 5 + 1] for p in range(1, 6)]}
    path = tmp_path / "ring_host.json"
    path.write_text(json.dumps(config))
    proc = run_cli("discriminate", str(path), "--restarts", "2")
    assert proc.returncode == 0, proc.stderr
    out = strict_json(proc.stdout)
    assert out["verdict"] in ("VIOLATED", "BOUNDARY", "NOT_FOUND")
    assert out["window"] is None


def test_unknown_config_key_is_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"network": {"parties": 3, "sources": [[1, 2], [2, 3]]},
                                "typo_section": {}}))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"


def test_validation_error_is_exit_2(tmp_path):
    config = {
        "network": {"parties": 3, "sources": [[1, 2], [2, 3]]},
        "inequality": {"k": 2, "fcbi": {"1": "chsh"}},
    }
    path = tmp_path / "missing_fcbi.json"
    path.write_text(json.dumps(config))
    proc = run_cli("build", str(path))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "MissingFcbiError"


def test_missing_states_is_exit_2(tmp_path):
    config = {
        "network": {"parties": 3, "sources": [[1, 2], [2, 3]]},
        "inequality": {"k": 2, "fcbi": {"1": "chsh", "2": "chsh"}},
        "states": {"1": {"type": "max_entangled"}},
    }
    path = tmp_path / "missing_states.json"
    path.write_text(json.dumps(config))
    proc = run_cli("eval", str(path))
    assert proc.returncode == 2


def test_incomplete_strategy_is_exit_2(tmp_path):
    """An explicit strategy on bilocal_chain without slot (1, 1, 1) exits 2
    with one JSON line naming the error and the missing slot."""
    config = json.loads((CONFIG_DIR / "bilocal_chain.json").read_text())
    config["strategy"] = {
        str(p): {str(x): {str(s): [0.0, 0.0, 1.0] for s in sources} for x in (1, 2)}
        for p, sources in ((1, [1]), (2, [1, 2]), (3, [2]))
    }
    del config["strategy"]["1"]["1"]
    path = tmp_path / "missing_slot.json"
    path.write_text(json.dumps(config))
    proc = run_cli("eval", str(path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0]) == {
        "error": "IncompleteStrategyError",
        "message": "missing observable for party 1, input 1, source 1",
    }
    assert proc.stdout == ""


def test_bounds_on_a_slow_mixed_state(tmp_path):
    """EBI on random_mixed(4) at source 1 of six_party_asymmetric: the
    see-saw alone stalls at 4.72566596071 in every restart, and `bounds`
    exited 3 with a partial report. The Newton finish gives a mixed bound:
    the EBI leaf's factor falls from 4 sqrt(3) to 4.725668564936."""
    config = json.loads((CONFIG_DIR / "six_party_asymmetric.json").read_text())
    rho = random_mixed(4).matrix
    config["states"]["1"] = {
        "type": "matrix",
        "matrix": [[[z.real, z.imag] for z in row] for row in rho],
    }
    path = tmp_path / "asymmetric_mixed4.json"
    path.write_text(json.dumps(config))
    proc = run_cli("bounds", str(path))
    assert proc.returncode == 0, proc.stderr
    out = strict_json(proc.stdout)
    ratio = (4.725668564936 / (4.0 * np.sqrt(3.0))) ** (1.0 / 3.0)
    assert out["mixed"] == pytest.approx(out["quantum"] * ratio, rel=1e-10)


def test_nonconvergence_is_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NonConvergenceError("did not converge", best_value=1.23)

    monkeypatch.setattr(cli.optimizer, "seesaw_network", boom)
    code = cli.main(["optimize", f"{CONFIG_DIR}/six_party.json"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"] == "NonConvergenceError"
    partial = json.loads(captured.out)
    assert partial["partial"] is True
    assert partial["best_value"] == pytest.approx(1.23)


def test_matrix_state_roundtrip(tmp_path):
    """A density matrix given entry-by-entry (with [re, im] pairs) evaluates
    identically to the built-in constructor."""
    rho = np.full((4, 4), 0.0)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    matrix = [[[float(v), 0.0] for v in row] for row in rho]
    config = {
        "network": {"parties": 3, "sources": [[1, 2], [2, 3]]},
        "inequality": {"k": 2, "fcbi": {"1": "chsh", "2": "chsh"}},
        "states": {
            "1": {"type": "matrix", "matrix": matrix},
            "2": {"type": "max_entangled"},
        },
    }
    path = tmp_path / "matrix_state.json"
    path.write_text(json.dumps(config))
    proc = run_cli("eval", str(path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["S"] == pytest.approx(np.sqrt(2), abs=1e-9)


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("analyze", f"{CONFIG_DIR}/tree5.json", "--output", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(target.read_text())["l"] == 3


def test_unwritable_output_is_exit_2(monkeypatch, capsys, tmp_path):
    """An --output under a missing directory exits 2 with one JSON line on
    stderr, also when the report to write is exit 3's partial one."""
    target = tmp_path / "missing" / "report.json"
    proc = run_cli("analyze", f"{CONFIG_DIR}/tree5.json", "--output", str(target))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == "ConfigError"
    assert proc.stdout == ""

    def boom(*args, **kwargs):
        raise NonConvergenceError("did not converge", best_value=1.23)

    monkeypatch.setattr(cli.optimizer, "seesaw_network", boom)
    code = cli.main(["optimize", f"{CONFIG_DIR}/six_party.json", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == "ConfigError"
    assert captured.out == ""
    assert not target.exists()


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity extensions."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _bilocal(edit):
    config = json.loads((CONFIG_DIR / "bilocal_chain.json").read_text())
    edit(config)
    return config


MALFORMED = {
    "fcbi_list": ("build", lambda c: c["inequality"].update(fcbi=["chsh", "chsh"])),
    "k_string": ("build", lambda c: c["inequality"].update(k="x")),
    "werner_v_string": ("bounds", lambda c: c["states"]["1"].update(v="hi")),
    "custom_entry_string": ("build", lambda c: c["inequality"]["fcbi"].update(
        {"1": {"custom": [[0.5, 0.5], [0.5, "a"]]}})),
    "restarts_zero": ("optimize", lambda c: c["options"].update(restarts=0)),
    "seed_negative": ("optimize", lambda c: c["options"].update(seed=-1)),
    "mode_unknown": ("oracle", lambda c: c["options"].update(mode="annealing")),
    "state_unknown_source": ("bounds", lambda c: c["states"].update({"3": {"type": "max_entangled"}})),
    "matrix_nan": ("bounds", lambda c: c["states"].update({"1": {
        "type": "matrix", "matrix": [[float("nan")] * 4] * 4}})),
    # Refused before the 10^6 x 10^6 coefficient matrix is allocated.
    "chained_huge": ("build", lambda c: c["inequality"]["fcbi"].update(
        {"1": {"chained": 1_000_000}})),
    # int() would truncate these to k = 2, 3 parties and source [1, 2].
    "k_fraction": ("build", lambda c: c["inequality"].update(k=2.7)),
    "parties_fraction": ("analyze", lambda c: c["network"].update(parties=3.9)),
    "source_fraction": ("analyze", lambda c: c["network"].update(sources=[[1.5, 2], [2, 3]])),
    # float() would read these booleans as 1.0 and 0.0.
    "werner_v_bool": ("bounds", lambda c: c["states"]["1"].update(v=True)),
    "custom_entry_bool": ("build", lambda c: c["inequality"]["fcbi"].update(
        {"1": {"custom": [[True, 0.5], [0.5, False]]}})),
    "tol_bool": ("bounds", lambda c: c["options"].update(tol=True)),
    "matrix_entry_bool": ("bounds", lambda c: c["states"].update({"1": {
        "type": "matrix", "matrix": [[True, 0, 0, 0], [0, False, 0, 0],
                                     [0, 0, 0, 0], [0, 0, 0, [False, 0]]]}})),
    # float() and int() would parse these numeric strings.
    "werner_v_numeric_string": ("bounds", lambda c: c["states"]["1"].update(v="0.5")),
    "k_numeric_string": ("build", lambda c: c["inequality"].update(k="2")),
    "parties_numeric_string": ("build", lambda c: c["network"].update(parties="3")),
    "custom_entry_numeric_string": ("build", lambda c: c["inequality"]["fcbi"].update(
        {"1": {"custom": [["0.5", "0.5"], ["0.5", "-0.5"]]}})),
    "source_string": ("build", lambda c: c["network"].update(sources=[["1", "2"], ["2", "3"]])),
    # An integer past the float range, which float() cannot convert.
    "werner_v_huge_int": ("bounds", lambda c: c["states"]["1"].update(v=10**400)),
    # The int64 cast of these endpoints would warn on stderr.
    "source_infinite": ("build", lambda c: c["network"].update(sources=[[1, 2], [2, float("inf")]])),
    "source_huge": ("build", lambda c: c["network"].update(sources=[[1, 2], [2, 1e30]])),
    # int() would read the key " 1" as source 1.
    "fcbi_key_padded": ("build", lambda c: c["inequality"].update(
        fcbi={" 1": "chsh", "2": "chsh"})),
}
# The error each malformed config reports, where it is not ConfigError.
MALFORMED_ERRORS = {
    "chained_huge": "TooLargeError",
    "source_fraction": "IndexOutOfRangeError",
    "source_string": "IndexOutOfRangeError",
    "source_infinite": "IndexOutOfRangeError",
    "source_huge": "IndexOutOfRangeError",
}


@pytest.mark.parametrize("name", [*MALFORMED, "random_budget_zero"])
def test_contract_faults(name, tmp_path):
    """Malformed configs exit 2 with one JSON line on stderr; a zero random
    budget reports no value in strict JSON."""
    if name == "random_budget_zero":
        proc = run_cli("oracle", f"{CONFIG_DIR}/bilocal_chain.json",
                       "--mode", "random", "--budget", "0")
        assert proc.returncode == 0, proc.stderr
        out = strict_json(proc.stdout)
        assert out["best_value"] is None
        assert out["converged"] is False
        return
    command, edit = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_bilocal(edit)))
    proc = run_cli(command, str(path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == MALFORMED_ERRORS.get(name, "ConfigError")
    assert proc.stdout == ""


@pytest.mark.parametrize("source", ["flag", "options"])
def test_negative_tol_is_exit_2(source, tmp_path):
    """A negative tolerance would turn discriminate's BOUNDARY at sqrt(2) into
    VIOLATED and eval's saturation into a miss; from the flag or from the
    config's options it is refused before any search runs."""
    if source == "flag":
        proc = run_cli("discriminate", f"{CONFIG_DIR}/discriminate_tree_vs_chain.json",
                       "--restarts", "4", "--tol", "-1")
    else:
        config = json.loads((CONFIG_DIR / "six_party.json").read_text())
        config.setdefault("options", {})["tol"] = -1
        path = tmp_path / "negative_tol.json"
        path.write_text(json.dumps(config))
        proc = run_cli("eval", str(path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == "ConfigError"
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["int_too_long", "not_utf8"])
def test_unreadable_config_is_exit_2(name, tmp_path):
    """JSON that json.load refuses with a plain ValueError (an integer past
    Python's 4,300-digit limit) or a UnicodeDecodeError (byte 0xE9 in a key)
    exits 2 with one JSON line. json.dumps refuses such an integer, so both
    files are written raw."""
    text = (CONFIG_DIR / "bilocal_chain.json").read_text()
    path = tmp_path / f"{name}.json"
    if name == "int_too_long":
        path.write_text(text.replace('"k": 2', '"k": ' + "7" * 5000))
    else:
        path.write_bytes(text.replace('"seed"', '"s\xe9ed"').encode("latin-1"))
    proc = run_cli("build", str(path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["error"] == "ConfigError"
    assert proc.stdout == ""


_BASES = [
    ("bilocal_chain.json", ["analyze", "build", "eval", "bounds", "oracle", "optimize"]),
    ("discriminate_tree_vs_chain.json", ["discriminate"]),
    ("six_party_asymmetric.json", ["build", "oracle", "visibility"]),
]

_KEYS = st.sampled_from(["1", "2", "3", "k", "v", "type", "chained", "custom", "matrix", "x"])
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=8),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["chsh", "ebi", "x", "", "max_entangled", "werner", "matrix", "random"]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=12,
)


@st.composite
def _mutated_run(draw):
    """A shipped config with one node replaced, deleted or added, and a
    command that reads it."""
    name, commands = draw(st.sampled_from(_BASES))
    config = json.loads((CONFIG_DIR / name).read_text())
    if name == "bilocal_chain.json" and draw(st.booleans()):
        s = 1 / np.sqrt(2)
        config["strategy"] = {
            "1": {"1": {"1": [0, 0, 1]}, "2": {"1": [1, 0, 0]}},
            "2": {"1": {"1": [-s, 0, s], "2": [-s, 0, s]},
                  "2": {"1": [s, 0, s], "2": [s, 0, s]}},
            "3": {"1": {"2": [0, 0, 1]}, "2": {"2": [1, 0, 0]}},
        }
    node = config
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(_KEYS)] = draw(_VALUES)
        else:
            node.append(draw(_VALUES))
        break
    return draw(st.sampled_from(commands)), config


@given(run=_mutated_run())
@settings(max_examples=80, deadline=None)
def test_mutated_configs_keep_the_contract(run, tmp_path_factory):
    """Exit code in {0, 2, 3}, at most one JSON line on stderr, strict JSON
    on stdout."""
    command, config = run
    path = tmp_path_factory.mktemp("mutated") / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--restarts", "2", "--budget", "50"])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    for line in lines:
        assert "error" in strict_json(line)
    if code == 2:
        assert out.getvalue() == ""
    else:
        strict_json(out.getvalue())
