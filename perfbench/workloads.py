"""Benchmark workloads: inputs made from a seed, rounds of calls into netbell,
and checks of every output against reference computations or properties
the method must have.

Each workload is a class. Its constructor is the set-up (importing netbell
has already happened; it builds the inputs from the seed) and ``run_round``
performs one round of operations through a ``Round`` recorder, leaving in
``Round.layer`` the per-layer values that come from the operations' results
rather than from spans. Calls go through module attributes
(``optimizer.seesaw_network(...)``) so that a traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import speed
from netbell import builder, cli, evaluator, fcbi, optimizer, qstate, topology
from netbell.errors import DuplicateEdgeError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
OUT = Path(__file__).resolve().parent / "out"
SQRT2 = math.sqrt(2.0)


class Round:
    """One round: per-task busy time, attempted and failed operations, and
    the messages of checks that did not hold.

    Operation times are kept as measured (``raw_times``) and, after
    ``close()``, also scaled to the reference machine speed (``times``) by
    the calibration samples taken during the round.
    """

    def __init__(self, clock: speed.Clock, index: int = 0, tracer=None):
        self.clock = clock
        self.index = index
        self.tracer = tracer
        clock.force()
        self._first_sample = len(clock.samples) - 1
        self.times: dict[str, float] = {}
        self.raw_times: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.layer: dict[str, float] = {}
        self.summary: dict[str, dict] = {}

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_times.values())

    def op(self, task: str, fn, *args, **kwargs):
        """Time one operation; an exception counts it as failed and gives None."""
        self.attempted += 1
        self.clock.tick()
        span = self.tracer.begin(f"op.{task}") if self.tracer else None
        kernel = self.clock.kernel_s
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.fail(f"{task} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start - (self.clock.kernel_s - kernel)
            self.raw_times[task] = self.raw_times.get(task, 0.0) + elapsed
            if span is not None:
                self.tracer.end(span)

    def close(self) -> None:
        """Take the calibration sample that ends the round and scale the times."""
        self.clock.force()
        scale = self.clock.scale_since(self._first_sample)
        self.times = {task: seconds * scale for task, seconds in self.raw_times.items()}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def load_config(name: str) -> dict:
    with open(CONFIGS / name) as fh:
        return json.load(fh)


def catalog(spec):
    """netbell coefficient matrix for a config FCBI spec (catalog entries only)."""
    if spec == "chsh":
        return fcbi.make_catalog(fcbi.CHSH)
    if spec == "ebi":
        return fcbi.make_catalog(fcbi.EBI)
    return fcbi.make_catalog(fcbi.CHAINED, int(spec["chained"]))


def network_inputs(config: dict):
    """(topology, inequality) built from a config's network and inequality."""
    net = config["network"]
    topo = topology.build_topology(net["parties"], net["sources"])
    fcbi_map = {int(s): catalog(spec) for s, spec in config["inequality"]["fcbi"].items()}
    return topo, builder.build_inequality(topo, config["inequality"]["k"], fcbi_map)


def leaf_matrices(config: dict) -> dict[int, np.ndarray]:
    """Reference coefficient matrix of each leaf party of a config's network."""
    net = config["network"]
    leaves = ref.leaves_from_edges(net["parties"], net["sources"])
    specs = config["inequality"]["fcbi"]
    return {
        int(p): ref.fcbi_spec(specs[str(int(s))])[0]
        for p, s in zip(leaves["leaf_set"], leaves["peripheral_sources"])
    }


def bounds_of(config: dict) -> tuple[float, float]:
    """Reference (classical, quantum) bounds: geometric means over leaves."""
    specs = [ref.fcbi_spec(s) for s in config["inequality"]["fcbi"].values()]
    l = len(specs)
    return ref.geomean([s[1] for s in specs], l), ref.geomean([s[2] for s in specs], l)


def reference_S(edges, leaves: dict, k: int, states: dict, strategy) -> float:
    corr = {s: ref.correlation_matrix(states[s].matrix) for s in states}
    bloch = {key: obs.n for key, obs in strategy.slots.items()}
    return ref.network_S(np.asarray(edges), leaves, k, corr, bloch)


def lhv_reference(config: dict) -> float:
    mats = leaf_matrices(config)
    return ref.leaf_only_lhv_max([mats[p] for p in sorted(mats)])


def add_hits(total: list[int], rep) -> None:
    """Add a search's restarts that ended within 1e-6 of its best, and its restarts."""
    best = max(rep.history)
    total[0] += sum(1 for h in rep.history if h >= best - 1e-6)
    total[1] += len(rep.history)


class Workload:
    name = ""
    probes: tuple[str, ...] = ("import",)
    # Calibrate from a timer while operations run; off where the operations
    # are child processes, whose core the parent's kernel would compete for.
    timer_sampling = True

    def __init__(self, seed: int):
        self.seed = seed

    def run_round(self, rec: Round) -> None:
        raise NotImplementedError

    def traced_round(self, rec: Round) -> None:
        self.run_round(rec)


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# Configs derived from bilocal_chain.json that the CLI must reject with exit
# 2 and a one-line JSON error: name -> (command, edit of the config).
MALFORMED = {
    "fcbi_list": ("build", lambda c: c["inequality"].update(fcbi=["chsh", "chsh"])),
    "k_string": ("build", lambda c: c["inequality"].update(k="x")),
    "werner_v_string": ("bounds", lambda c: c["states"]["1"].update(v="hi")),
    "custom_entry_string": ("build", lambda c: c["inequality"]["fcbi"].update(
        {"1": {"custom": [[0.5, 0.5], [0.5, "a"]]}})),
    "restarts_zero": ("optimize", lambda c: c["options"].update(restarts=0)),
}


def leaf_count(net: dict) -> int:
    return len(ref.leaves_from_edges(net["parties"], net["sources"])["leaf_set"])


class CliConfigs(Workload):
    """Every subcommand on the shipped configs, each its own process."""

    name = "cli_configs"
    probes = ("import", "oracle_rss")
    timer_sampling = False

    def __init__(self, seed: int):
        super().__init__(seed)
        s = str(seed)

        def c(name):
            return str(CONFIGS / name)

        self.commands = [
            ["analyze", c("tree5.json")],
            ["analyze", c("six_party.json")],
            ["build", c("six_party_asymmetric.json")],
            ["build", c("chain5.json")],
            ["eval", c("six_party.json"), "--seed", s],
            ["bounds", c("six_party_asymmetric.json"), "--seed", s],
            ["bounds", c("bilocal_chain.json"), "--seed", s],
            ["oracle", c("six_party_asymmetric.json"), "--mode", "exhaustive"],
            ["oracle", c("bilocal_chain.json"), "--mode", "random", "--budget", "500",
             "--seed", s],
            ["optimize", c("bilocal_chain.json"), "--restarts", "4", "--seed", s],
            ["discriminate", c("discriminate_tree_vs_chain.json"), "--restarts", "4",
             "--seed", s],
            ["visibility", c("chain5.json"), "--format", "csv", "--seed", s],
            ["visibility", c("tree5.json")],
        ]
        # The known contract faults: each must end in exit 2 with one JSON
        # line on stderr (or, for the zero budget, print strict JSON).
        bad_dir = OUT / "malformed"
        bad_dir.mkdir(parents=True, exist_ok=True)
        self.malformed = []
        for name, (command, edit) in MALFORMED.items():
            config = load_config("bilocal_chain.json")
            edit(config)
            path = bad_dir / f"{name}.json"
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(config))
            os.replace(tmp, path)
            self.malformed.append([command, str(path)])
        self.budget_zero = ["oracle", c("bilocal_chain.json"), "--mode", "random",
                            "--budget", "0"]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # One CPU for this process and the commands it starts, so that the
        # calibration kernel runs on the core the commands run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.first_stdout: dict[tuple[str, int], str] = {}
        self._asym_lhv: float | None = None

    # -- running ---------------------------------------------------------

    def _subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "netbell.cli", *argv],
                              capture_output=True, text=True, env=self.env, cwd=ROOT)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_round(self, rec: Round) -> None:
        self._round(rec, self._subprocess, "subprocess")

    def traced_round(self, rec: Round) -> None:
        self._round(rec, self._in_process, "in_process")

    def _round(self, rec: Round, run, mode: str) -> None:
        for index, argv in enumerate(self.commands):
            result = rec.op(f"cli.{argv[0]}", run, argv)
            if result is None:
                continue
            code, out, err = result
            if code != 0:
                rec.fail(f"{' '.join(argv)} exited {code}: {err.strip()[-200:]}")
                continue
            key = (mode, index)
            if key in self.first_stdout:
                rec.check(out == self.first_stdout[key],
                          f"{' '.join(argv)}: stdout differs from the first run")
            else:
                self.first_stdout[key] = out
            try:
                self._check(argv, out, rec)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                rec.check(False, f"{' '.join(argv)}: unreadable output: {exc}")
        for argv in self.malformed:
            result = rec.op("cli.malformed", run, argv)
            if result is None:
                continue
            code, _, err = result
            lines = err.strip().splitlines()
            ok = code == 2 and len(lines) == 1
            if ok:
                try:
                    ok = isinstance(strict_json(lines[0]), dict)
                except ValueError:
                    ok = False
            if not ok:
                last = err.strip().splitlines()[-1:] or [""]
                rec.fail(f"{argv[0]} {Path(argv[1]).name} (malformed): exit {code}, {last[0][:120]}")
        result = rec.op("cli.malformed", run, self.budget_zero)
        if result is not None:
            code, out, _ = result
            try:
                strict_json(out)
                ok = code == 0
            except ValueError:
                ok = False
            if not ok:
                rec.fail(f"oracle bilocal_chain.json --mode random --budget 0: "
                         f"exit {code}, stdout is not strict JSON")

    # -- checks ------------------------------------------------------------

    def asym_lhv(self) -> float:
        if self._asym_lhv is None:
            self._asym_lhv = lhv_reference(load_config("six_party_asymmetric.json"))
        return self._asym_lhv

    def _check(self, argv, out: str, rec: Round) -> None:
        command, path = argv[0], Path(argv[1])
        config = json.loads(path.read_text())
        label = f"{command} {path.name}"
        if command == "visibility" and "--format" in argv:
            self._check_sweep(config, out, rec, label)
            return
        data = strict_json(out)
        classical, quantum = bounds_of(config)
        if command == "analyze":
            net = config["network"]
            leaves = ref.leaves_from_edges(net["parties"], net["sources"])
            rec.check(data["l"] == len(leaves["leaf_set"]), f"{label}: leaf count")
            rec.check(data["leaf_set"] == leaves["leaf_set"].tolist(), f"{label}: leaf set")
            rec.check(data["intermediate_set"] == leaves["intermediate_set"].tolist(),
                      f"{label}: intermediate set")
            rec.check(data["peripheral_map"] == {
                str(p): int(s) for p, s in zip(leaves["leaf_set"], leaves["peripheral_sources"])
            }, f"{label}: peripheral map")
        elif command == "build":
            rec.check(ref.close12(data["classical_bound"], classical), f"{label}: classical bound")
            rec.check(ref.close12(data["quantum_bound"], quantum), f"{label}: quantum bound")
        elif command == "eval":
            rec.check(abs(data["S"] - SQRT2) <= 1e-9, f"{label}: S = {data['S']} is not sqrt(2)")
            rec.check(data["mixed_bound"] <= data["quantum_bound"] + 1e-9, f"{label}: mixed > quantum")
        elif command == "bounds":
            rec.check(ref.close12(data["classical"], classical), f"{label}: classical bound")
            rec.check(ref.close12(data["quantum"], quantum), f"{label}: quantum bound")
            rec.check(data["mixed"] <= quantum + 1e-9, f"{label}: mixed {data['mixed']} > quantum")
        elif command == "oracle" and "exhaustive" in argv:
            best = data["best_value"]
            rec.check(ref.close12(best, self.asym_lhv()),
                      f"{label}: exhaustive {best} != leaf-only enumeration")
            rec.check(best <= classical + 1e-12, f"{label}: exhaustive above the classical bound")
        elif command == "oracle":
            rec.check(data["best_value"] <= classical + 1e-9, f"{label}: random model above the bound")
        elif command == "optimize":
            rec.check(data["best_value"] <= quantum + 1e-9, f"{label}: see-saw above the quantum bound")
        elif command == "discriminate":
            best, tol = data["best_value"], 1e-9
            expected = ("VIOLATED" if best > SQRT2 + tol
                        else "BOUNDARY" if best >= SQRT2 - tol else "NOT_FOUND")
            rec.check(data["verdict"] == expected, f"{label}: verdict {data['verdict']}")
            ends = [2.0 ** (-leaf_count(config[section]) / (2.0 * len(config[section]["sources"])))
                    for section in ("network", "host_network")]
            rec.check(all(ref.close12(a, b) for a, b in zip(data["window"]["bounds"], sorted(ends))),
                      f"{label}: visibility window")
        elif command == "visibility":
            l, m = leaf_count(config["network"]), len(config["network"]["sources"])
            rec.check(ref.close12(data["per_source_threshold"], 2.0 ** (-l / (2.0 * m))),
                      f"{label}: per-source threshold")
            rec.check(ref.close12(data["product_threshold"], 2.0 ** (-l / 2.0)),
                      f"{label}: product threshold")

    def _check_sweep(self, config, out: str, rec: Round, label: str) -> None:
        lines = out.strip().splitlines()
        rec.check(lines[0] == "v,mixed_bound,classical_bound", f"{label}: csv header")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        rec.check(len(rows) == 101, f"{label}: {len(rows)} sweep rows")
        l, m = leaf_count(config["network"]), len(config["network"]["sources"])
        classical, quantum = bounds_of(config)
        for i, (v, bound, cb) in enumerate(rows):
            rec.check(ref.close12(v, i / 100.0), f"{label}: v grid at row {i}")
            expected = ref.werner_mixed_bound(quantum, i / 100.0, m, l)
            rec.check(ref.close12(bound, expected), f"{label}: bound {bound} != {expected} at v={v}")
            rec.check(ref.close12(cb, classical), f"{label}: classical column")


# ---------------------------------------------------------------------------
# network searches
# ---------------------------------------------------------------------------


def search_seed(seed: int, index: int) -> int:
    """Seed of the searches in round `index` of a run: every round searches
    from new starting points, so a run averages over the seed-to-seed
    variation in the see-saw's work instead of repeating one draw."""
    return 1000 * seed + index


class NetworkSearchChsh(Workload):
    """CHSH see-saws: the six-party network and tree5 discrimination on the
    chain5 and tree5 hosts."""

    name = "network_search_chsh"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.six_config = load_config("six_party.json")
        _, self.six = network_inputs(self.six_config)
        self.six_states = {s: qstate.max_entangled() for s in range(1, 7)}
        disc = load_config("discriminate_tree_vs_chain.json")
        self.tree_config = disc
        self.tree, self.tree_ineq = network_inputs(disc)
        host = disc["host_network"]
        self.hosts = {"chain": (topology.build_topology(host["parties"], host["sources"]),
                                host["sources"]),
                      "tree": (self.tree, disc["network"]["sources"])}
        self.tree_states = {s: qstate.max_entangled() for s in range(1, 5)}

    def run_round(self, rec: Round) -> None:
        hits = [0, 0]
        seed = search_seed(self.seed, rec.index)
        rep = rec.op("seesaw_six_party", optimizer.seesaw_network, self.six, self.six_states,
                     restarts=16, seed=seed)
        if rep is not None:
            check_search(rec, "six_party", rep, self.six_config, self.six_states, SQRT2,
                         self.six_config["network"]["sources"])
            add_hits(hits, rep)
        for host_name, (host, edges) in self.hosts.items():
            rep = rec.op("discriminate", optimizer.discriminate, self.tree_ineq, host,
                         self.tree_states, restarts=32, seed=seed)
            if rep is None:
                continue
            label = f"discriminate on the {host_name} host"
            rec.check(rep.best_value >= SQRT2 - 1e-6, f"{label}: {rep.best_value} < sqrt(2) - 1e-6")
            if host_name == "tree":
                rec.check(rep.best_value <= SQRT2 + 1e-9, f"{label}: above sqrt(2)")
            s_ref = reference_S(edges, leaf_matrices(self.tree_config), 2, self.tree_states,
                                rep.best_config)
            rec.check(abs(s_ref - rep.best_value) <= 1e-9,
                      f"{label}: strategy re-evaluates to {s_ref}, reported {rep.best_value}")
            add_hits(hits, rep)
        rec.layer = {
            "optimizer.seesaw_restarts": 16 + 64,
            "optimizer.restart_hit_ratio": hits[0] / hits[1] if hits[1] else 0.0,
        }


class NetworkSearchAsymmetric(Workload):
    """The see-saw on six_party_asymmetric: EBI/EBI/chained-4, 18 terms per column."""

    name = "network_search_asymmetric"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = load_config("six_party_asymmetric.json")
        _, self.ineq = network_inputs(self.config)
        self.states = {s: qstate.max_entangled() for s in range(1, 7)}

    def run_round(self, rec: Round) -> None:
        rep = rec.op("seesaw_asymmetric", optimizer.seesaw_network, self.ineq, self.states,
                     restarts=4, seed=search_seed(self.seed, rec.index))
        hits = [0, 0]
        if rep is not None:
            check_search(rec, "six_party_asymmetric", rep, self.config, self.states,
                         bounds_of(self.config)[1], self.config["network"]["sources"])
            add_hits(hits, rep)
        rec.layer = {
            "optimizer.seesaw_restarts": 4,
            "optimizer.restart_hit_ratio": hits[0] / hits[1] if hits[1] else 0.0,
        }


def check_search(rec: Round, label, rep, config, states, bound, edges) -> None:
    rec.check(rep.best_value <= bound + 1e-9, f"{label}: see-saw {rep.best_value} above {bound}")
    rec.check(rep.best_value >= bound - 1e-6, f"{label}: see-saw {rep.best_value} below {bound} - 1e-6")
    s_ref = reference_S(edges, leaf_matrices(config), config["inequality"]["k"], states,
                        rep.best_config)
    rec.check(abs(s_ref - rep.best_value) <= 1e-9,
              f"{label}: strategy re-evaluates to {s_ref}, reported {rep.best_value}")


# ---------------------------------------------------------------------------
# state bounds
# ---------------------------------------------------------------------------


class StateBoundsSweep(Workload):
    """The 101-point Werner visibility sweep of the chained-3 mixed bound."""

    name = "state_bounds_sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = load_config("six_party_chained3.json")
        _, self.ineq = network_inputs(self.config)
        self.grid = np.linspace(0.0, 1.0, 101)

    def _point(self, v: float) -> float:
        states = {s: qstate.werner(qstate.WernerSpec(v)) for s in range(1, 7)}
        return builder.mixed_state_bound(self.ineq, states, restarts=32, seed=self.seed)

    def run_round(self, rec: Round) -> None:
        q = bounds_of(self.config)[1]
        for v in self.grid:
            bound = rec.op("visibility_sweep", self._point, float(v))
            if bound is None:
                continue
            expected = ref.werner_mixed_bound(q, float(v), 6, 3)
            rec.check(abs(bound - expected) <= 1e-8, f"sweep at v={v}: {bound} != {expected}")


class StateBoundsAudit(Workload):
    """Random mixed states against the bounds, and the dense-tensor cross-check."""

    name = "state_bounds_audit"
    AUDIT_STATES = 1200
    TENSOR_SHAPES = (((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
                     ((1, 2), (2, 3), (3, 4), (3, 5), (4, 6)))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.config = load_config("bilocal_chain.json")
        self.chain3, self.ineq = network_inputs(self.config)
        self.chsh = self.ineq.fcbi_map[1]
        self.audit = []
        for _ in range(self.AUDIT_STATES):
            seeds = [int(x) for x in rng.integers(0, 2**31, size=2)]
            self.audit.append((seeds, random_strategy(self.chain3, 2, rng)))
        # Two fixed 5-source shapes (two and three leaves), so every seed asks
        # for the same number of dense contractions; the seed picks the
        # party labels, the states and the strategies.
        self.tensor = []
        for shape in self.TENSOR_SHAPES:
            n = len(shape) + 1
            label = np.concatenate([[0], rng.permutation(n) + 1])
            edges = label[np.array(shape)]
            topo = topology.build_topology(n, edges)
            leaves = ref.leaves_from_edges(n, edges)
            ineq = builder.build_inequality(
                topo, 2, {int(s): self.chsh for s in leaves["peripheral_sources"]})
            seeds = [int(x) for x in rng.integers(0, 2**31, size=n - 1)]
            states = {s: qstate.random_mixed(x) for s, x in enumerate(seeds, start=1)}
            self.tensor.append((ineq, states, random_strategy(topo, 2, rng)))

    def _audit_one(self, seeds, strategy):
        states = {s: qstate.random_mixed(x) for s, x in enumerate(seeds, start=1)}
        value = evaluator.evaluate_S(self.ineq, states, strategy).S
        mixed = builder.mixed_state_bound(self.ineq, states)
        witnesses = []
        for source, leaf, partner in ((1, 1, 2), (2, 3, 2)):
            a = np.array([strategy.slots[(leaf, x, source)].n for x in (1, 2)])
            b = np.array([strategy.slots[(partner, j, source)].n for j in (1, 2)])
            witnesses.append(fcbi.sos_witness(self.chsh, states[source], a, b))
        evaluator.check_conditions(self.ineq, states, strategy)
        return states, value, mixed, witnesses

    def run_round(self, rec: Round) -> None:
        leaves = leaf_matrices(self.config)
        edges = self.config["network"]["sources"]
        for seeds, strategy in self.audit:
            result = rec.op("bound_audit", self._audit_one, seeds, strategy)
            if result is None:
                continue
            states, value, mixed, witnesses = result
            rec.check(value <= mixed + 1e-9, f"audit {seeds}: S {value} > mixed bound {mixed}")
            rec.check(value <= SQRT2 + 1e-9, f"audit {seeds}: S {value} > sqrt(2)")
            log_omega = sum(np.log(np.maximum(w.omega, 1e-300)) for w in witnesses)
            sos = float(np.sum(np.exp(log_omega / 2.0)))
            rec.check(value <= sos + 1e-9, f"audit {seeds}: S {value} > witness bound {sos}")
            for s, state in states.items():
                err = np.max(np.abs(state.corr - ref.correlation_matrix(state.matrix)))
                rec.check(err <= 1e-12, f"audit {seeds}: T of source {s} off by {err}")
            s_ref = reference_S(edges, leaves, 2, states, strategy)
            rec.check(abs(s_ref - value) <= 1e-10, f"audit {seeds}: S {value} != reference {s_ref}")
        for ineq, states, strategy in self.tensor:
            result = rec.op("tensor_check", self._tensor_one, ineq, states, strategy)
            if result is None:
                continue
            dense, factorized = result
            rec.check(abs(dense - factorized) <= 1e-10,
                      f"tensor check: dense {dense} != factorized {factorized}")
        # Computed, not measured: one dense 2^(2M) x 2^(2M) complex state, M = 5.
        rec.layer = {"evaluator.tensor_state_bytes": 16.0 * 2.0 ** (4 * len(self.TENSOR_SHAPES[0]))}

    @staticmethod
    def _tensor_one(ineq, states, strategy):
        dense = evaluator.evaluate_S(ineq, states, strategy, method="tensor").S
        return dense, evaluator.evaluate_S(ineq, states, strategy).S


def random_strategy(topo, k: int, rng):
    """Random unit Bloch vectors for every (party, input, incident source)."""
    strategy = evaluator.MeasurementStrategy()
    for party in range(1, topo.n_parties + 1):
        for inp in range(1, k + 1):
            for source in topo.incident_sources(party):
                v = rng.normal(size=3)
                strategy.set(party, inp, source, v / np.linalg.norm(v))
    return strategy


# ---------------------------------------------------------------------------
# large inputs
# ---------------------------------------------------------------------------


class LargeInputs(Workload):
    """10^6-party graphs, the inequality built on them, and the LHV oracles."""

    name = "large_inputs"
    probes = ("import", "topology_rss", "oracle_rss")
    N = 1_000_000
    RANDOM_MODELS = 1_000_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tree_edges = random_tree_edges(self.N, seed)
        self.chain_edges = np.stack([np.arange(1, self.N), np.arange(2, self.N + 1)], axis=1)
        rng = np.random.default_rng([seed, 1])
        repeat = self.tree_edges[int(rng.integers(0, self.N - 1))]
        self.dup_edges = np.vstack([self.tree_edges, repeat[::-1]])
        self.tree_ref = ref.leaves_from_edges(self.N, self.tree_edges)
        chsh = fcbi.make_catalog(fcbi.CHSH)
        self.fcbi_map = {int(s): chsh for s in self.tree_ref["peripheral_sources"]}
        self.asym_config = load_config("six_party_asymmetric.json")
        _, self.asym = network_inputs(self.asym_config)
        _, self.tree5 = network_inputs(load_config("tree5.json"))
        self._lhv = None

    @staticmethod
    def _graph(n, edges):
        topo = topology.build_topology(n, edges)
        return topo, topology.find_leaves(topo)

    @staticmethod
    def _rejects_duplicate(n, edges) -> bool:
        try:
            topology.build_topology(n, edges)
        except DuplicateEdgeError:
            return True
        return False

    def run_round(self, rec: Round) -> None:
        n = self.N
        tree = rec.op("topology_build", self._graph, n, self.tree_edges)
        if tree is not None:
            leaves = tree[1]
            rec.check(leaves.l == len(self.tree_ref["leaf_set"]), "tree: leaf count")
            rec.check(np.array_equal(leaves.leaf_set, self.tree_ref["leaf_set"]), "tree: leaf set")
            rec.check(np.array_equal(leaves.peripheral_sources, self.tree_ref["peripheral_sources"]),
                      "tree: peripheral sources")
        chain = rec.op("topology_build", self._graph, n, self.chain_edges)
        if chain is not None:
            leaves = chain[1]
            rec.check(leaves.leaf_set.tolist() == [1, n], "chain: leaf set")
            rec.check(leaves.peripheral_sources.tolist() == [1, n - 1], "chain: peripheral sources")
        del chain
        rejected = rec.op("duplicate_edge", self._rejects_duplicate, n, self.dup_edges)
        rec.check(rejected is True, "a repeated edge was not rejected with DuplicateEdgeError")
        if tree is not None:
            ineq = rec.op("inequality_build", builder.build_inequality, tree[0], 2, self.fcbi_map)
            if ineq is not None:
                rec.check(ineq.l == len(self.tree_ref["leaf_set"]), "tree inequality: l")
                rec.check(abs(ineq.classical_bound - 1.0) <= 1e-12, "tree inequality: classical bound")
                rec.check(abs(ineq.quantum_bound - SQRT2) <= 1e-12, "tree inequality: quantum bound")
            del ineq
        del tree
        rep = rec.op("oracle_exhaustive", optimizer.classical_oracle, self.asym, mode="exhaustive")
        if rep is not None:
            if self._lhv is None:
                self._lhv = lhv_reference(self.asym_config)
            rec.check(abs(rep.best_value - self._lhv) <= 1e-12,
                      f"exhaustive oracle {rep.best_value} != leaf-only enumeration {self._lhv}")
            rec.check(rep.best_value <= bounds_of(self.asym_config)[0] + 1e-12,
                      "exhaustive oracle above the classical bound")
            rec.layer["optimizer.oracle_rows"] = rep.restarts_used
            rec.layer["optimizer.oracle_table_bytes"] = 8.0 * rep.restarts_used * self.asym.k
        del rep
        rep = rec.op("oracle_random", optimizer.classical_oracle, self.tree5, mode="random",
                     budget=self.RANDOM_MODELS, seed=self.seed)
        if rep is not None:
            rec.check(rep.best_value <= 1.0 + 1e-9, f"random oracle {rep.best_value} above 1")
            rec.layer["optimizer.oracle_random_models"] = rep.restarts_used


def random_tree_edges(n: int, seed: int) -> np.ndarray:
    """Random recursive tree: party i > 1 hangs off a uniform earlier party."""
    rng = np.random.default_rng(seed)
    parents = rng.integers(1, np.arange(2, n + 1))
    return np.stack([parents, np.arange(2, n + 1)], axis=1)


WORKLOADS = {w.name: w for w in (CliConfigs, NetworkSearchChsh, NetworkSearchAsymmetric,
                                 StateBoundsSweep, StateBoundsAudit, LargeInputs)}

# Per-layer values that are a task's measured time over its restarts.
PER_RESTART = {
    "seesaw_six_party": ("optimizer.restart_s.six_party", 16),
    "discriminate": ("optimizer.restart_s.discriminate", 64),
    "seesaw_asymmetric": ("optimizer.restart_s.asymmetric", 4),
    "oracle_random": ("optimizer.oracle_random_s", 1),
}

CLI_COMMANDS = ("analyze", "build", "eval", "bounds", "oracle", "optimize",
                "discriminate", "visibility")


def span_layers(tracer, rec: Round) -> dict[str, float]:
    """Per-layer values of one traced round: its spans, its measured task
    times, and the values its workload left in ``rec.layer``."""
    summary = tracer.summary()

    def total(*labels):
        return sum(summary[x]["total_s"] for x in labels if x in summary)

    def calls(*labels):
        return sum(summary[x]["calls"] for x in labels if x in summary)

    closed, numeric = "fcbi.state_max[closed]", "fcbi.state_max[numeric]"
    out = {
        "topology.build_topology_s": total("topology.build_topology"),
        "topology.build_topology_calls": calls("topology.build_topology"),
        "topology.find_leaves_s": total("topology.find_leaves"),
        "builder.build_inequality_s": total("builder.build_inequality"),
        "builder.mixed_state_bound_s": total("builder.mixed_state_bound"),
        "builder.mixed_state_bound_calls": calls("builder.mixed_state_bound"),
        "fcbi.state_max_s": total(closed, numeric),
        "fcbi.state_max_calls": calls(closed, numeric),
        "fcbi.state_max_numeric_calls": calls(numeric),
        "fcbi.sos_witness_s": total("fcbi.sos_witness"),
        "fcbi.sos_witness_calls": calls("fcbi.sos_witness"),
        "qstate.bloch_decompose_s": total("qstate.bloch_decompose"),
        "qstate.bloch_decompose_calls": calls("qstate.bloch_decompose"),
        "evaluator.evaluate_S_s": total("evaluator.evaluate_S"),
        "evaluator.evaluate_S_calls": calls("evaluator.evaluate_S"),
        "evaluator.evaluate_S_tensor_s": total("evaluator.evaluate_S[tensor]"),
        "evaluator.check_conditions_s": total("evaluator.check_conditions"),
        "analysis.report_s": total("analysis.report"),
    }
    for command in CLI_COMMANDS:
        durations = tracer.durations(f"op.cli.{command}")
        out[f"cli.{command}_s"] = statistics.median(durations) if durations else 0.0
    for task, (metric, restarts) in PER_RESTART.items():
        if task in rec.raw_times:
            out[metric] = rec.raw_times[task] / restarts
    return {**out, **rec.layer}
