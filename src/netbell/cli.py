"""Command-line interface: JSON config in, deterministic JSON/CSV report out.

Exit codes: 0 success, 2 config or validation error, 3 numeric
non-convergence (a partial report is still emitted). Errors go to stderr as
one-line JSON objects.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import analysis, optimizer
from .builder import build_inequality, mixed_state_bound
from .errors import ConfigError, NetbellError, NonConvergenceError, TooFewLeavesError
from .evaluator import MeasurementStrategy
from .fcbi import CHAINED, CHSH, EBI, custom_matrix, make_catalog
from .networks import chsh_inequality
from .optimizer import LocalModel
from .qstate import (
    MAX_SCHMIDT,
    WernerSpec,
    bloch_decompose,
    classical_zz,
    max_entangled,
    product_00,
    pure_schmidt,
    werner,
)
from .topology import build_topology, find_leaves

_TOP_KEYS = {"network", "inequality", "states", "strategy", "options", "host_network"}
_OPTION_KEYS = {"seed", "restarts", "budget", "tol", "mode"}
_MODES = ("exhaustive", "random")


# ---------------------------------------------------------------------------
# Parsing: every type conversion of a config value goes through these helpers,
# so malformed input ends in ConfigError (exit 2), never in a traceback.
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    """A JSON number a float holds finitely: an int or a float exactly, so
    booleans and numeric strings are refused, and no NaN or infinity."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _int(value, what: str, minimum: int | None = None) -> int:
    if not (_is_number(value) and value == int(value)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    out = int(value)
    if minimum is not None and out < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {out}")
    return out


def _key(value: str, what: str) -> int:
    """A JSON object key naming a source, party or input: decimal digits."""
    if not (value.isascii() and value.isdigit()):
        raise ConfigError(f"{what} must be a decimal integer, got {value!r}")
    return int(value)


def _float(value, what: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _array(value, what: str) -> np.ndarray:
    def numbers(v):
        return type(v) is list and all(numbers(x) or _is_number(x) for x in v)

    if not numbers(value):
        raise ConfigError(f"{what} must be an array of finite numbers, got {value!r}")
    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ConfigError(f"{what} must be a rectangular array, got {value!r}") from None


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing the required section {key!r}")
    return config[key]


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8, and integer
    # literals past Python's int-string limit.
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    options = config.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be an object")
    bad = set(options) - _OPTION_KEYS
    if bad:
        raise ConfigError(f"unknown option keys: {sorted(bad)}")
    return config


def _parse_topology(section) -> "NetworkTopology":
    if not isinstance(section, dict) or set(section) != {"parties", "sources"}:
        raise ConfigError("network section needs exactly {parties, sources}")
    parties = _int(section["parties"], "network parties")
    try:
        return build_topology(parties, section["sources"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad network section: {exc}") from exc


def _parse_fcbi(spec):
    if spec == "chsh":
        return make_catalog(CHSH)
    if spec == "ebi":
        return make_catalog(EBI)
    if isinstance(spec, dict) and set(spec) == {"chained"}:
        return make_catalog(CHAINED, _int(spec["chained"], "chained length"))
    if isinstance(spec, dict) and set(spec) == {"custom"}:
        entries = _array(spec["custom"], "custom fcbi")
        if entries.ndim != 2 or entries.size == 0:
            raise ConfigError("custom fcbi must be a non-empty matrix")
        return custom_matrix(entries)
    raise ConfigError(f"unrecognized fcbi spec {spec!r}")


def _parse_inequality(config: dict, topology):
    section = _require(config, "inequality")
    if not isinstance(section, dict) or set(section) != {"k", "fcbi"}:
        raise ConfigError("inequality section needs exactly {k, fcbi}")
    fcbi_map = {
        _key(source, "fcbi source"): _parse_fcbi(spec)
        for source, spec in _object(section["fcbi"], "fcbi").items()
    }
    return build_inequality(topology, _int(section["k"], "k"), fcbi_map)


def _complex_entry(value):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(*value)
    raise ConfigError(f"matrix entries must be numbers or [re, im], got {value!r}")


def _parse_state(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"state spec must be an object with a type: {spec!r}")
    kind = spec["type"]
    if kind == "max_entangled":
        return max_entangled()
    if kind == "werner":
        return werner(
            WernerSpec(
                v=_float(spec.get("v", 1.0), "werner v"),
                schmidt_a=_float(spec.get("schmidt_a", MAX_SCHMIDT), "schmidt_a"),
            )
        )
    if kind == "pure":
        return pure_schmidt(_float(spec.get("schmidt_a", MAX_SCHMIDT), "schmidt_a"))
    if kind == "classical_zz":
        return classical_zz()
    if kind == "product_00":
        return product_00()
    if kind == "matrix":
        rows = spec.get("matrix")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ConfigError("a matrix state needs a list of rows")
        entries = [[_complex_entry(v) for v in row] for row in rows]
        if len({len(row) for row in entries}) > 1:
            raise ConfigError("matrix rows must have equal length")
        return bloch_decompose(np.array(entries, dtype=complex))
    raise ConfigError(f"unknown state type {kind!r}")


def _parse_states(config: dict, topology, default=None) -> dict:
    """States keyed by source index. A source without an entry gets
    default(), or is an error when no default is given."""
    section = config.get("states", {}) if default else _require(config, "states")
    states = {
        _key(s, "state source"): _parse_state(spec)
        for s, spec in _object(section, "states").items()
    }
    sources = set(range(1, topology.n_sources + 1))
    unknown = set(states) - sources
    if unknown:
        raise ConfigError(f"states given for sources that do not exist: {sorted(unknown)}")
    missing = sources - set(states)
    if missing and default is None:
        raise ConfigError(f"states missing for sources {sorted(missing)}")
    for s in sorted(missing):
        states[s] = default()
    return states


def _parse_strategy(config: dict):
    section = config.get("strategy", "auto")
    if section == "auto":
        return "auto"
    if not isinstance(section, dict):
        raise ConfigError("strategy must be 'auto' or a nested object")
    strategy = MeasurementStrategy()
    try:
        for party, inputs in section.items():
            for inp, sources in _object(inputs, "strategy inputs").items():
                for source, vec in _object(sources, "strategy sources").items():
                    strategy.set(
                        _key(party, "strategy party"),
                        _key(inp, "strategy input"),
                        _key(source, "strategy source"),
                        _array(vec, "Bloch vector"),
                    )
    except ValueError as exc:
        raise ConfigError(f"bad strategy entry: {exc}") from exc
    return strategy


def _options(config: dict, args) -> dict:
    opts = {"seed": 0, "restarts": 32, "budget": 10_000, "tol": 1e-9,
            "mode": "exhaustive"}
    opts.update(config.get("options", {}))
    for name in _OPTION_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            opts[name] = value
    opts["seed"] = _int(opts["seed"], "seed", minimum=0)
    opts["restarts"] = _int(opts["restarts"], "restarts", minimum=1)
    opts["budget"] = _int(opts["budget"], "budget", minimum=0)
    opts["tol"] = _float(opts["tol"], "tol")
    # A negative tolerance would call a value at the bound a violation.
    if opts["tol"] < 0:
        raise ConfigError(f"tol must not be negative, got {opts['tol']!r}")
    if opts["mode"] not in _MODES:
        raise ConfigError(f"mode must be one of {list(_MODES)}, got {opts['mode']!r}")
    return opts


def _sig(x):
    return analysis.format_sig(float(x))


def _strategy_dict(strategy: MeasurementStrategy) -> dict:
    out: dict = {}
    for (party, inp, source) in sorted(strategy.slots):
        vec = strategy.slots[(party, inp, source)].n
        out.setdefault(str(party), {}).setdefault(str(inp), {})[str(source)] = [
            _sig(c) for c in vec
        ]
    return out


def _model_dict(model: LocalModel) -> dict:
    return {
        "cardinalities": {str(s): c for s, c in sorted(model.cardinalities.items())},
        "weights": {
            str(s): [_sig(w) for w in model.weights[s]]
            for s in sorted(model.weights)
        },
        "responses": {
            str(p): np.asarray(model.responses[p]).astype(int).tolist()
            for p in sorted(model.responses)
        },
    }


def _search_dict(rep: optimizer.SearchReport) -> dict:
    if isinstance(rep.best_config, MeasurementStrategy):
        config = {"strategy": _strategy_dict(rep.best_config)}
    elif isinstance(rep.best_config, LocalModel):
        config = {"local_model": _model_dict(rep.best_config)}
    else:
        config = {}
    out = {
        "best_value": None if rep.best_value is None else _sig(rep.best_value),
        "restarts_used": rep.restarts_used,
        "seed": rep.seed,
        "converged": rep.converged,
        **config,
    }
    for key, value in rep.extra.items():
        out[key] = _sig(value) if isinstance(value, float) else value
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    leaves = find_leaves(topology)
    return {
        "n_parties": topology.n_parties,
        "n_sources": topology.n_sources,
        "l": leaves.l,
        "leaf_set": [int(p) for p in leaves.leaf_set],
        "intermediate_set": [int(p) for p in leaves.intermediate_set],
        "peripheral_map": {str(p): int(s) for p, s in leaves.peripheral_map.items()},
    }


def cmd_build(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    return {
        "l": ineq.l,
        "k": ineq.k,
        "classical_bound": _sig(ineq.classical_bound),
        "quantum_bound": _sig(ineq.quantum_bound),
        "fcbi": {
            str(s): {"tag": m.tag, "rows": m.rows,
                     "classical_bound": _sig(m.classical_bound),
                     "quantum_opt": _sig(m.quantum_opt)}
            for s, m in sorted(ineq.fcbi_map.items())
        },
    }


def cmd_eval(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    states = _parse_states(config, topology)
    strategy = _parse_strategy(config)
    rep = analysis.report(
        ineq, states, strategy,
        seed=opts["seed"], restarts=opts["restarts"], tol=opts["tol"],
    )
    return rep.to_dict()


def cmd_bounds(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    states = _parse_states(config, topology)
    mixed = mixed_state_bound(ineq, states, restarts=opts["restarts"],
                              seed=opts["seed"])
    return {
        "classical": _sig(ineq.classical_bound),
        "quantum": _sig(ineq.quantum_bound),
        "mixed": _sig(mixed),
    }


def cmd_oracle(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    rep = optimizer.classical_oracle(
        ineq, mode=opts["mode"], budget=opts["budget"], seed=opts["seed"]
    )
    out = _search_dict(rep)
    out["classical_bound"] = _sig(ineq.classical_bound)
    return out


def cmd_optimize(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    states = _parse_states(config, topology)
    rep = optimizer.seesaw_network(
        ineq, states, restarts=opts["restarts"], seed=opts["seed"]
    )
    out = _search_dict(rep)
    out["quantum_bound"] = _sig(ineq.quantum_bound)
    return out


def _visibility_payload(ineq) -> dict:
    m = ineq.topology.n_sources
    return {
        "per_source_threshold": _sig(analysis.critical_visibility_uniform(ineq)),
        "product_threshold": _sig(analysis.werner_violation_threshold(ineq)),
        "l": ineq.l,
        "m": m,
        "sensitivity": {
            "note": (
                "the per-source threshold depends strongly on the source "
                "count; the value recomputed with one extra source is given "
                "for comparison"
            ),
            "per_source_threshold_m_plus_1": _sig(
                analysis.critical_visibility_uniform(ineq, m + 1)
            ),
        },
    }


def cmd_visibility(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    ineq = _parse_inequality(config, topology)
    payload = _visibility_payload(ineq)
    if args.format == "csv":
        payload["sweep"] = [
            (v, analysis.uniform_werner_bound(ineq, v), ineq.classical_bound)
            for v in np.linspace(0.0, 1.0, 101)
        ]
    return payload


def cmd_discriminate(config, args, opts):
    topology = _parse_topology(_require(config, "network"))
    host = _parse_topology(_require(config, "host_network"))
    ineq = _parse_inequality(config, topology)
    states = _parse_states(config, host, default=max_entangled)
    rep = optimizer.discriminate(
        ineq, host, states,
        restarts=opts["restarts"], seed=opts["seed"], tol=opts["tol"],
    )
    out = _search_dict(rep)
    try:
        window = analysis.visibility_window(topology, host)
    except TooFewLeavesError:
        # A host with fewer than two leaves has no inequality of its own.
        out["window"] = None
        return out
    out["window"] = {
        "a": {k: _sig(v) if isinstance(v, float) else v
              for k, v in window["a"].items()},
        "b": {k: _sig(v) if isinstance(v, float) else v
              for k, v in window["b"].items()},
        "bounds": [_sig(window["window"][0]), _sig(window["window"][1])],
        "sensitivity": {
            "note": (
                "window endpoints recomputed with one extra source per "
                "network, for comparison; the endpoints are sensitive to "
                "the source count"
            ),
            "bounds_m_plus_1": sorted(
                _sig(analysis.critical_visibility_uniform(
                    chsh_inequality(t), t.n_sources + 1))
                for t in (topology, host)
            ),
        },
    }
    return out


_COMMANDS = {
    "analyze": cmd_analyze,
    "build": cmd_build,
    "eval": cmd_eval,
    "bounds": cmd_bounds,
    "oracle": cmd_oracle,
    "optimize": cmd_optimize,
    "visibility": cmd_visibility,
    "discriminate": cmd_discriminate,
}


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        rows = payload.pop("sweep", None)
        if rows is None:
            raise ConfigError("csv output is only available for sweeps "
                              "(visibility command)")
        buf.write("v,mixed_bound,classical_bound\n")
        for v, bound, classical in rows:
            buf.write(f"{_sig(v)},{_sig(bound)},{_sig(classical)}\n")
        text = buf.getvalue()
    else:
        try:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise ConfigError("the report holds a non-finite number; "
                              "check the magnitudes in the config") from None
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbell",
        description="Nonlinear Bell inequalities for quantum networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--mode", choices=_MODES, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Exit 3 emits a partial report; an error while emitting it makes exit 2.
    try:
        config = _load_config(args.config)
        opts = _options(config, args)
        try:
            payload, code = _COMMANDS[args.command](config, args, opts), 0
        except NonConvergenceError as exc:
            best = None if exc.best_value is None else _sig(exc.best_value)
            payload, code, error = {"partial": True, "best_value": best}, 3, exc
        _emit(payload, args)
    except NetbellError as exc:
        code, error = 2, exc
    if code:
        sys.stderr.write(json.dumps(
            {"error": type(error).__name__, "message": str(error)}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
