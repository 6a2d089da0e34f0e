"""Command-line surface for reproducible experiments.

Subcommands: gen-data, landscape, certify, ngd, saturation, tilted.
Every command is deterministic given its configuration and seed, and
formats numbers so files round-trip bit-faithfully. Each option is
declared once in ``_OPTIONS``, with its converter; its value comes from
its flag, else the JSON ``--config`` file, else the command's default in
``_COMMANDS``, and is converted before any work starts.

A command writes nothing itself: it returns its outputs as one
``{file name: text}`` dict, and ``main`` writes each file atomically
(temp file + rename) into ``--out``, else $ALPHALOSS_OUT, else the
working directory. So every file of a run is computed before any is
written, and a failure leaves nothing behind. Every JSON output goes
through ``_json_text``, which turns a NaN into a numeric error.

Exit codes: 0 success, 2 usage/domain error, 3 numeric failure (an
arithmetic overflow or division by zero, or a NaN in an output,
included), 4 I/O. A successful run prints each warning as one
``warning:`` line after its files; a failing run, only its error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import information, ngd, slqc
from .data import (
    GmmSpec,
    PRESET_NAMES,
    PRESET_NOTES,
    dataset_csv,
    normalize_features,
    preset,
    read_csv,
    sample_gmm,
)
from .errors import DomainError, NumericError, ParseError, UsageError
from .loss import curvature_floor, format_alpha, lipschitz_in_inv_alpha, lipschitz_in_theta, parse_alpha
from .numerics import RngState, check_positive_finite, csv_text, min_eigen_sym, read_text, sample_ball, vector_norm
from .risk import Dataset, GridSpec, landscape_scans, saturation_sups, value_and_grad

OUT_ENV_VAR = "ALPHALOSS_OUT"
# Most in-window evolution targets ``certify`` builds from --evolution-points.
MAX_EVOLUTION_POINTS = 1_000_000


def _json_ready(obj):
    """Recursively convert to JSON-safe values; inf becomes the string 'inf'."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _json_text(obj) -> str:
    """The JSON text of an output; a NaN anywhere in it is a numeric error."""
    try:
        return json.dumps(_json_ready(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"an output holds a NaN: {exc}") from None


def _load_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; malformed JSON or another JSON type is a
    parse error."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON {what}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Converters: one per kind of option, applied alike to a flag's text and to
# a config value. Each raises UsageError or DomainError (exit 2).
# ---------------------------------------------------------------------------


def _number(kind, value, name):
    """``kind(value)``. A value that does not convert (say, a string from a
    config file), a boolean, or a fractional value for an integer is
    reported as a usage error."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


_int = functools.partial(_number, int)
_float = functools.partial(_number, float)


def _positive_int(value, name) -> int:
    value = _int(value, name)
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    return value


def _positive_float(value, name) -> float:
    return check_positive_finite(_float(value, name), name)


def _alpha(value, name) -> float:
    return parse_alpha(str(value))


def _alpha_list(value, name) -> list[float]:
    """A comma list of orders, or a JSON list of them."""
    tokens = value if isinstance(value, list) else [t for t in str(value).split(",") if t.strip()]
    if not tokens:
        raise UsageError("alpha list is empty")
    return [parse_alpha(str(t)) for t in tokens]


def _path(value, name) -> str:
    """A file or directory path; from a config it must be a JSON string."""
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a path string, got {value!r}")
    return value


def _switch(value, name) -> bool:
    """An on/off flag; from a config it must be JSON true or false."""
    if not isinstance(value, bool):
        raise UsageError(f"{name} must be true or false, got {value!r}")
    return value


def _preset(value, name) -> str:
    if value not in PRESET_NAMES:
        raise UsageError(f"{name} must be one of {', '.join(PRESET_NAMES)}, got {value!r}")
    return value


def _resolve_dataset(o) -> tuple[Dataset, dict]:
    """Dataset plus provenance metadata, from --data or a seeded mixture."""
    if o.data:
        dataset = read_csv(o.data)
        return dataset, {"data": o.data, "dataset": dataset.content_digest()}
    return _sample_dataset(o)[:2]


def _sample_dataset(o) -> tuple[Dataset, dict, GmmSpec]:
    """Seeded mixture dataset, its provenance metadata, and its spec: the
    --spec-json file's, or else the preset's."""
    if o.spec_json:
        spec = GmmSpec.from_json_dict(_load_json_object(o.spec_json, "mixture spec"))
        name, note = "custom", ""
    else:
        spec, name, note = preset(o.preset), o.preset, PRESET_NOTES.get(o.preset, "")
    raw = sample_gmm(spec, o.n, RngState(o.seed))
    dataset, scale = normalize_features(raw)
    meta = {
        "preset": name,
        "n": o.n,
        "seed": o.seed,
        "scale": scale,
        "dataset": dataset.content_digest(),
    }
    if note:
        meta["note"] = note
    return dataset, meta, spec


def _grid(o, dim: int) -> GridSpec:
    if dim != 2:
        raise UsageError(f"grid output needs a 2-D dataset, got dim {dim}")
    lo = -o.r if o.grid_min is None else o.grid_min
    hi = o.r if o.grid_max is None else o.grid_max
    return GridSpec(((lo, hi, o.grid_count),) * 2, mask_radius=None if o.no_mask else o.r)


# ---------------------------------------------------------------------------
# Commands. Each returns its output files as {file name: text}, in the order
# ``main`` writes and prints them, and writes no file itself.
# ---------------------------------------------------------------------------


def cmd_gen_data(o) -> dict[str, str]:
    dataset, meta, spec = _sample_dataset(o)
    sidecar = {
        **meta,
        "spec": spec.to_json_dict(),
        "normalization": "global rescale by the maximum raw feature norm",
        "note": meta.get("note", ""),
    }
    return {"dataset.csv": dataset_csv(dataset), "dataset.json": _json_text(sidecar)}


def cmd_landscape(o) -> dict[str, str]:
    dataset, meta = _resolve_dataset(o)
    grid = _grid(o, dataset.dim)
    nodes, risks = landscape_scans(o.alphas, grid, dataset)
    # Comment order: alpha, r, dataset (meta's value, in this literal's place), then the rest of meta.
    meta = {"r": "none" if o.no_mask else repr(o.r), "dataset": meta["dataset"], **meta}
    header = [f"theta_{j + 1}" for j in range(grid.dim)] + ["risk"]
    return {
        f"landscape_alpha={format_alpha(a)}.csv": csv_text(
            header,
            np.column_stack([nodes, column]),
            [f"alpha = {format_alpha(a)}", *(f"{key} = {value}" for key, value in meta.items())],
        )
        for a, column in zip(o.alphas, risks.T)
    }


def cmd_certify(o) -> dict[str, str]:
    r, alpha0, epsilon0 = o.r, o.alpha0, o.epsilon0
    if math.isinf(alpha0):
        raise UsageError("--alpha0 must be finite")
    if o.safety > 1.0:
        raise UsageError(f"--safety must be <= 1 (it shrinks an upper estimate), got {o.safety}")
    if o.evolution_points > MAX_EVOLUTION_POINTS:
        raise UsageError(f"--evolution-points must be <= {MAX_EVOLUTION_POINTS}, got {o.evolution_points}")
    if o.kappa0 is not None:
        kappa0 = o.kappa0
    elif alpha0 <= 1.0:
        kappa0 = lipschitz_in_theta(alpha0, r)
    else:
        raise UsageError("--kappa0 is required when alpha0 > 1 (no closed form applies)")

    dataset, meta = _resolve_dataset(o)
    root = RngState(o.seed)
    second_moment = dataset.second_moment()
    moment_min_eigen = min_eigen_sym(second_moment)

    if alpha0 <= 1.0:
        strong = {
            "curvature_floor": curvature_floor(alpha0, r),
            "modulus": slqc.strong_convexity_modulus(alpha0, r, second_moment),
            "lipschitz_in_theta": lipschitz_in_theta(alpha0, r),
        }
    else:
        strong = {"skipped": "strong convexity holds only for alpha0 <= 1"}

    # theta0: best NGD iterate from the origin under the budgeted schedule.
    # The budget is capped: small base orders have huge kappa0 and the
    # certificate only needs a good center, not a certified-optimal one.
    ngd_eps = epsilon0 if o.ngd_epsilon is None else o.ngd_epsilon
    budget_t = min(ngd.iteration_budget(ngd_eps, kappa0, r), o.ngd_cap)
    run = ngd.ngd_run(
        value_and_grad(alpha0, dataset),
        np.zeros(dataset.dim),
        ngd.NgdConfig(eta=ngd_eps / kappa0, iterations=budget_t, radius=r),
    )
    theta0 = run.best_theta

    grad_inf = slqc.estimate_grad_infimum(alpha0, epsilon0, r, theta0, dataset, o.i_budget, root.spawn(2))
    grad_inf_used = grad_inf if math.isinf(grad_inf) else grad_inf * o.safety

    params = slqc.SlqcParams(epsilon0, kappa0, theta0)
    sweep = slqc.slqc_sweep(alpha0, params, dataset, r, o.sweep, root.spawn(1))

    evolution_note = ""
    window = None
    rows = []
    if alpha0 < 1.0:
        evolution_note = "evolution bounds require a base order >= 1; section skipped"
    elif math.isinf(grad_inf_used) and not o.accept_infinite_i:
        evolution_note = (
            "no sampled point exceeded the epsilon0 gap, so the gradient-infimum "
            "estimate is the empty-set sentinel inf; rerun with --accept-infinite-i "
            "to treat the window as unbounded"
        )
    else:
        window = slqc.evolution_window(alpha0, epsilon0, kappa0, r, grad_inf_used, o.accept_infinite_i)
        points = o.evolution_points
        if o.alphas is not None:
            alphas = o.alphas
        elif math.isinf(window):
            alphas = [alpha0 + float(k) for k in range(points)]
        else:
            alphas = [alpha0 + window * k / points for k in range(points)]
            alphas.append(alpha0 + 1.25 * window)  # one out-of-window row
        rows = slqc.evolve_bounds(alpha0, epsilon0, kappa0, r, grad_inf_used, alphas, o.accept_infinite_i)

    report = {
        "inputs": {
            **{k: meta[k] for k in ("preset", "n", "seed", "scale", "data") if k in meta},
            "r": r,
            "alpha0": format_alpha(alpha0),
            "epsilon0": epsilon0,
            "kappa0": kappa0,
            "i_budget": o.i_budget,
            "sweep": o.sweep,
            "safety": o.safety,
        },
        "dataset": meta["dataset"],
        "risk_semantics": "empirical risk over the seeded sample (population stand-in)",
        "second_moment": second_moment,
        "second_moment_min_eigen": moment_min_eigen,
        "strong_convexity": strong,
        "theta0": theta0,
        "theta0_risk": run.best_value,
        "theta0_iterations": run.iterations,
        "grad_infimum_upper": grad_inf,
        "grad_infimum_used": grad_inf_used,
        "grad_infimum_note": "sampled upper estimate of the true infimum (after safety factor)",
        "slqc_sweep": sweep,
        "evolution_window": window,
        "evolution": [
            {
                "alpha": format_alpha(row.alpha),
                "epsilon": row.epsilon,
                "rho": row.rho,
                "in_window": row.in_window,
            }
            for row in rows
        ],
        "evolution_note": evolution_note,
    }
    return {"certificate.json": _json_text(report), "evolution.csv": slqc.evolution_to_csv(rows)}


def cmd_ngd(o) -> dict[str, str]:
    r, epsilon = o.r, o.epsilon
    dataset, meta = _resolve_dataset(o)
    kappa = lipschitz_in_theta(1.0, r) if o.kappa is None else o.kappa
    eta = epsilon / kappa if o.eta is None else o.eta

    objective = value_and_grad(o.alpha, dataset)
    ref_theta, ref_value = ngd.projected_gd_reference(objective, np.zeros(dataset.dim), o.ref_steps, o.ref_step, r)

    theta1 = sample_ball(RngState(o.seed).spawn(3), dataset.dim, r)
    iterations = o.iters
    if iterations is None:
        iterations = ngd.iteration_budget(epsilon, kappa, vector_norm(theta1 - ref_theta))
    result = ngd.ngd_run(objective, theta1, ngd.NgdConfig(eta, iterations, radius=r, record_trace=o.trace))

    summary = {
        "inputs": {
            **{k: meta[k] for k in ("preset", "n", "seed", "scale", "data") if k in meta},
            "alpha": format_alpha(o.alpha),
            "epsilon": epsilon,
            "kappa": kappa,
            "r": r,
            "ref_steps": o.ref_steps,
            "ref_step": o.ref_step,
        },
        "dataset": meta["dataset"],
        "eta": eta,
        "iterations": iterations,
        "theta1": theta1,
        "best_theta": result.best_theta,
        "best_value": result.best_value,
        "reference_theta": ref_theta,
        "reference_value": ref_value,
        "achieved_gap": result.best_value - ref_value,
        "stop_reason": result.stop_reason,
    }
    files = {"ngd_summary.json": _json_text(summary)}
    if o.trace:
        files["ngd_trace.csv"] = ngd.trace_to_csv(result)
    return files


def cmd_saturation(o) -> dict[str, str]:
    for alpha in o.alphas:
        if alpha < 1.0:
            raise UsageError(f"saturation orders must lie in [1, inf], got {format_alpha(alpha)}")
    dataset, meta = _resolve_dataset(o)
    grid = _grid(o, dataset.dim)
    bound_const = lipschitz_in_inv_alpha(o.r)

    rows = []
    for alpha, measured in zip(o.alphas, saturation_sups(o.alphas, grid, dataset)):
        bound = bound_const * (0.0 if math.isinf(alpha) else 1.0 / alpha)
        rows.append((format_alpha(alpha), measured, bound, measured <= bound + slqc.SLQC_TOL))
    return {"saturation.csv": csv_text(["alpha", "sup_distance", "bound", "within_bound"], rows)}


def cmd_tilted(o) -> dict[str, str]:
    if not o.joint:
        raise UsageError("--joint CSV is required")
    joint = information.DiscreteJoint(information.load_matrix_csv(o.joint))
    tilted = information.tilted_posterior(joint, o.alpha)
    report = {
        "alpha": format_alpha(o.alpha),
        "joint": o.joint,
        "arimoto_entropy": information.arimoto_cond_entropy(joint, o.alpha),
        "min_risk": information.min_alpha_risk(joint, o.alpha),
        "tilted_posterior": tilted.q,
        "tilted_risk": information.discrete_alpha_risk(joint, tilted, o.alpha),
    }
    if o.posterior:
        posterior = information.Posterior(information.load_matrix_csv(o.posterior))
        report["posterior"] = o.posterior
        report["posterior_risk"] = information.discrete_alpha_risk(joint, posterior, o.alpha)
    return {"tilted.json": _json_text(report)}


# ---------------------------------------------------------------------------
# Options and parser.
# ---------------------------------------------------------------------------

# Every option: its converter and its help text. A command that gives the
# option a default has it appended to the help; an unset default (None)
# means what the help text says.
_OPTIONS = {
    "out": (_path, f"output directory [default: ${OUT_ENV_VAR} or .]"),
    "preset": (_preset, f"built-in mixture setting: {', '.join(PRESET_NAMES)}"),
    "spec_json": (_path, "JSON file with a custom mixture spec"),
    "n": (_positive_int, "sample count"),
    "seed": (_int, "root RNG seed"),
    "data": (_path, "reuse an existing dataset CSV instead of sampling"),
    "r": (_positive_float, "parameter-ball radius"),
    "alphas": (_alpha_list, "comma list of orders; 'inf' allowed"),
    "grid_min": (_float, "per-axis grid minimum [default: -r]"),
    "grid_max": (_float, "per-axis grid maximum [default: r]"),
    "grid_count": (_positive_int, "nodes per axis"),
    "no_mask": (_switch, "evaluate the full rectangle instead of masking to the r-ball"),
    "alpha0": (_alpha, "base order"),
    "epsilon0": (_positive_float, "base value-gap epsilon"),
    "kappa0": (_positive_float, "base kappa [default: closed form at alpha0 <= 1]"),
    "evolution_points": (_positive_int, f"in-window evolution targets without --alphas (at most "
                                        f"{MAX_EVOLUTION_POINTS}), plus one outside"),
    "sweep": (_positive_int, "sampled points in the SLQC sweep"),
    "i_budget": (_positive_int, "samples for the gradient-infimum estimate"),
    "safety": (_positive_float, "shrink factor on the infimum estimate"),
    "ngd_epsilon": (_positive_float, "optimality target when locating theta0 [default: epsilon0]"),
    "ngd_cap": (_positive_int, "iteration cap when locating theta0"),
    "accept_infinite_i": (_switch, "treat an empty qualifying set as an unbounded window"),
    "alpha": (_alpha, "loss order"),
    "epsilon": (_positive_float, "target gap"),
    "kappa": (_positive_float, "SLQC kappa [default: closed form at alpha = 1]"),
    "eta": (_positive_float, "step length [default: epsilon/kappa]"),
    "iters": (_positive_int, "iteration count [default: the (epsilon, kappa) budget]"),
    "ref_steps": (_positive_int, "reference optimizer steps"),
    "ref_step": (_positive_float, "reference optimizer step size"),
    "trace": (_switch, "also write the per-iteration trace CSV"),
    "joint": (_path, "CSV matrix of joint probabilities (rows = features)"),
    "posterior": (_path, "optional CSV posterior to score against the joint"),
}

_SAMPLE = {"out": None, "preset": "fig2", "spec_json": None, "n": 5000, "seed": 42}
_GRID = {"grid_min": None, "grid_max": None, "grid_count": 41, "no_mask": False}

# Every command: its function, its summary, and its options with their
# defaults. The landscape/saturation defaults use n = 100000: surfaces
# stand in for population risks, and outputs carry the n and seed that
# produced them.
_COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a normalized mixture dataset (CSV + JSON sidecar)", _SAMPLE),
    "landscape": (cmd_landscape, "risk over a 2-D grid, one CSV per alpha", {
        **_SAMPLE, "n": 100000, "data": None, "alphas": "1", "r": 5.0, **_GRID,
    }),
    "certify": (cmd_certify, "strong-convexity + SLQC certificate report (JSON)", {
        **_SAMPLE, "data": None, "r": 5.0, "alpha0": "1", "epsilon0": 0.4, "kappa0": None,
        "alphas": None, "evolution_points": 8, "sweep": 1000, "i_budget": 2000, "safety": 1.0,
        "ngd_epsilon": None, "ngd_cap": 20000, "accept_infinite_i": False,
    }),
    "ngd": (cmd_ngd, "normalized gradient descent run with budgeted iterations", {
        **_SAMPLE, "data": None, "r": 5.0, "alpha": "1", "epsilon": 0.05, "kappa": None,
        "eta": None, "iters": None, "ref_steps": 100000, "ref_step": 0.1, "trace": False,
    }),
    "saturation": (cmd_saturation, "sup distance to the infinite-order risk per alpha (CSV)", {
        **_SAMPLE, "preset": "fig3", "n": 100000, "data": None, "r": 5.0,
        "alphas": "1,2,4,10,inf", **_GRID,
    }),
    "tilted": (cmd_tilted, "tilted posterior, Arimoto entropy, and minimal risk of a CSV joint", {
        "out": None, "joint": None, "alpha": "1", "posterior": None,
    }),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaloss",
        description="alpha-loss landscapes in the logistic model: data generation, "
        "risk scans, convexity/SLQC certificates, and normalized gradient descent",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, defaults) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="JSON config file; explicit flags win")
        for key, default in defaults.items():
            convert, text = _OPTIONS[key]
            if default is not None:
                text = f"{text} [default: {default}]"
            if convert is _switch:
                sub.add_argument(_flag(key), action="store_const", const=True, help=text)
            else:
                sub.add_argument(_flag(key), help=text)
        sub.set_defaults(func=func)
    return parser


def _resolve(ns) -> argparse.Namespace:
    """Every option of the command, from its flag, else from the --config
    file, else from the command's default, each through its converter
    before any work starts. A config null leaves an option unset only
    where its default is unset; unknown config keys are ignored."""
    config = _load_json_object(ns.config, "config") if ns.config else {}
    options = {}
    for key, default in _COMMANDS[ns.command][2].items():
        value, name = getattr(ns, key), _flag(key)
        if value is None:
            value, name = config.get(key, default), key
        options[key] = None if value is None and default is None else _OPTIONS[key][0](value, name)
    return argparse.Namespace(**options)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        o = _resolve(ns)
        # The finiteness checks, not numpy warnings, report non-finite values; warnings print below.
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            files = ns.func(o)
        out = Path(os.environ.get(OUT_ENV_VAR, ".") if o.out is None else o.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path, tmp = out / name, out / (name + ".tmp")
            with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp, path)
            print(path)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericError, or a float overflow or division by zero
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
