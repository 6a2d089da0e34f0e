"""Command-line surface for reproducible experiments.

Subcommands: gen-data, landscape, certify, ngd, saturation, tilted.
Every command is deterministic given its configuration and seed, writes
its outputs atomically (temp file + rename, so failures leave nothing
behind), and formats numbers so files round-trip bit-faithfully. A JSON
config file can supply any flag; explicitly passed flags win.

Exit codes: 0 success, 2 usage/domain error, 3 numeric failure, 4 I/O.
The default output directory comes from $ALPHALOSS_OUT (falling back to
the working directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import information, ngd, slqc
from .data import (
    GmmSpec,
    PRESET_NAMES,
    PRESET_NOTES,
    normalize_features,
    preset,
    read_csv,
    sample_gmm,
    write_csv,
)
from .errors import DomainError, NumericError, ParseError, UsageError
from .loss import curvature_floor, format_alpha, lipschitz_in_inv_alpha, lipschitz_in_theta, parse_alpha
from .numerics import RngState, check_positive_finite, min_eigen_sym, sample_ball
from .risk import Dataset, GridSpec, landscape_scans, saturation_sups, value_and_grad

OUT_ENV_VAR = "ALPHALOSS_OUT"

# The landscape/saturation defaults use n = 100000: surfaces stand in for
# population risks, and outputs carry the n and seed that produced them.
_DEFAULTS = {
    "gen-data": {"preset": "fig2", "n": 5000, "seed": 42},
    "landscape": {
        "preset": "fig2", "n": 100000, "seed": 42, "r": 5.0,
        "alphas": "1", "grid_count": 41, "no_mask": False,
    },
    "certify": {
        "preset": "fig2", "n": 5000, "seed": 42, "r": 5.0,
        "alpha0": "1", "epsilon0": 0.4, "sweep": 1000, "i_budget": 2000,
        "safety": 1.0, "evolution_points": 8, "ngd_cap": 20000, "accept_infinite_i": False,
    },
    "ngd": {
        "preset": "fig2", "n": 5000, "seed": 42, "r": 5.0,
        "alpha": "1", "epsilon": 0.05, "ref_steps": 100000, "ref_step": 0.1, "trace": False,
    },
    "saturation": {
        "preset": "fig3", "n": 100000, "seed": 42, "r": 5.0,
        "alphas": "1,2,4,10,inf", "grid_count": 41, "no_mask": False,
    },
    "tilted": {"alpha": "1"},
}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj):
    _write_text(path, json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n")


def _emit(path: Path):
    print(str(path))


def _load_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; malformed JSON or another JSON type is a
    parse error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON {what}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return obj


def _get(ns, key, command):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    cfg = getattr(ns, "_config_data", None)
    if cfg is None:
        cfg = _load_json_object(ns.config, "config") if ns.config else {}
        ns._config_data = cfg
    if key in cfg:
        return cfg[key]
    return _DEFAULTS[command].get(key)


def _switch(ns, key, command) -> bool:
    """An on/off flag; from a config it must be JSON true or false."""
    value = _get(ns, key, command)
    if not isinstance(value, bool):
        raise UsageError(f"{key} must be true or false, got {value!r}")
    return value


def _path(ns, key, command) -> str | None:
    """A file or directory path; from a config it must be a JSON string."""
    value = _get(ns, key, command)
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{key} must be a path string, got {value!r}")
    return value


def _out_dir(ns, command) -> Path:
    out = _path(ns, "out", command)
    if out is None:
        out = os.environ.get(OUT_ENV_VAR, ".")
    return Path(out)


def _parse_alpha_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [parse_alpha(str(t)) for t in text]
    tokens = [t for t in str(text).split(",") if t.strip()]
    if not tokens:
        raise UsageError("alpha list is empty")
    return [parse_alpha(t) for t in tokens]


def _convert(kind, value, name):
    """``kind(value)``. A value that does not convert (say, a string from a
    config file), a boolean, or a fractional value for an integer is
    reported as a usage error."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _positive_int(value, name) -> int:
    value = _convert(int, value, name)
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    return value


def _positive_float(value, name) -> float:
    return check_positive_finite(_convert(float, value, name), name)


def _resolve_spec(ns, command) -> tuple[GmmSpec, str, str]:
    """Mixture spec, its name, and any preset note."""
    spec_path = _path(ns, "spec_json", command)
    if spec_path:
        return GmmSpec.from_json_dict(_load_json_object(spec_path, "mixture spec")), "custom", ""
    name = _get(ns, "preset", command)
    return preset(name), name, PRESET_NOTES.get(name, "")


def _resolve_dataset(ns, command) -> tuple[Dataset, dict]:
    """Dataset plus provenance metadata, from --data or a seeded mixture."""
    data_path = _path(ns, "data", command)
    if data_path:
        dataset = read_csv(data_path)
        return dataset, {"data": str(data_path), "dataset": dataset.content_digest()}
    return _sample_dataset(ns, command)[:2]


def _sample_dataset(ns, command) -> tuple[Dataset, dict, GmmSpec]:
    """Seeded mixture dataset, its provenance metadata, and its spec."""
    spec, name, note = _resolve_spec(ns, command)
    n = _positive_int(_get(ns, "n", command), "--n")
    seed = _convert(int, _get(ns, "seed", command), "--seed")
    raw = sample_gmm(spec, n, RngState(seed))
    dataset, record = normalize_features(raw)
    meta = {
        "preset": name,
        "n": n,
        "seed": seed,
        "scale": record.scale,
        "dataset": dataset.content_digest(),
    }
    if note:
        meta["note"] = note
    return dataset, meta, spec


def _grid(ns, command, r: float, dim: int) -> GridSpec:
    if dim != 2:
        raise UsageError(f"grid output needs a 2-D dataset, got dim {dim}")
    lo = _get(ns, "grid_min", command)
    hi = _get(ns, "grid_max", command)
    count = _positive_int(_get(ns, "grid_count", command), "--grid-count")
    lo = -r if lo is None else _convert(float, lo, "--grid-min")
    hi = r if hi is None else _convert(float, hi, "--grid-max")
    mask = None if _switch(ns, "no_mask", command) else r
    return GridSpec(((lo, hi, count), (lo, hi, count)), mask_radius=mask)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_gen_data(ns) -> int:
    cmd = "gen-data"
    dataset, meta, spec = _sample_dataset(ns, cmd)
    out = _out_dir(ns, cmd)

    csv_path = out / "dataset.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = csv_path.with_name(csv_path.name + ".tmp")
    write_csv(dataset, tmp)
    os.replace(tmp, csv_path)
    _emit(csv_path)

    sidecar = {
        **meta,
        "spec": spec.to_json_dict(),
        "normalization": "global rescale by the maximum raw feature norm",
        "note": meta.get("note", ""),
    }
    json_path = out / "dataset.json"
    _write_json(json_path, sidecar)
    _emit(json_path)
    return 0


def cmd_landscape(ns) -> int:
    cmd = "landscape"
    alphas = _parse_alpha_list(_get(ns, "alphas", cmd))
    r = _positive_float(_get(ns, "r", cmd), "--r")
    dataset, meta = _resolve_dataset(ns, cmd)
    grid = _grid(ns, cmd, r, dataset.dim)
    out = _out_dir(ns, cmd)
    for alpha, table in zip(alphas, landscape_scans(alphas, grid, dataset, metadata=meta)):
        path = out / f"landscape_alpha={format_alpha(alpha)}.csv"
        _write_text(path, table.to_csv())
        _emit(path)
    return 0


def cmd_certify(ns) -> int:
    cmd = "certify"
    r = _positive_float(_get(ns, "r", cmd), "--r")
    alpha0 = parse_alpha(str(_get(ns, "alpha0", cmd)))
    if math.isinf(alpha0):
        raise UsageError("--alpha0 must be finite")
    epsilon0 = _positive_float(_get(ns, "epsilon0", cmd), "--epsilon0")
    kappa0_flag = _get(ns, "kappa0", cmd)
    sweep_n = _positive_int(_get(ns, "sweep", cmd), "--sweep")
    budget = _positive_int(_get(ns, "i_budget", cmd), "--i-budget")
    safety = _positive_float(_get(ns, "safety", cmd), "--safety")
    if safety > 1.0:
        raise UsageError(f"--safety must be <= 1 (it shrinks an upper estimate), got {safety}")
    accept_inf = _switch(ns, "accept_infinite_i", cmd)

    dataset, meta = _resolve_dataset(ns, cmd)
    seed = _convert(int, meta.get("seed", _get(ns, "seed", cmd)), "--seed")
    root = RngState(seed)

    if kappa0_flag is not None:
        kappa0 = _positive_float(kappa0_flag, "--kappa0")
    elif alpha0 <= 1.0:
        kappa0 = lipschitz_in_theta(alpha0, r)
    else:
        raise UsageError("--kappa0 is required when alpha0 > 1 (no closed form applies)")

    second_moment = dataset.second_moment()
    moment_min_eigen = min_eigen_sym(second_moment)

    if alpha0 <= 1.0:
        floor = curvature_floor(alpha0, r)
        strong = {
            "curvature_floor": floor,
            "modulus": floor * moment_min_eigen,
            "lipschitz_in_theta": lipschitz_in_theta(alpha0, r),
        }
    else:
        strong = {"skipped": "strong convexity holds only for alpha0 <= 1"}

    # theta0: best NGD iterate from the origin under the budgeted schedule.
    # The budget is capped: small base orders have huge kappa0 and the
    # certificate only needs a good center, not a certified-optimal one.
    ngd_eps = _get(ns, "ngd_epsilon", cmd)
    ngd_eps = epsilon0 if ngd_eps is None else _positive_float(ngd_eps, "--ngd-epsilon")
    cap = _positive_int(_get(ns, "ngd_cap", cmd), "--ngd-cap")
    budget_t = min(ngd.iteration_budget(ngd_eps, kappa0, r), cap)
    run = ngd.ngd_run(
        value_and_grad(alpha0, dataset),
        np.zeros(dataset.dim),
        ngd.NgdConfig(eta=ngd_eps / kappa0, iterations=budget_t, radius=r),
    )
    theta0 = run.best_theta

    grad_inf = slqc.estimate_grad_infimum(alpha0, epsilon0, r, theta0, dataset, budget, root.spawn(2))
    grad_inf_used = grad_inf if math.isinf(grad_inf) else grad_inf * safety

    params = slqc.SlqcParams(epsilon0, kappa0, theta0)
    sweep = slqc.slqc_sweep(alpha0, params, dataset, r, sweep_n, root.spawn(1))

    evolution_note = ""
    window = None
    rows = []
    alphas_flag = _get(ns, "alphas", cmd)
    if alpha0 < 1.0:
        evolution_note = "evolution bounds require a base order >= 1; section skipped"
    elif math.isinf(grad_inf_used) and not accept_inf:
        evolution_note = (
            "no sampled point exceeded the epsilon0 gap, so the gradient-infimum "
            "estimate is the empty-set sentinel inf; rerun with --accept-infinite-i "
            "to treat the window as unbounded"
        )
    else:
        window = slqc.evolution_window(alpha0, epsilon0, kappa0, r, grad_inf_used, accept_inf)
        if alphas_flag is not None:
            alphas = _parse_alpha_list(alphas_flag)
        else:
            points = _positive_int(_get(ns, "evolution_points", cmd), "--evolution-points")
            if math.isinf(window):
                alphas = [alpha0 + float(k) for k in range(points)]
            else:
                alphas = [alpha0 + window * k / points for k in range(points)]
                alphas.append(alpha0 + 1.25 * window)  # one out-of-window row
        rows = slqc.evolve_bounds(alpha0, epsilon0, kappa0, r, grad_inf_used, alphas, accept_inf)

    report = {
        "inputs": {
            **{k: meta[k] for k in ("preset", "n", "seed", "scale", "data") if k in meta},
            "r": r,
            "alpha0": format_alpha(alpha0),
            "epsilon0": epsilon0,
            "kappa0": kappa0,
            "i_budget": budget,
            "sweep": sweep_n,
            "safety": safety,
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
    out = _out_dir(ns, cmd)
    path = out / "certificate.json"
    _write_json(path, report)
    _emit(path)
    csv_path = out / "evolution.csv"
    _write_text(csv_path, slqc.evolution_to_csv(rows))
    _emit(csv_path)
    return 0


def cmd_ngd(ns) -> int:
    cmd = "ngd"
    r = _positive_float(_get(ns, "r", cmd), "--r")
    alpha = parse_alpha(str(_get(ns, "alpha", cmd)))
    epsilon = _positive_float(_get(ns, "epsilon", cmd), "--epsilon")
    record = _switch(ns, "trace", cmd)
    dataset, meta = _resolve_dataset(ns, cmd)
    seed = _convert(int, meta.get("seed", _get(ns, "seed", cmd)), "--seed")

    kappa_flag = _get(ns, "kappa", cmd)
    kappa = _positive_float(kappa_flag, "--kappa") if kappa_flag is not None else lipschitz_in_theta(1.0, r)
    eta_flag = _get(ns, "eta", cmd)
    eta = _positive_float(eta_flag, "--eta") if eta_flag is not None else epsilon / kappa

    ref_steps = _positive_int(_get(ns, "ref_steps", cmd), "--ref-steps")
    ref_step = _positive_float(_get(ns, "ref_step", cmd), "--ref-step")
    objective = value_and_grad(alpha, dataset)
    ref_theta, ref_value = ngd.projected_gd_reference(objective, np.zeros(dataset.dim), ref_steps, ref_step, r)

    theta1 = sample_ball(RngState(seed).spawn(3), dataset.dim, r)
    iters_flag = _get(ns, "iters", cmd)
    if iters_flag is not None:
        iterations = _positive_int(iters_flag, "--iters")
    else:
        iterations = ngd.iteration_budget(epsilon, kappa, float(np.linalg.norm(theta1 - ref_theta)))
    result = ngd.ngd_run(objective, theta1, ngd.NgdConfig(eta, iterations, radius=r, record_trace=record))

    out = _out_dir(ns, cmd)
    summary = {
        "inputs": {
            **{k: meta[k] for k in ("preset", "n", "seed", "scale", "data") if k in meta},
            "alpha": format_alpha(alpha),
            "epsilon": epsilon,
            "kappa": kappa,
            "r": r,
            "ref_steps": ref_steps,
            "ref_step": ref_step,
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
    path = out / "ngd_summary.json"
    _write_json(path, summary)
    _emit(path)
    if record:
        trace_path = out / "ngd_trace.csv"
        _write_text(trace_path, ngd.trace_to_csv(result))
        _emit(trace_path)
    return 0


def cmd_saturation(ns) -> int:
    cmd = "saturation"
    r = _positive_float(_get(ns, "r", cmd), "--r")
    alphas = _parse_alpha_list(_get(ns, "alphas", cmd))
    for alpha in alphas:
        if alpha < 1.0:
            raise UsageError(f"saturation orders must lie in [1, inf], got {format_alpha(alpha)}")
    dataset, meta = _resolve_dataset(ns, cmd)
    grid = _grid(ns, cmd, r, dataset.dim)
    bound_const = lipschitz_in_inv_alpha(r)

    lines = ["alpha,sup_distance,bound,within_bound"]
    for alpha, measured in zip(alphas, saturation_sups(alphas, grid, dataset)):
        bound = bound_const * (0.0 if math.isinf(alpha) else 1.0 / alpha)
        ok = measured <= bound + slqc.SLQC_TOL
        lines.append(f"{format_alpha(alpha)},{_fmt(measured)},{_fmt(bound)},{'true' if ok else 'false'}")
    out = _out_dir(ns, cmd)
    path = out / "saturation.csv"
    _write_text(path, "\n".join(lines) + "\n")
    _emit(path)
    return 0


def cmd_tilted(ns) -> int:
    cmd = "tilted"
    joint_path = _path(ns, "joint", cmd)
    if not joint_path:
        raise UsageError("--joint CSV is required")
    alpha = parse_alpha(str(_get(ns, "alpha", cmd)))
    joint = information.DiscreteJoint(information.load_matrix_csv(joint_path))
    tilted = information.tilted_posterior(joint, alpha)
    report = {
        "alpha": format_alpha(alpha),
        "joint": str(joint_path),
        "arimoto_entropy": information.arimoto_cond_entropy(joint, alpha),
        "min_risk": information.min_alpha_risk(joint, alpha),
        "tilted_posterior": tilted.q,
        "tilted_risk": information.discrete_alpha_risk(joint, tilted, alpha),
    }
    posterior_path = _path(ns, "posterior", cmd)
    if posterior_path:
        posterior = information.Posterior(information.load_matrix_csv(posterior_path))
        report["posterior"] = str(posterior_path)
        report["posterior_risk"] = information.discrete_alpha_risk(joint, posterior, alpha)
    out = _out_dir(ns, cmd)
    path = out / "tilted.json"
    _write_json(path, report)
    _emit(path)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_common(sub, command):
    d = _DEFAULTS[command]
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help=f"output directory [default: ${OUT_ENV_VAR} or .]")
    if command != "tilted":
        sub.add_argument("--preset", choices=PRESET_NAMES,
                         help=f"built-in mixture setting [default: {d.get('preset')}]")
        sub.add_argument("--spec-json", help="JSON file with a custom mixture spec")
        sub.add_argument("--n", type=int, help=f"sample count [default: {d.get('n')}]")
        sub.add_argument("--seed", type=int, help=f"root RNG seed [default: {d.get('seed')}]")


def _add_grid(sub, command):
    d = _DEFAULTS[command]
    sub.add_argument("--grid-min", type=float, help="per-axis grid minimum [default: -r]")
    sub.add_argument("--grid-max", type=float, help="per-axis grid maximum [default: r]")
    sub.add_argument("--grid-count", type=int,
                     help=f"nodes per axis [default: {d.get('grid_count')}]")
    sub.add_argument("--no-mask", action="store_const", const=True,
                     help="evaluate the full rectangle instead of masking to the r-ball")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaloss",
        description="alpha-loss landscapes in the logistic model: data generation, "
        "risk scans, convexity/SLQC certificates, and normalized gradient descent",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-data", help="generate a normalized mixture dataset (CSV + JSON sidecar)")
    _add_common(sub, "gen-data")
    sub.set_defaults(func=cmd_gen_data)

    sub = subs.add_parser("landscape", help="risk over a 2-D grid, one CSV per alpha")
    _add_common(sub, "landscape")
    sub.add_argument("--data", help="reuse an existing dataset CSV instead of sampling")
    sub.add_argument("--alphas", help=f"comma list of orders; 'inf' allowed [default: {_DEFAULTS['landscape']['alphas']}]")
    sub.add_argument("--r", type=float, help=f"parameter-ball radius [default: {_DEFAULTS['landscape']['r']}]")
    _add_grid(sub, "landscape")
    sub.set_defaults(func=cmd_landscape)

    sub = subs.add_parser("certify", help="strong-convexity + SLQC certificate report (JSON)")
    _add_common(sub, "certify")
    sub.add_argument("--data", help="reuse an existing dataset CSV instead of sampling")
    sub.add_argument("--r", type=float, help=f"parameter-ball radius [default: {_DEFAULTS['certify']['r']}]")
    sub.add_argument("--alpha0", help=f"base order [default: {_DEFAULTS['certify']['alpha0']}]")
    sub.add_argument("--epsilon0", type=float, help=f"base value-gap epsilon [default: {_DEFAULTS['certify']['epsilon0']}]")
    sub.add_argument("--kappa0", type=float, help="base kappa [default: closed form at alpha0 <= 1]")
    sub.add_argument("--alphas", help="evolution targets [default: 8 points across the window + 1 outside]")
    sub.add_argument("--evolution-points", type=int,
                     help=f"count of default in-window targets [default: {_DEFAULTS['certify']['evolution_points']}]")
    sub.add_argument("--sweep", type=int, help=f"sampled points in the SLQC sweep [default: {_DEFAULTS['certify']['sweep']}]")
    sub.add_argument("--i-budget", type=int, help=f"samples for the gradient-infimum estimate [default: {_DEFAULTS['certify']['i_budget']}]")
    sub.add_argument("--safety", type=float, help=f"shrink factor on the infimum estimate [default: {_DEFAULTS['certify']['safety']}]")
    sub.add_argument("--ngd-epsilon", type=float, help="optimality target when locating theta0 [default: epsilon0]")
    sub.add_argument("--ngd-cap", type=int,
                     help=f"iteration cap when locating theta0 [default: {_DEFAULTS['certify']['ngd_cap']}]")
    sub.add_argument("--accept-infinite-i", action="store_const", const=True,
                     help="treat an empty qualifying set as an unbounded window")
    sub.set_defaults(func=cmd_certify)

    sub = subs.add_parser("ngd", help="normalized gradient descent run with budgeted iterations")
    _add_common(sub, "ngd")
    sub.add_argument("--data", help="reuse an existing dataset CSV instead of sampling")
    sub.add_argument("--r", type=float, help=f"projection radius [default: {_DEFAULTS['ngd']['r']}]")
    sub.add_argument("--alpha", help=f"loss order [default: {_DEFAULTS['ngd']['alpha']}]")
    sub.add_argument("--epsilon", type=float, help=f"target gap [default: {_DEFAULTS['ngd']['epsilon']}]")
    sub.add_argument("--kappa", type=float, help="SLQC kappa [default: closed form at alpha = 1]")
    sub.add_argument("--eta", type=float, help="step length [default: epsilon/kappa]")
    sub.add_argument("--iters", type=int, help="iteration count [default: the (epsilon, kappa) budget]")
    sub.add_argument("--ref-steps", type=int, help=f"reference optimizer steps [default: {_DEFAULTS['ngd']['ref_steps']}]")
    sub.add_argument("--ref-step", type=float, help=f"reference optimizer step size [default: {_DEFAULTS['ngd']['ref_step']}]")
    sub.add_argument("--trace", action="store_const", const=True, help="also write the per-iteration trace CSV")
    sub.set_defaults(func=cmd_ngd)

    sub = subs.add_parser("saturation", help="sup distance to the infinite-order risk per alpha (CSV)")
    _add_common(sub, "saturation")
    sub.add_argument("--data", help="reuse an existing dataset CSV instead of sampling")
    sub.add_argument("--r", type=float, help=f"parameter-ball radius [default: {_DEFAULTS['saturation']['r']}]")
    sub.add_argument("--alphas", help=f"comma list of orders in [1, inf] [default: {_DEFAULTS['saturation']['alphas']}]")
    _add_grid(sub, "saturation")
    sub.set_defaults(func=cmd_saturation)

    sub = subs.add_parser("tilted", help="tilted posterior, Arimoto entropy, and minimal risk of a CSV joint")
    _add_common(sub, "tilted")
    sub.add_argument("--joint", help="CSV matrix of joint probabilities (rows = features)")
    sub.add_argument("--alpha", help=f"order [default: {_DEFAULTS['tilted']['alpha']}]")
    sub.add_argument("--posterior", help="optional CSV posterior to score against the joint")
    sub.set_defaults(func=cmd_tilted)

    return parser


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
        return ns.func(ns)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
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
