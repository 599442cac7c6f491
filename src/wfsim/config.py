"""The one config schema of the ``wf`` commands.

:data:`FIELDS` defines every config field once, :data:`COMMANDS` lists the
fields each command accepts and :data:`VARIANTS` the few a command reads
differently.  :func:`resolve` checks a config mapping against them and
returns the canonical resolved mapping a manifest records, which it maps
to itself.
"""

from __future__ import annotations

import sys
from typing import Callable

from .errors import ConfigError

#: Marks a field a command cannot run without.
REQUIRED = object()

#: A configured initial condition must sum to 1 within this tolerance.
START_SUM_TOL = 1e-9


def _float(v) -> float | None:
    """``v`` as a float if it is a finite JSON number, else None."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) \
            and abs(v) <= sys.float_info.max:
        return float(v)
    return None


def _number(ok: Callable[[float], bool], text: str, integer: bool = False):
    kind = "an integer" if integer else "a finite number"

    def check(name, v, m):
        x = (v if type(v) is int else None) if integer else _float(v)
        if x is None or not ok(x):
            raise ConfigError(f"{name} must be {kind} {text}".rstrip() + f", got {v!r}")
        return x
    return check


def _list(item, size: int | None = None, per_type: bool = False):
    """A list of ``item`` values: ``size`` or ``m`` of them, or one or more."""
    def check(name, v, m):
        n = m if per_type else size
        if not isinstance(v, (list, tuple)) or not v or n not in (None, len(v)):
            length = f"of length {n}" if n else "with one or more entries"
            raise ConfigError(f"{name} must be a list {length}, got {v!r}")
        return [item(f"{name}[{i}]", x, m) for i, x in enumerate(v)]
    return check


def _choice(what: str, *options: str):
    def check(name, v, m):
        if v not in options:
            raise ConfigError(f"unknown {what} {v!r}; use one of {', '.join(options)}")
        return v
    return check


def _flag(name, v, m):
    if not isinstance(v, bool):
        raise ConfigError(f"{name} must be true or false, got {v!r}")
    return v


def _start(name, v, m):
    """``m`` finite non-negative shares summing to 1 within START_SUM_TOL."""
    x = [_float(e) for e in v] if isinstance(v, (list, tuple)) else []
    if len(x) != m or None in x:
        raise ConfigError(f"initial condition {v!r} must be a list of {m} "
                          "finite numbers")
    if min(x) < 0:
        raise ConfigError(f"initial condition {v!r} must be non-negative")
    total = sum(x)
    if abs(total - 1.0) > START_SUM_TOL:
        raise ConfigError(f"initial condition {v!r} sums to {total!r}, not 1")
    return x


_SIZE = _number(lambda v: v >= 1, ">= 1", integer=True)
# shares are counts / N in float64, exact only while N <= 2**53
_POPULATION = _number(lambda v: 1 <= v <= 2**53, "in [1, 2**53]", integer=True)
_COUNT = _number(lambda v: v >= 0, ">= 0", integer=True)
_POSITIVE = _number(lambda v: v > 0, "> 0")


def _ladder(name, v, m):
    """A population size, or a list of them."""
    if isinstance(v, list):
        return _list(_POPULATION)(name, v, m)
    return _POPULATION(name, v, m)


def _window(name, v, m):
    lo, hi = _list(_COUNT, size=2)(name, v, m)
    if lo > hi:
        raise ConfigError(f"{name} {v!r} must have its first step <= its last")
    return [lo, hi]


#: Every config field as ``(check, default)``.  ``check(name, value, m)``
#: enforces the value's type and range for ``m`` types and returns its
#: canonical form.  A ``None`` default leaves an absent field out of the
#: resolved config; a callable one is a function of ``m``.
FIELDS = {
    # the update rule: the keywords of make_rule once omega_ratio resolves to omega
    "matrix": (_list(_list(_number(lambda v: True, ""), per_type=True), per_type=True),
               REQUIRED),
    "omega": (_number(lambda v: 0 < v < 1, "in (0, 1)"), None),
    "omega_ratio": (_POSITIVE, None),
    "b": (_list(_POSITIVE, per_type=True), None),
    "fitness": (_choice("fitness kind", "linear_fractional", "exponential"),
                "linear_fractional"),
    "beta": (_POSITIVE, None),
    "mutation": (_list(_list(_number(lambda v: v >= 0, ">= 0"), per_type=True),
                       per_type=True), None),
    # population, starts and sampling
    "N": (_POPULATION, REQUIRED),
    "M": (_SIZE, lambda m: m),
    "initial": (_start, REQUIRED),
    "initials": (_list(_start), REQUIRED),
    "steps": (_COUNT, REQUIRED),
    "stride": (_SIZE, 1),
    "stop_threshold": (_number(lambda v: 0 <= v <= 1, "in [0, 1]"), 0.05),
    "seed": (_COUNT, REQUIRED),
    "replicates": (_SIZE, REQUIRED),
    "mode": (_choice("experiment mode", "threshold", "absorption"), "threshold"),
    "sample_window": (_window, [1000, 5000]),
    "max_steps": (_SIZE, 1_000_000),
    "bin_width": (_number(lambda v: 0 < v <= 1.5, "in (0, 1.5]"), 0.01),
    # analysis settings
    "check_permanence": (_flag, False),
    "tol": (_POSITIVE, 1e-12),
    "include_weights": (_flag, False),
    "epsilons": (_list(_POSITIVE), REQUIRED),
    "horizon": (_SIZE, REQUIRED),
    "lipschitz_samples": (_number(lambda v: v >= 2, ">= 2", integer=True), 300),
    "safety": (_POSITIVE, 1.2),
}

#: The fields that describe the update rule.
RULE = ("matrix", "omega", "omega_ratio", "b", "fitness", "beta", "mutation")

#: The fields each command accepts.
COMMANDS = {
    "meanfield": (*RULE, "check_permanence"),
    "simulate": (*RULE, "N", "initial", "steps", "stride", "stop_threshold", "seed"),
    "extinction": (*RULE, "N", "M", "initials", "replicates", "seed", "mode",
                   "stop_threshold", "sample_window", "max_steps", "bin_width"),
    "qsd": (*RULE, "N", "tol", "include_weights"),
    "bounds": (*RULE, "N", "initial", "epsilons", "horizon", "replicates", "seed",
               "lipschitz_samples", "safety"),
}

#: Where a command reads a field differently from FIELDS.
VARIANTS = {
    # a trajectory runs all its steps unless a threshold is given
    ("simulate", "stop_threshold"): (FIELDS["stop_threshold"][0], None),
    # the command starts at the interior equilibrium by default
    ("bounds", "initial"): (_start, None),
    ("qsd", "N"): (_ladder, REQUIRED),
    ("bounds", "N"): (_ladder, REQUIRED),
}


def resolve(command: str, cfg: dict) -> dict:
    """Check a config mapping for ``command`` and resolve it.

    Rejects unknown and missing fields, a matrix of fewer than two types,
    values of the wrong type or out of range, ``omega`` together with
    ``omega_ratio`` and an ``omega_ratio`` so large that ``omega`` rounds
    to 1; resolves ``omega_ratio`` to ``omega`` and fills defaults.  Which
    parameters a
    fitness family takes is checked by :func:`wfsim.fitness.make_rule`.
    """
    unknown = set(cfg) - set(COMMANDS[command])
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    fields = {name: VARIANTS.get((command, name), FIELDS[name])
              for name in COMMANDS[command]}
    missing = [name for name, (_, default) in fields.items()
               if default is REQUIRED and name not in cfg]
    if missing:
        raise ConfigError(f"config missing fields: {', '.join(sorted(missing))}")
    if "omega" in cfg and "omega_ratio" in cfg:
        raise ConfigError("give one of omega, omega_ratio, not both")
    # the number of types; the matrix check requires the matrix to be m x m
    m = len(cfg["matrix"]) if isinstance(cfg["matrix"], (list, tuple)) else None
    if m is not None and m < 2:
        raise ConfigError(f"matrix must have at least 2 types (rows), got {m}")
    out = {}
    for name, (check, default) in fields.items():
        if name in cfg:
            out[name] = check(name, cfg[name], m)
        elif default is not None:
            out[name] = check(name, default(m) if callable(default) else default, m)
    if out.get("M", m) != m:
        raise ConfigError(f"declared M={out['M']} but the matrix is {m}x{m}")
    if "omega_ratio" in out:
        ratio = out.pop("omega_ratio")
        out["omega"] = ratio / (1.0 + ratio)
        if out["omega"] == 1.0:
            raise ConfigError(f"omega_ratio {ratio!r} is too large: omega = "
                              "omega_ratio / (1 + omega_ratio) rounds to 1")
    return out


def rule_keywords(resolved: dict) -> dict:
    """The :func:`wfsim.fitness.make_rule` keywords of a resolved config."""
    return {k: resolved[k] for k in RULE if k in resolved}
