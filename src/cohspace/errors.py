"""Exception types and the one input rule shared across the package.

Everything that represents a *domain* failure (bad point, kernel not PSD,
state escaping a span, step-size trouble, ...) derives from DomainError so
the CLI can map it to exit code 1 with a structured message.  Genuine
configuration problems (unparseable JSON, unknown kind or key, ill-typed
value) are ConfigError and map to exit code 2.  ``check_fields`` checks every
input object (the config and each descriptor in it) against its (key, type,
default) fields, ``from_descriptor`` builds an object from a {"kind": ...}
descriptor, ``check_numbers`` reads every numeric array of a config (numpy
imported lazily), and ``check_sample_times`` checks every time grid.
"""

from __future__ import annotations

import itertools
import numbers
import sys


class DomainError(Exception):
    """Base class for mathematically meaningful failures."""

    code = "domain-error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class ConfigError(Exception):
    """Malformed configuration / unknown names; CLI exit code 2."""


class NumberError(ConfigError):
    """A field check_numbers refuses: `at` is its first bad item's index path, `value` the item."""

    def __init__(self, message: str, at: tuple, value):
        super().__init__(message)
        self.at, self.value = at, value


# A field is (key, type, default).  A default of None leaves the key to the
# factory's own default (it is passed on only when set); REQUIRED makes a
# missing key a configuration error.  A null value means "not set".
REQUIRED = object()


def _bool(value) -> bool:
    """A bool as is, and the flag text of a JSON bool ("true", "false") as one."""
    if isinstance(value, bool) or value in ("true", "false"):
        return value in (True, "true")
    raise ValueError(value)


# field type -> (conversion of flag text and of values, accepted value class,
# what the error message asks for); any other type ("json") is taken as is.
TYPES = {
    "int": (int, numbers.Integral, "an integer"),
    "float": (float, numbers.Real, "a finite number"),
    "positive": (float, numbers.Real, "a positive number"),
    "nonnegative": (float, numbers.Real, "zero or a positive number"),
    "size": (int, numbers.Integral, "a positive integer"),
    "str": (str, str, "a string"),
    "bool": (_bool, bool, "true or false"),
}
# numeric field type -> (shape, pairs) as check_numbers reads it
NUMBERS = {"pairs": ((None, 2), True), "matrix": ((None, None, 2), True)}


def check_numbers(data, key, shape: tuple, pairs: bool = False):
    """A config field's numbers: a float array of `shape` (None: any length;
    a second None is the first's, every such field being a square matrix),
    or with pairs=True the complex array of its [re, im] pairs, -0.0 kept.
    Numbers are reals (JSON's are ints and floats), not bools, with |x| <= the
    largest float.  A field that fails one type scan, np.asarray and bound
    check raises NumberError at its first bad item in reading order, naming
    the list at fault: key and its indices ('map.matrix[1][0]'), or key(indices)."""
    import numpy as np

    leaves = data
    try:
        for _ in shape[1:]:
            leaves = itertools.chain.from_iterable(leaves)
        a = np.asarray(data, dtype=float) if {*map(type, leaves)} <= {int, float} else None
    except (TypeError, ValueError, OverflowError):  # not a list, ragged, beyond float64
        a = None
    if (a is None or a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))
            or shape[1:2] == (None,) and a.shape[1] != a.shape[0]
            or not (np.abs(a) < sys.float_info.max).all()):
        if fault := _first_bad(data, shape):
            at, where, value, wanted = fault
            name = key(where) if callable(key) else key + "".join(f"[{i}]" for i in where)
            raise NumberError(f"{name!r} must be {wanted}, got {value!r}", at, value)
        # sound after all: a number of exactly the largest float, or empty lists
        a = np.asarray(data, dtype=float)
        a = a.reshape(a.shape + tuple(n or 0 for n in shape[a.ndim:]))
    return a.view(complex)[..., 0] if pairs else a


def _first_bad(data, shape: tuple, at: tuple = ()):
    """(index path, path of the list at fault, item, what it must be) of the
    first bad item of data in reading order (a list's length before its items,
    a square matrix's row count fixing its row length), or None."""
    n, inner = shape[0], shape[1:]
    if not isinstance(data, (list, tuple)) or n is not None and len(data) != n:
        count = "" if n is None else f"{n} "
        return at, at, data, f"a list of {count}{'lists' if inner else 'numbers'}"
    if inner[:1] == (None,):
        inner = (len(data),) + inner[1:]
    for i, x in enumerate(data):
        if not inner:
            if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                           and abs(x) <= sys.float_info.max):
                return at + (i,), at, x, "a finite number"
        elif fault := _first_bad(x, inner, at + (i,)):
            return fault
    return None


def check_value(key: str, kind: str, value):
    """A value of the field's type (floats as float, finite, above 0 for a
    positive or size field and not below 0 for a nonnegative one; NUMBERS by
    check_numbers), else ConfigError."""
    if kind in NUMBERS:
        return check_numbers(value, key, *NUMBERS[kind])
    if kind not in TYPES:
        return value
    convert, accepted, noun = TYPES[kind]
    if isinstance(value, bool) != (accepted is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    if accepted is numbers.Real and not abs(value) <= sys.float_info.max:  # nan, inf, huge int
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    if kind in ("positive", "size") and not value > 0 or kind == "nonnegative" and not value >= 0:
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    return convert(value)


def check_fields(what: str, given: dict, fields) -> dict:
    """given checked against fields (no unknown key, no missing required key,
    each value of its type), with defaults filled in and unset optional keys
    left out.  Errors name a key under the prefix what ("space.dim"), if any."""
    prefix = f"{what}." if what else ""
    accepted = sorted(key for key, _, _ in fields)
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(repr(prefix + k) for k in unknown)}; "
                          f"accepted keys: {', '.join(accepted) or 'none'}")
    out = {}
    for key, kind, default in fields:
        value = given.get(key)
        if value is not None:
            out[key] = check_value(prefix + key, kind, value)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {prefix + key!r}")
        elif default is not None:
            out[key] = default
    return out


def from_descriptor(spec, table: dict, what: str, *args):
    """factory(*args, **checked fields) for a {"kind": ...} descriptor (a bare
    string names the kind), with table mapping each kind to (factory, fields)."""
    spec = {"kind": spec} if isinstance(spec, str) else spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what!r} must be an object with a 'kind'")
    given = dict(spec)
    kind = given.pop("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r} ({', '.join(table)})")
    factory, fields = table[kind]
    return factory(*args, **check_fields(what, given, fields))


def check_sample_times(t0: float, t1: float, t_eval) -> list[float] | None:
    """Require t1 > t0 and sample times strictly increasing inside [t0, t1]
    (1e-12 slack at the ends); return the samples as floats (None stays None)."""
    if not t1 > t0:
        raise ConfigError("time span needs t1 > t0")
    if t_eval is None:
        return None
    times = [float(x) for x in t_eval]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("t_eval must be strictly increasing")
    if times and (times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12):
        raise ConfigError("t_eval must lie within [t0, t1]")
    return times


class InvalidPointError(DomainError):
    code = "invalid-point"


class CoherenceViolationError(DomainError):
    """Kernel failed a positivity requirement (Gram not PSD)."""

    code = "coherence-violation"

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericalError(DomainError):
    code = "numerical-error"


class SpanEscapeError(DomainError):
    """An image point left the span of the basis; enrich the basis."""

    code = "span-escape"

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class StepSizeError(DomainError):
    code = "step-size"


class StiffnessError(StepSizeError):
    code = "stiffness"


class IntegratorFailure(DomainError):
    code = "integrator-failure"


class ClosureError(DomainError):
    """Observable span is not closed under the Hamiltonian action."""

    code = "closure"

    def __init__(self, message: str, escape=None):
        super().__init__(message)
        self.escape = escape


class StatePositivityError(DomainError):
    code = "state-positivity"


class PreconditionError(DomainError):
    code = "precondition"


class ModelDegeneracyError(DomainError):
    code = "model-degeneracy"


class AlgebraAxiomError(DomainError):
    code = "algebra-axioms"
