"""Problem files: a JSON container with the system source, the parameter
point, and exactly one structure request.

Schema::

    {
      "name": "...",                    # optional label
      "system": "vars ...; params ...; poly ...;",
      "p_hat": [..],                    # finite numbers or [re, im] pairs
      "p_tilde": [..],                  # optional real nominal point for studies
      "structure": {"kind": "infinity" | "positive_dim" | "factor"
                            | "multiplicity", ...kind-specific fields},
      "options": {"seed": 0, "tol_rank": ..., "tol_infinity": ...,
                  "max_components": ...}
    }

Kind-specific fields, for n unknowns: ``infinity``: ``groups`` (lists of
variable names that partition the variables; default one group);
``positive_dim``: ``dim`` (1 to n − 1), ``degree`` (at least 1); ``factor``
(of a curve): ``subset_size`` (at least 1); ``multiplicity`` (multiplicity
two, local Hilbert function prefix (1, 1)): ``dim`` (0 to n − 1).  Options:
``seed`` (at least 0); ``tol_rank``, the rank tolerance of every image
dimension; ``tol_infinity`` (``infinity`` only); ``max_components`` (at least
1, pins the number of stabilization trials; not for ``infinity``, which
imposes one condition per suspect solution).  Counts are whole numbers,
tolerances positive finite numbers, the entries of ``p_hat`` finite numbers
or [re, im] pairs of them, and those of ``p_tilde`` the same with every
imaginary part zero.  The system has n equations for ``infinity``, n − 1
for ``factor``, and at least n − dim for ``positive_dim`` and
``multiplicity`` (``dim`` defaults to 1).  What is left out, or null (a
field, a structure field or an option), keeps the pipeline's default;
anything else, such as an unknown field or option, a field of the wrong
type, a value out of range or a wrong equation count, is a
:class:`ProblemError` when the file is loaded, before any detection.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .algebra import AUXILIARY, VARIABLE, parse_system
from .recover import json_number

# per kind: the pipeline, and the keyword each structure field is passed as
PIPELINES = {
    "infinity": (engine.recover_infinity, {"groups": "groups"}),
    "positive_dim": (engine.recover_positive_dim, {"dim": "dim_D", "degree": "degree_d"}),
    "factor": (engine.recover_factor, {"subset_size": "subset_size"}),
    "multiplicity": (engine.recover_multiplicity, {"dim": "dim_D"}),
}
OPTIONS = {"seed": "seed", "tol_rank": "rank_tol", "tol_infinity": "infinity_tol",
           "max_components": "n_trials"}
TOP_LEVEL = ("name", "system", "p_hat", "p_tilde", "structure", "options")


class ProblemError(ValueError):
    """The problem file is malformed."""


@functools.lru_cache(maxsize=16)
def _parse(source):
    # a PolySystem is immutable by convention, so callers may share one
    return parse_system(source)


def _finite(v):
    """Whether ``v`` is a finite real number (a bool is not)."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _complex_list(values, what):
    if not isinstance(values, (list, tuple)):
        raise ProblemError(f"{what} must be a list, got {values!r}")
    out = []
    for v in values:
        if _finite(v):
            out.append(complex(v))
        elif isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite, v)):
            out.append(complex(v[0], v[1]))
        else:
            raise ProblemError(f"{what}: entries must be finite numbers or [re, im] pairs "
                               f"of them, got {v!r}")
    return np.array(out, dtype=complex)


def _check_whole(name, value, least, most=None):
    """Reject a ``value`` that is not an int (a bool is not) from ``least``
    to ``most``; None passes, as a field left out."""
    if value is None or (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                         and least <= value and (most is None or value <= most)):
        return
    bounds = f"at least {least}" if most is None else f"from {least} to {most}"
    raise ProblemError(f"{name} must be a whole number {bounds}, got {value!r}")


def _partitions(groups, variables):
    """Whether ``groups`` is a list of nonempty lists naming each variable once."""
    if not (isinstance(groups, list) and all(isinstance(g, list) and g for g in groups)):
        return False
    names = [nm for g in groups for nm in g]
    return all(isinstance(nm, str) for nm in names) and sorted(names) == sorted(variables)


@dataclass
class ProblemFile:
    source: str
    p_hat: np.ndarray
    structure: dict
    p_tilde: np.ndarray = None
    options: dict = field(default_factory=dict)
    name: str = ""

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def kind(self):
        return self.structure["kind"]

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ProblemError("problem file must be a JSON object")
        unknown = sorted(set(data) - set(TOP_LEVEL))
        if unknown:
            raise ProblemError(f"unknown field(s) {unknown}; a problem file has {TOP_LEVEL}")
        data = {k: v for k, v in data.items() if v is not None}  # null is left out
        for key in ("system", "p_hat", "structure"):
            if key not in data:
                raise ProblemError(f"missing required field {key!r}")
        for key, kind, what in (("name", str, "a string"), ("system", str, "a string"),
                                ("structure", dict, "an object"),
                                ("options", dict, "an object")):
            if key in data and not isinstance(data[key], kind):
                raise ProblemError(f"{key} must be {what}, got {data[key]!r}")
        structure = dict(data["structure"])
        kind = structure.get("kind")
        if kind not in PIPELINES:
            raise ProblemError(f"structure.kind must be one of {tuple(PIPELINES)}, got {kind!r}")
        p_tilde = data.get("p_tilde")
        if p_tilde is not None:
            p_tilde = _complex_list(p_tilde, "p_tilde")
            if np.any(p_tilde.imag):
                raise ProblemError(f"p_tilde must be real, got {data['p_tilde']!r}")
        prob = cls(
            source=data["system"],
            p_hat=_complex_list(data["p_hat"], "p_hat"),
            structure=structure,
            p_tilde=p_tilde,
            options=dict(data.get("options", {})),
            name=data.get("name", ""),
        )
        prob.build_system()  # validate eagerly: parse, structure and options
        prob.options_with()
        return prob

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"invalid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dict(self):
        data = {
            "name": self.name,
            "system": self.source,
            "p_hat": [json_number(z) for z in self.p_hat],
            "structure": self.structure,
            "options": self.options,
        }
        if self.p_tilde is not None:
            data["p_tilde"] = [json_number(z) for z in self.p_tilde]
        return data

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def build_system(self):
        """The parsed system, checked against ``p_hat`` and the structure's
        fields.  A source text is parsed once and then read from a small
        cache, so the samples of a study (copies with another ``p_hat``)
        share one parse."""
        system = _parse(self.source)
        n_par = len(system.indices("parameter"))
        if len(self.p_hat) != n_par:
            raise ProblemError(
                f"p_hat has {len(self.p_hat)} entries, system declares {n_par} parameters"
            )
        st = self.structure
        unknown = sorted(set(st) - set(PIPELINES[self.kind][1]) - {"kind"})
        if unknown:
            raise ProblemError(f"unknown field(s) {unknown} for a {self.kind} structure")
        n = len(system.indices(VARIABLE, AUXILIARY))
        _check_whole("dim", st.get("dim"), 0 if self.kind == "multiplicity" else 1, n - 1)
        _check_whole("degree", st.get("degree"), 1)
        _check_whole("subset_size", st.get("subset_size"), 1)
        variables = [system.names[i] for i in system.indices(VARIABLE)]
        if st.get("groups") is not None and not _partitions(st["groups"], variables):
            raise ProblemError(f"groups must be lists of variable names that partition "
                               f"{variables}, got {st['groups']!r}")
        m = len(system.polynomials)
        dim = 1 if st.get("dim") is None else st["dim"]
        need = n if self.kind == "infinity" else n - dim
        exact = self.kind in ("infinity", "factor")
        if m < need or (exact and m > need):
            raise ProblemError(f"a {self.kind} structure needs {'' if exact else 'at least '}"
                               f"{need} equations in {n} unknowns, the system has {m}")
        return system

    def options_with(self, overrides=None):
        """The file's options updated by ``overrides``, checked against the kind
        and against the values a run can use.  A null value, in the file or
        among the overrides, is left out."""
        opts = dict(self.options)
        opts.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        unknown = sorted(set(opts) - set(OPTIONS))
        if unknown:
            raise ProblemError(f"unknown option(s) {unknown}; options are {tuple(OPTIONS)}")
        if self.kind == "infinity" and opts.get("max_components") is not None:
            raise ProblemError("max_components does not apply to an infinity problem")
        if self.kind != "infinity" and opts.get("tol_infinity") is not None:
            raise ProblemError(f"tol_infinity does not apply to a {self.kind} problem")
        _check_whole("seed", opts.get("seed"), 0)
        _check_whole("max_components", opts.get("max_components"), 1)
        for name in ("tol_rank", "tol_infinity"):
            tol = opts.get(name)
            if tol is not None and not (_finite(tol) and tol > 0):
                raise ProblemError(f"{name} must be a positive finite number, got {tol!r}")
        return {k: v for k, v in opts.items() if v is not None}

    def run(self, seed=None, overrides=None):
        """Run the kind's recovery pipeline; returns a RunOutcome.  Each
        structure field and option reaches the pipeline as its keyword, and
        ``seed`` replaces the options' seed; what is left out keeps the
        pipeline's default."""
        system = self.build_system()
        opts = self.options_with(overrides)
        if seed is not None:
            opts["seed"] = seed
        pipeline, fields = PIPELINES[self.kind]
        kw = {OPTIONS[k]: v for k, v in opts.items()}
        kw.update((fields[k], v) for k, v in self.structure.items()
                  if k != "kind" and v is not None)
        return pipeline(system, self.p_hat, **kw)
