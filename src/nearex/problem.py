"""Problem files: a JSON container with the system source, the parameter
point, and exactly one structure request.

Schema::

    {
      "name": "...",                    # optional label
      "system": "vars ...; params ...; poly ...;",
      "p_hat": [..],                    # floats or [re, im] pairs
      "p_tilde": [..],                  # optional nominal point for studies
      "structure": {"kind": "infinity" | "positive_dim" | "factor"
                            | "multiplicity", ...kind-specific fields},
      "options": {"seed": 0, "tol_rank": ..., "tol_infinity": ...,
                  "max_components": ...}
    }

Kind-specific fields: ``infinity``: ``groups`` (lists of variable names,
default one group of all variables); ``positive_dim``: ``dim``, ``degree``;
``factor``: ``dim``, ``subset_size``; ``multiplicity``: ``prefix``, ``dim``.
All kinds but ``infinity`` accept ``max_components`` via options to pin the
number of stabilization trials; ``infinity`` imposes one condition per suspect
solution, so setting it there is an error; ``tol_infinity`` applies to
``infinity`` only and is an error for every other kind.  ``tol_rank`` is the
rank tolerance of every image dimension.  A ``max_components`` below 1, and a
``tol_rank`` or ``tol_infinity`` that is not a positive number, are errors.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .algebra import parse_system
from .structure import INFINITY_NEAR_TOL

KINDS = ("infinity", "positive_dim", "factor", "multiplicity")


class ProblemError(ValueError):
    """The problem file is malformed."""


@functools.lru_cache(maxsize=16)
def _parse(source):
    # a PolySystem is immutable by convention, so callers may share one
    return parse_system(source)


def _complex_list(values, what):
    out = []
    for v in values:
        if isinstance(v, (int, float)):
            out.append(complex(v))
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            out.append(complex(v[0], v[1]))
        else:
            raise ProblemError(f"{what}: entries must be numbers or [re, im] pairs")
    return np.array(out, dtype=complex)


def _json_number(z):
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


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
        return (
            self.source == other.source
            and np.array_equal(self.p_hat, other.p_hat)
            and self.structure == other.structure
            and (
                (self.p_tilde is None) == (other.p_tilde is None)
                and (self.p_tilde is None or np.array_equal(self.p_tilde, other.p_tilde))
            )
            and self.options == other.options
            and self.name == other.name
        )

    @property
    def kind(self):
        return self.structure["kind"]

    @classmethod
    def from_dict(cls, data):
        try:
            source = data["system"]
            p_hat = _complex_list(data["p_hat"], "p_hat")
            structure = dict(data["structure"])
        except KeyError as exc:
            raise ProblemError(f"missing required field {exc.args[0]!r}") from None
        except TypeError:
            raise ProblemError("problem file must be a JSON object") from None
        kind = structure.get("kind")
        if kind not in KINDS:
            raise ProblemError(f"structure.kind must be one of {KINDS}, got {kind!r}")
        p_tilde = data.get("p_tilde")
        if p_tilde is not None:
            p_tilde = _complex_list(p_tilde, "p_tilde")
        prob = cls(
            source=source,
            p_hat=p_hat,
            structure=structure,
            p_tilde=p_tilde,
            options=dict(data.get("options", {})),
            name=data.get("name", ""),
        )
        prob.build_system()  # validate eagerly: parse + name checks
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
            "p_hat": [_json_number(z) for z in self.p_hat],
            "structure": self.structure,
            "options": self.options,
        }
        if self.p_tilde is not None:
            data["p_tilde"] = [_json_number(z) for z in self.p_tilde]
        return data

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def build_system(self):
        """The parsed system, checked against ``p_hat`` and the groups.  A
        source text is parsed once and then read from a small cache, so the
        samples of a study (copies with another ``p_hat``) share one parse."""
        system = _parse(self.source)
        n_par = len(system.indices("parameter"))
        if len(self.p_hat) != n_par:
            raise ProblemError(
                f"p_hat has {len(self.p_hat)} entries, system declares {n_par} parameters"
            )
        for g in self.structure.get("groups") or []:
            for nm in g:
                if nm not in system.names:
                    raise ProblemError(f"unknown variable {nm!r} in groups")
        return system

    def options_with(self, overrides=None):
        """The file's options updated by ``overrides``, checked against the kind
        and against the values a run can use."""
        opts = dict(self.options)
        opts.update(overrides or {})
        n_trials = opts.get("max_components")
        if self.kind == "infinity" and n_trials is not None:
            raise ProblemError("max_components does not apply to an infinity problem")
        if self.kind != "infinity" and opts.get("tol_infinity") is not None:
            raise ProblemError(f"tol_infinity does not apply to a {self.kind} problem")
        if n_trials is not None and not (isinstance(n_trials, numbers.Integral) and n_trials >= 1):
            raise ProblemError(f"max_components must be a whole number of at least 1, "
                               f"got {n_trials!r}")
        for name in ("tol_rank", "tol_infinity"):
            tol = opts.get(name)
            if tol is not None and not (isinstance(tol, numbers.Real) and tol > 0):
                raise ProblemError(f"{name} must be a positive number, got {tol!r}")
        return opts

    def run(self, seed=None, overrides=None):
        """Dispatch to the matching recovery pipeline; returns a RunOutcome."""
        system = self.build_system()
        opts = self.options_with(overrides)
        if seed is None:
            seed = int(opts.get("seed", 0))
        kw = {"seed": seed}
        if opts.get("tol_rank") is not None:
            kw["rank_tol"] = float(opts["tol_rank"])
        n_trials = opts.get("max_components")
        st = self.structure
        kind = st["kind"]
        if kind == "infinity":
            return engine.recover_infinity(
                system, self.p_hat, groups=st.get("groups"),
                infinity_tol=float(opts.get("tol_infinity", INFINITY_NEAR_TOL)),
                **kw,
            )
        if kind == "positive_dim":
            return engine.recover_positive_dim(
                system, self.p_hat, dim_D=int(st.get("dim", 1)),
                degree_d=int(st.get("degree", 1)), n_trials=n_trials, **kw,
            )
        if kind == "factor":
            return engine.recover_factor(
                system, self.p_hat, dim_D=int(st.get("dim", 1)),
                subset_size=st.get("subset_size"), n_trials=n_trials, **kw,
            )
        if kind == "multiplicity":
            return engine.recover_multiplicity(
                system, self.p_hat, prefix=tuple(st.get("prefix", (1, 1))),
                dim_D=int(st.get("dim", 1)),
                n_trials=1 if n_trials is None else n_trials, **kw,
            )
        raise ProblemError(f"unknown structure kind {kind!r}")
