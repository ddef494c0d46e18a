"""Sparse complex multivariate polynomials and parameterized polynomial systems.

Polynomials are stored as a map from exponent vectors to complex
coefficients.  A ``PolySystem`` bundles an ordered list of polynomials with a
role tag per indeterminate (variable / parameter / auxiliary), which is what
lets the rest of the package treat "the same" polynomials as a family over
parameters, as unknowns in a fiber product, or as a homotopy.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import add

import numpy as np

VARIABLE = "variable"
PARAMETER = "parameter"
AUXILIARY = "auxiliary"  # an unknown beyond the variables, e.g. a Lagrange multiplier
ROLES = (VARIABLE, PARAMETER, AUXILIARY)


def seeded_rng(seed, *key):
    """Deterministic generator; extra integers derive independent streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def unit_complex(rng, n=None):
    """Random point(s) on the complex unit circle."""
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.exp(1j * u)


class Polynomial:
    """A multivariate polynomial over the complex numbers.

    Terms with exactly zero coefficient are never stored, so two equal
    polynomials always have equal term maps.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms, arity):
        items = terms.items() if isinstance(terms, dict) else terms
        clean = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = complex(coeff)
            if exps in clean:
                coeff = clean[exps] + coeff
            if coeff == 0:
                clean.pop(exps, None)
            else:
                clean[exps] = coeff
        self.terms = clean
        self.arity = arity

    @classmethod
    def _clean(cls, terms, arity):
        """Wrap a term map that is already canonical, without checking it:
        int-tuple keys of length ``arity``, no negative exponent, and
        ``complex`` values that are never zero.  The arithmetic returns
        through here; everything else goes through ``Polynomial(...)``."""
        poly = object.__new__(cls)
        poly.terms = terms
        poly.arity = arity
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls({}, arity)

    @classmethod
    def constant(cls, value, arity):
        return cls({(0,) * arity: value}, arity)

    @classmethod
    def variable(cls, index, arity):
        exps = [0] * arity
        exps[index] = 1
        return cls({tuple(exps): 1.0}, arity)

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self, indices=None):
        """Total degree, optionally restricted to a subset of indeterminates."""
        if not self.terms:
            return 0
        if indices is None:
            return max(sum(e) for e in self.terms)
        idx = list(indices)
        return max(sum(e[i] for i in idx) for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.arity)
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        _add_terms(out, other.terms.items())
        return Polynomial._clean(out, self.arity)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._clean({e: -c for e, c in self.terms.items()}, self.arity)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.arity)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = complex(other)
            scaled = ((e, c * other) for e, c in self.terms.items())
            return Polynomial._clean({e: c for e, c in scaled if c != 0}, self.arity)
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial._clean(out, self.arity)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1.0, self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, index):
        """Partial derivative with respect to indeterminate ``index``."""
        if not 0 <= index < self.arity:
            raise IndexError(index)
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            de = list(e)
            de[index] = k - 1
            out[tuple(de)] = c * k
        return Polynomial._clean(out, self.arity)

    def evaluate(self, point):
        point = np.asarray(point, dtype=complex)
        if point.shape[0] != self.arity:
            raise ValueError("point length does not match arity")
        total = 0.0 + 0.0j
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= point[i] ** k
            total += v
        return total

    def remap(self, new_arity, index_map):
        """Embed into a larger (or reordered) indeterminate list.

        ``index_map[i]`` is the new index of old indeterminate ``i``; pass
        ``range(self.arity)`` to append indeterminates, the fast case.
        """
        if isinstance(index_map, range) and index_map == range(self.arity):
            pad = (0,) * (new_arity - self.arity)
            # 0 + c, as below: it turns an imaginary part of -0.0 into +0.0
            return Polynomial._clean({e + pad: 0 + c for e, c in self.terms.items()}, new_arity)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * new_arity
            for i, k in enumerate(e):
                if k:
                    ne[index_map[i]] += k
            key = tuple(ne)
            out[key] = out.get(key, 0) + c
        # a map that is not injective can merge terms that cancel
        return Polynomial._clean({e: c for e, c in out.items() if c != 0}, new_arity)

    def substitute(self, values):
        """Partially evaluate: ``values`` maps indeterminate index -> complex.

        Returns a polynomial over the remaining indeterminates (in order).
        """
        keep = [i for i in range(self.arity) if i not in values]
        out = {}
        for e, c in self.terms.items():
            v = c
            for i, val in values.items():
                if e[i]:
                    v *= complex(val) ** e[i]
            key = tuple(e[i] for i in keep)
            s = out.get(key, 0) + v
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial._clean(out, len(keep))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def _add_terms(out, items):
    """Add (exponents, coefficient) pairs into the term map ``out`` in place,
    dropping any term whose coefficient sums to zero."""
    for e, c in items:
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s


def format_polynomial(poly, names=None):
    """Terms in stored order, so parsing gives back the same term order (and
    with it the same compiled arrays, bit for bit)."""
    if not poly.terms:
        return "0"
    names = names or [f"z{i}" for i in range(poly.arity)]
    pieces = []
    for e, c in poly.terms.items():
        factors = [_format_complex(c)]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def _format_complex(c):
    if c.imag == 0:
        return f"({c.real!r})"
    return f"({c.real!r}+{c.imag!r}i)" if c.imag >= 0 else f"({c.real!r}-{abs(c.imag)!r}i)"


class CompiledSystem:
    """Flat-array form of a polynomial list for fast evaluation and Jacobians.

    ``__init__`` lists each term's *factors* (its nonzero exponents, with
    their indeterminate) from one exponent matrix, then one Jacobian term per
    factor, and builds two :class:`SumOfProducts` plans: the Jacobian's
    terms, and the values' terms followed by the Jacobian's.  ``jacobian``
    runs the first, ``evaluate_with_jacobian`` the second, and ``evaluate``
    returns the values of a fused call.  Each plan makes one ``np.power`` per
    distinct (indeterminate, exponent) pair and keeps its index arrays for
    the tallest stack seen; products and sums stay in
    ``np.multiply.at``/``np.add.at``, because NumPy's vectorized complex
    multiply uses fused multiply-add and would round a point of a stack
    differently from the point alone.
    """

    def __init__(self, polynomials, arity):
        self.arity = arity
        self.n_eqs = len(polynomials)
        counts = [len(poly.terms) for poly in polynomials]
        n_terms = sum(counts)
        keys = chain.from_iterable(poly.terms for poly in polynomials)
        exps = np.fromiter(chain.from_iterable(keys), dtype=np.intp,
                           count=n_terms * arity).reshape(n_terms, arity)
        # a factor is a nonzero exponent: term by term, indeterminates in order
        fterm, fvar = np.nonzero(exps)
        fexp = exps[fterm, fvar]
        del exps  # (n_terms, arity): freed before the plans' own temporaries
        coeffs = np.fromiter((c for poly in polynomials for c in poly.terms.values()),
                             dtype=complex, count=n_terms)
        rows = np.repeat(np.arange(self.n_eqs, dtype=np.intp), counts)

        # one Jacobian term per factor f: f's term differentiated in f's
        # indeterminate, whose factors are the term's with f lowered by one
        n_factors = np.bincount(fterm, minlength=n_terms)
        reps = n_factors[fterm]
        jt = np.repeat(np.arange(len(fterm), dtype=np.intp), reps)
        # Jacobian term jt[i] takes factor[i]: its term's factors, in order
        first = np.cumsum(n_factors) - n_factors
        offsets = np.cumsum(reps) - reps
        factor = np.repeat(first[fterm] - offsets, reps) + np.arange(len(jt))
        jexp = fexp[factor] - (factor == jt)
        kept = jexp != 0
        jentry = rows[fterm] * arity + fvar
        jcoeff = (coeffs[fterm] * fexp.astype(complex))[None]  # a row, as plans take them
        jfvar, jfexp, jfterm = fvar[factor[kept]], jexp[kept], jt[kept]

        self.jacobian_plan = SumOfProducts(jfvar, jfexp, jfterm, jcoeff, jentry,
                                           self.n_eqs * arity)
        # both term lists in one plan, the Jacobian's entries after the values:
        # each entry gets its products and sums in the order it gets alone
        self.fused_plan = SumOfProducts(
            np.concatenate([fvar, jfvar]), np.concatenate([fexp, jfexp]),
            np.concatenate([fterm, jfterm + n_terms]),
            np.concatenate([coeffs[None], jcoeff], axis=1),
            np.concatenate([rows, jentry + self.n_eqs]), self.n_eqs * (1 + arity))

    def _stack(self, point):
        """The leading shape of ``point`` and its rows as a ``(P, arity)`` stack."""
        point = np.asarray(point, dtype=complex)
        if point.shape[-1:] != (self.arity,):
            raise ValueError(f"point shape {point.shape} does not end in arity {self.arity}")
        return point.shape[:-1], point.reshape(-1, self.arity)

    def evaluate(self, point):
        """Values at one point, or at each row of a ``(P, arity)`` stack."""
        return self.evaluate_with_jacobian(point)[0]

    def jacobian(self, point):
        """Jacobian at one point, or at each row of a ``(P, arity)`` stack."""
        lead, stack = self._stack(point)
        return self.jacobian_plan(stack).reshape(lead + (self.n_eqs, self.arity))

    def evaluate_with_jacobian(self, point):
        """Values and Jacobian from one plan call: the Jacobian bit for bit
        what ``jacobian`` returns."""
        lead, stack = self._stack(point)
        out = self.fused_plan(stack).reshape(len(stack), self.fused_plan.size)
        return (out[:, :self.n_eqs].reshape(lead + (self.n_eqs,)),
                out[:, self.n_eqs:].reshape(lead + (self.n_eqs, self.arity)))


class SumOfProducts:
    """``out[entry[i]] += coeffs[i] · Π factors of term i`` at each point of a
    ``(P, arity)`` stack, into a flat ``(P·size,)`` array; factor k of the
    flat lists is ``point[var[k]] ** exp[k]`` and belongs to term ``term[k]``.

    The plan is built once per system.  ``np.power`` runs once per distinct
    (indeterminate, exponent) pair, and a gather hands each power to its
    factors: the same elementwise operation on the same values as one power
    per factor, so the same bits.  Products and sums stay ``np.multiply.at``
    and ``np.add.at``: NumPy's vectorized complex multiply fuses multiply and
    add, so ``a * b`` on whole arrays can round differently from the
    one-element loop that ``ufunc.at`` runs, and a point of a stack would no
    longer get the bits it gets alone.
    """

    def __init__(self, var, exp, term, coeffs, entry, size):
        # one integer key per (indeterminate, exponent) pair: a 1-D unique sorts fast
        n_vars = int(var.max()) + 1 if var.size else 1
        pairs, self.gather = np.unique(exp * n_vars + var, return_inverse=True)
        self.var = pairs % n_vars
        self.exp = (pairs // n_vars).astype(complex)[None]  # power casts exponents to complex
        self.coeffs = coeffs
        self.size = size
        self.terms = StackedIndex(term, coeffs.shape[1])
        self.entries = StackedIndex(entry, size)

    def __call__(self, stack):
        P = len(stack)
        mono = np.empty((P, self.coeffs.shape[1]), dtype=complex)
        mono.fill(1.0)
        if self.gather.size:
            powers = stack.take(self.var, axis=1)
            np.power(powers, self.exp, out=powers)
            # the gathered factors are a temporary: freed before ``out`` is made
            np.multiply.at(mono.reshape(-1), self.terms(P),
                           powers.take(self.gather, axis=1).reshape(-1))
        np.multiply(self.coeffs, mono, out=mono)
        out = np.zeros(P * self.size, dtype=complex)
        np.add.at(out, self.entries(P), mono.reshape(-1))
        return out


def per_point(index, P, stride):
    """``index`` repeated for P points ``stride`` apart: a 1-D ``ufunc.at`` over
    it runs each point's products and sums in the order of a single point.

    Row p is ``index + p·stride`` whatever P is, so the array for P points
    is the first ``P·len(index)`` entries of the array for any larger P.
    """
    if P == 1:
        return index
    return (index + stride * np.arange(P)[:, None]).reshape(-1)


class StackedIndex:
    """``per_point(index, P, stride)`` for any P, as a prefix of one array
    kept for the tallest stack seen so far (see :func:`per_point`)."""

    def __init__(self, index, stride):
        self.index = index
        self.stride = stride
        self.stacked = index  # the rows of one point

    def __call__(self, P):
        n = P * len(self.index)
        stacked = self.stacked  # one read: another thread may replace it meanwhile
        if n > len(stacked):
            stacked = self.stacked = per_point(self.index, P, self.stride)
        return stacked[:n]


class PolySystem:
    """An ordered list of polynomials with per-indeterminate roles and names.

    Instances are immutable by convention; all operations return new systems.
    """

    def __init__(self, polynomials, roles, names):
        roles = list(roles)
        names = list(names)
        if len(roles) != len(names):
            raise ValueError("roles and names must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("indeterminate names must be unique")
        for r in roles:
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r}")
        arity = len(roles)
        for p in polynomials:
            if p.arity != arity:
                raise ValueError(
                    f"polynomial arity {p.arity} does not match indeterminate count {arity}"
                )
        self.polynomials = list(polynomials)
        self.roles = roles
        self.names = names
        self._compiled = None

    @property
    def arity(self):
        return len(self.roles)

    def indices(self, *roles):
        return [i for i, r in enumerate(self.roles) if r in roles]

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    @property
    def compiled(self):
        if self._compiled is None:
            self._compiled = CompiledSystem(self.polynomials, self.arity)
        return self._compiled

    def evaluate(self, point):
        return self.compiled.evaluate(point)

    def jacobian(self, point, cols=None):
        J = self.compiled.jacobian(point)
        return J if cols is None else J[:, list(cols)]

    def coefficient_norm(self):
        """Euclidean norm of all coefficients, in stored order; compiles nothing."""
        coeffs = [c for poly in self.polynomials for c in poly.terms.values()]
        return float(np.linalg.norm(np.array(coeffs, dtype=complex)))

    def substitute(self, values):
        """Fix indeterminates (index -> value); remaining ones keep their order."""
        keep = [i for i in range(self.arity) if i not in values]
        return PolySystem(
            [p.substitute(values) for p in self.polynomials],
            [self.roles[i] for i in keep],
            [self.names[i] for i in keep],
        )

    def substitute_params(self, values):
        """Fix all parameter-role indeterminates to the given vector."""
        par = self.indices(PARAMETER)
        if len(par) != len(values):
            raise ValueError(f"expected {len(par)} parameter values, got {len(values)}")
        return self.substitute(dict(zip(par, values)))

    def with_polynomials(self, polynomials):
        return PolySystem(polynomials, self.roles, self.names)

    def __len__(self):
        return len(self.polynomials)

    def __repr__(self):
        return f"PolySystem({len(self.polynomials)} eqs, names={self.names})"

    def __eq__(self, other):
        return (
            isinstance(other, PolySystem)
            and self.roles == other.roles
            and self.names == other.names
            and self.polynomials == other.polynomials
        )


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^();,])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser for the problem-source grammar."""

    ROLE_KEYWORDS = {"vars": VARIABLE, "params": PARAMETER, "aux": AUXILIARY}

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = []
        self.roles = []
        self.index = {}
        self.polys = []

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] != "name":
                raise ParseError(f"expected a declaration or 'poly', found {tok[1]!r}", tok[2], tok[3])
            if tok[1] in self.ROLE_KEYWORDS:
                self.declaration(self.ROLE_KEYWORDS[tok[1]])
            elif tok[1] == "poly":
                self.poly_statement()
            else:
                raise ParseError(f"unknown statement {tok[1]!r}", tok[2], tok[3])
        if not self.polys:
            raise ParseError("no polynomials declared", *self.peek()[2:])
        return PolySystem(self.polys, self.roles, self.names)

    def declaration(self, role):
        if self.polys:
            tok = self.peek()
            raise ParseError("declarations must precede poly statements", tok[2], tok[3])
        self.next()
        while True:
            tok = self.expect("name")
            name = tok[1]
            if name in self.index:
                raise ParseError(f"duplicate indeterminate {name!r}", tok[2], tok[3])
            self.index[name] = len(self.names)
            self.names.append(name)
            self.roles.append(role)
            tok = self.next()
            if tok[1] == ";":
                return
            if tok[1] != ",":
                raise ParseError(f"expected ',' or ';', found {tok[1]!r}", tok[2], tok[3])

    def poly_statement(self):
        self.next()
        poly = self.expression()
        self.expect("op", ";")
        self.polys.append(poly)

    @property
    def arity(self):
        return len(self.names)

    def expression(self):
        sign = 1.0
        tok = self.peek()
        while tok[1] in ("+", "-"):
            if tok[1] == "-":
                sign = -sign
            self.next()
            tok = self.peek()
        # summed in place: adding Polynomials would copy the sum at every term
        total = dict((self.term() * sign).terms)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            _add_terms(total, (rhs if op == "+" else -rhs).terms.items())
        return Polynomial(total, self.arity)

    def term(self):
        total = self.factor()
        while self.peek()[1] == "*":
            self.next()
            total = total * self.factor()
        return total

    def factor(self):
        tok = self.peek()
        if tok[1] in ("+", "-"):
            self.next()
            f = self.factor()
            return f if tok[1] == "+" else -f
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "number":
                raise ParseError("exponent must be an integer literal", etok[2], etok[3])
            text = etok[1]
            if text.endswith("i") or "." in text or "e" in text or "E" in text:
                raise ParseError(f"non-integer exponent {text!r}", etok[2], etok[3])
            return base ** int(text)
        return base

    def atom(self):
        tok = self.next()
        if tok[0] == "number":
            text = tok[1]
            if text.endswith("i"):
                return Polynomial.constant(1j * float(text[:-1]), self.arity)
            return Polynomial.constant(float(text), self.arity)
        if tok[0] == "name":
            if tok[1] in self.index:
                return Polynomial.variable(self.index[tok[1]], self.arity)
            if tok[1] == "i":
                return Polynomial.constant(1j, self.arity)
            raise ParseError(f"undeclared indeterminate {tok[1]!r}", tok[2], tok[3])
        if tok[1] == "(":
            inner = self.expression()
            self.expect("op", ")")
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse_system(text):
    """Parse the problem-source grammar into a :class:`PolySystem`."""
    return _Parser(text).parse()


def format_system(sys):
    """Serialize to the problem-source grammar (parse round-trips exactly)."""
    keyword = {VARIABLE: "vars", PARAMETER: "params", AUXILIARY: "aux"}
    lines = []
    i = 0
    while i < sys.arity:
        role = sys.roles[i]
        j = i
        while j < sys.arity and sys.roles[j] == role:
            j += 1
        lines.append(f"{keyword[role]} {','.join(sys.names[i:j])};")
        i = j
    for p in sys.polynomials:
        lines.append(f"poly {format_polynomial(p, sys.names)};")
    return "\n".join(lines) + "\n"


def homogenize(sys, groups, seed=0):
    """(Multi)homogenize the variable blocks and add one generic patch per group.

    ``groups`` partitions the variable indices.  Each group gains a
    homogenizing variable; every polynomial becomes homogeneous of its
    group-degrees; an affine patch with unit-modulus random coefficients is
    appended per group.  Returns ``(new_system, hom_indices)``, the index of
    each group's homogenizing variable.
    """
    var_idx = sys.indices(VARIABLE)
    flat = [i for g in groups for i in g]
    if sorted(flat) != sorted(var_idx) or len(flat) != len(set(flat)):
        raise ValueError("groups must partition the variable indices")
    rng = seeded_rng(seed)
    g = len(groups)
    old_arity = sys.arity
    new_arity = old_arity + g
    hom_names = [f"h{k}" for k in range(g)]
    for nm in hom_names:
        if nm in sys.names:
            raise ValueError(f"homogenizing name {nm!r} already in use")
    hom_indices = [old_arity + k for k in range(g)]

    new_polys = []
    for p in sys.polynomials:
        out = {}
        gdegs = [max((sum(e[i] for i in grp) for e in p.terms), default=0)
                 for grp in groups]
        for e, c in p.terms.items():
            ne = list(e) + [0] * g
            for k, grp in enumerate(groups):
                ne[hom_indices[k]] = gdegs[k] - sum(e[i] for i in grp)
            out[tuple(ne)] = c
        new_polys.append(Polynomial(out, new_arity))

    patch_polys = []
    for k, grp in enumerate(groups):
        support = [hom_indices[k]] + list(grp)
        coeffs = unit_complex(rng, len(support))
        patch_polys.append(affine_row(np.append(coeffs, -1.0), support, new_arity))

    out_sys = PolySystem(
        new_polys + patch_polys,
        sys.roles + [VARIABLE] * g,
        sys.names + hom_names,
    )
    return out_sys, hom_indices


def randomize(sys, target_count, seed=0):
    """[I | R] randomization: keep the first ``target_count`` rows, folding in
    unit-modulus random multiples of the trailing polynomials."""
    k = len(sys.polynomials)
    if target_count > k:
        raise ValueError(f"target_count {target_count} exceeds polynomial count {k}")
    rng = seeded_rng(seed)
    trailing = sys.polynomials[target_count:]
    out = []
    for i in range(target_count):
        p = sys.polynomials[i]
        for q in trailing:
            p = p + q * complex(unit_complex(rng))
        out.append(p)
    return sys.with_polynomials(out)


def jacobian_times(polys, indices, vector):
    """``Σ_a ∂p/∂z[indices[a]] · vector[a]`` for each polynomial ``p``: the
    Jacobian in the indeterminates ``indices`` times a vector of polynomials
    of the same arity."""
    rows = []
    for p in polys:
        row = Polynomial.zero(p.arity)
        for i, v in zip(indices, vector):
            d = p.diff(i)
            if not d.is_zero():
                row = row + d * v
        rows.append(row)
    return rows


def affine_row(coeffs, indices, arity):
    """``Σ_a coeffs[a]·z[indices[a]] + coeffs[-1]`` over ``arity`` indeterminates."""
    terms = []
    for i, c in zip(indices, coeffs[:-1]):
        e = [0] * arity
        e[i] = 1
        terms.append((e, c))
    terms.append(((0,) * arity, coeffs[-1]))
    return Polynomial(terms, arity)
