"""Laurent monomials in t1..tn, v and quadratic exponent bookkeeping.

The K-theoretic eigenvalues are Laurent monomials.  The raw quantum
Casimir eigenvalue is not: its v-exponent is a quadratic polynomial in
formal symbols tau_1..tau_n (where t_j stands for v^tau_j).  The
ExponentQuadratic type carries that exponent exactly; collapsing it to a
LaurentMonomial is only possible once the quadratic part cancels.
"""

from __future__ import annotations

from .field import VermalabError


class LaurentMonomial:
    """t1^a1 ... tn^an v^b with integer exponents."""

    __slots__ = ("texp", "vexp")

    def __init__(self, texp: tuple[int, ...], vexp: int):
        self.texp = tuple(int(k) for k in texp)
        self.vexp = int(vexp)

    @classmethod
    def one(cls, n: int) -> "LaurentMonomial":
        return cls((0,) * n, 0)

    @classmethod
    def t(cls, n: int, i: int, power: int = 1) -> "LaurentMonomial":
        e = [0] * n
        e[i - 1] = power
        return cls(tuple(e), 0)

    @classmethod
    def v(cls, n: int, power: int = 1) -> "LaurentMonomial":
        return cls((0,) * n, power)

    def __mul__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        return LaurentMonomial(
            tuple(a + b for a, b in zip(self.texp, other.texp)), self.vexp + other.vexp
        )

    def is_one(self) -> bool:
        return self.vexp == 0 and all(a == 0 for a in self.texp)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMonomial)
            and self.texp == other.texp
            and self.vexp == other.vexp
        )

    def __hash__(self):
        return hash((self.texp, self.vexp))

    def text(self) -> str:
        parts = [f"t{i + 1}^{a}" for i, a in enumerate(self.texp) if a]
        if self.vexp:
            parts.append(f"v^{self.vexp}")
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f"LaurentMonomial({self.text()})"


class ExponentQuadratic:
    """A quadratic integer polynomial in tau_1..tau_n, read as a v-exponent.

    quad stores the coefficient of tau_i tau_j under the key (i, j) with
    i <= j (0-based), so the symmetric storage is canonical.
    """

    __slots__ = ("n", "const", "lin", "quad")

    def __init__(self, n: int, const: int = 0, lin=None, quad=None):
        self.n = n
        self.const = int(const)
        self.lin = tuple(int(c) for c in (lin or (0,) * n))
        self.quad = {k: int(v) for k, v in (quad or {}).items() if v}
        for (i, j) in self.quad:
            if not (0 <= i <= j < n):
                raise VermalabError("quad keys must be sorted pairs in range")

    @classmethod
    def constant(cls, n: int, c: int) -> "ExponentQuadratic":
        return cls(n, const=c)

    @classmethod
    def tau(cls, n: int, j: int) -> "ExponentQuadratic":
        """tau_j, 1-based."""
        lin = [0] * n
        lin[j - 1] = 1
        return cls(n, lin=lin)

    def __add__(self, other: "ExponentQuadratic") -> "ExponentQuadratic":
        quad = dict(self.quad)
        for k, v in other.quad.items():
            quad[k] = quad.get(k, 0) + v
        return ExponentQuadratic(
            self.n,
            self.const + other.const,
            tuple(a + b for a, b in zip(self.lin, other.lin)),
            quad,
        )

    def __neg__(self) -> "ExponentQuadratic":
        return self.scale(-1)

    def __sub__(self, other: "ExponentQuadratic") -> "ExponentQuadratic":
        return self + (-other)

    def scale(self, k: int) -> "ExponentQuadratic":
        return ExponentQuadratic(
            self.n,
            self.const * k,
            tuple(a * k for a in self.lin),
            {key: v * k for key, v in self.quad.items()},
        )

    def mul_linear(self, other: "ExponentQuadratic") -> "ExponentQuadratic":
        """Product of two affine-linear exponents (quadratic parts must be 0)."""
        if self.quad or other.quad:
            raise VermalabError("product of quadratics exceeds degree 2")
        quad: dict[tuple[int, int], int] = {}
        for i, a in enumerate(self.lin):
            if not a:
                continue
            for j, b in enumerate(other.lin):
                if not b:
                    continue
                key = (i, j) if i <= j else (j, i)
                quad[key] = quad.get(key, 0) + a * b
        lin = tuple(
            a * other.const + b * self.const for a, b in zip(self.lin, other.lin)
        )
        return ExponentQuadratic(self.n, self.const * other.const, lin, quad)

    def is_quadratic_free(self) -> bool:
        return not self.quad

    def to_monomial(self) -> LaurentMonomial:
        """Collapse v^(this exponent) with t_j = v^tau_j; needs quad = 0."""
        if self.quad:
            raise VermalabError(
                f"quadratic tau-part did not cancel: {self.text()}"
            )
        return LaurentMonomial(self.lin, self.const)

    def __eq__(self, other):
        return (
            isinstance(other, ExponentQuadratic)
            and self.n == other.n
            and self.const == other.const
            and self.lin == other.lin
            and self.quad == other.quad
        )

    def text(self) -> str:
        parts = []
        for (i, j), c in sorted(self.quad.items()):
            mono = f"tau{i + 1}^2" if i == j else f"tau{i + 1}*tau{j + 1}"
            parts.append(f"{c}*{mono}")
        for i, c in enumerate(self.lin):
            if c:
                parts.append(f"{c}*tau{i + 1}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ExponentQuadratic({self.text()})"


class VPowerProduct:
    """A formal product (v^2 - 1)^k * monomial, used by the basis-change
    constant between structure-sheaf classes and the quantum eigenbasis."""

    __slots__ = ("vsq_minus_one_exp", "monomial")

    def __init__(self, vsq_minus_one_exp: int, monomial: LaurentMonomial):
        self.vsq_minus_one_exp = int(vsq_minus_one_exp)
        self.monomial = monomial

    def __eq__(self, other):
        return (
            isinstance(other, VPowerProduct)
            and self.vsq_minus_one_exp == other.vsq_minus_one_exp
            and self.monomial == other.monomial
        )

    def text(self) -> str:
        if self.vsq_minus_one_exp == 0:
            return self.monomial.text()
        return f"(v^2-1)^{self.vsq_minus_one_exp} {self.monomial.text()}"

    def __repr__(self):
        return f"VPowerProduct({self.text()})"
