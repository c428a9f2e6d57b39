"""Seeded instance generators and their oracles.

Every workload is a fixed list of instance *shapes* (command, degree,
lattice size, ...); the seed only draws the numbers that fill each shape and
the order of the pass, so the work per pass is comparable across seeds.  Each instance carries the
command line the program receives and the expectation the answer is checked
against.  Expectations come from how the instance was built, using the small
exact polynomial helpers below, never from the program under test.
Options are passed as ``--name=value`` because polynomial text may start
with a minus sign.

Only the standard library is used here: the parent process of the benchmark
never imports the program.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("roots", "sos", "bisect", "verify")

#: How each workload's times are corrected for the machine's speed
#: (bench/calib.py): (scope, exponent).  "visit" corrects each visit by the
#: kernel calls just before and after it; "run" corrects all of a run by the
#: run's typical kernel time.  The exponent is the share of the kernel's
#: change of speed that the workload's calls follow.  The exact arithmetic of
#: roots and verify follows the kernel closely, call by call.  The numpy-heavy
#: calls of sos and bisect slow down by 1.2-1.4x when the kernel slows by 2x,
#: and their long calls (up to 50 s) are not represented by the kernel calls
#: at their ends.  Either choice leaves a change to the program with its full
#: effect, since the factor does not depend on the program; it only sets how
#: much of the machine's drift is damped.
CALIBRATION = {
    "roots": ("visit", 1.0),
    "verify": ("visit", 1.0),
    "sos": ("run", 0.5),
    "bisect": ("run", 0.5),
}


# --- exact polynomial helpers (oracle side) ---------------------------------
# Univariate polynomials are coefficient lists, lowest degree first.
# Multivariate polynomials are dicts from exponent tuples to Fractions.

def umul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def uprod(factors):
    out = [Fraction(1)]
    for f in factors:
        out = umul(out, f)
    return out


def ueval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _term_text(c, factors, first):
    mag = abs(c)
    if not factors or mag != 1:
        factors = [str(mag)] + factors
    body = "*".join(factors)
    if first:
        return body if c > 0 else f"-{body}"
    return f"{'+' if c > 0 else '-'} {body}"


def utext(a):
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c:
            factors = [] if k == 0 else ["x" if k == 1 else f"x^{k}"]
            parts.append(_term_text(c, factors, not parts))
    return " ".join(parts) if parts else "0"


def mmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(p + q for p, q in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def madd(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: Fraction(c) for e, c in out.items() if c}


def mtext(p, nvars):
    names = "xyz"[:nvars] if nvars <= 3 else [f"x{i + 1}" for i in range(nvars)]
    parts = []
    for e in sorted(p, key=lambda a: (-sum(a), tuple(-x for x in a))):
        factors = [names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k]
        parts.append(_term_text(Fraction(p[e]), factors, not parts))
    return " ".join(parts) if parts else "0"


def monomials(nvars, degree):
    """Exponent tuples of total degree <= degree, graded, x1-major."""
    out = []
    for d in range(degree + 1):
        out += sorted((a for a in itertools.product(range(d + 1), repeat=nvars) if sum(a) == d),
                      reverse=True)
    return out


def gram_poly(gram, monos):
    out = {}
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if gram[i][j]:
                e = tuple(p + q for p, q in zip(a, b))
                out[e] = out.get(e, 0) + gram[i][j]
    return {e: Fraction(c) for e, c in out.items() if c}


def squares_poly(terms):
    """sum w * p^2 over (weight, mpoly) pairs."""
    out = {}
    for w, p in terms:
        out = madd(out, mmul(p, p), w)
    return out


# --- random pieces ------------------------------------------------------------

def _sized_rationals(rng, count, lo=5, hi=12, dens=(1, 2, 3)):
    """count distinct rationals +-n/d with lo <= n <= hi and d cycling through dens.

    The bit sizes barely change with the seed, and exact arithmetic costs
    what the bit sizes say, so neither does the cost of an instance.
    """
    out = []
    while len(out) < count:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), dens[len(out) % len(dens)])
        if x not in out:
            out.append(x)
    return out


def _irreducible_quadratics(rng, count):
    """count distinct monic x^2 + b x + c with b^2 < 4c (no real roots)."""
    seen = set()
    while len(seen) < count:
        b = rng.choice((-1, 1)) * rng.randint(2, 4)
        c = Fraction(b * b, 4) + rng.randint(3, 6)
        seen.add((Fraction(b), c))
    return [[c, b, Fraction(1)] for b, c in sorted(seen)]


def _multiplicities(nlinear):
    """Fixed root-multiplicity pattern for a given number of linear factors."""
    pattern = itertools.cycle([2, 1, 3, 1, 1])
    mults = []
    left = nlinear
    while left:
        m = min(next(pattern), left)
        mults.append(m)
        left -= m
    return mults


def _constructed_poly(rng, degree):
    """Polynomial of the given degree with rational, repeated and complex roots.

    Returns (coefficients, distinct real roots, number of distinct complex roots).
    """
    nquad = degree // 4
    mults = _multiplicities(degree - 2 * nquad)
    roots = _sized_rationals(rng, len(mults))
    quads = _irreducible_quadratics(rng, nquad)
    factors = [[-r, Fraction(1)] for r, m in zip(roots, mults) for _ in range(m)] + quads
    scale = Fraction(3, 2)
    coeffs = [scale * c for c in uprod(factors)]
    return coeffs, roots, len(roots) + 2 * nquad


def _sign_pattern_points(real_roots):
    """Points covering every open interval cut out by the given real roots."""
    rs = sorted(set(real_roots))
    if not rs:
        return [Fraction(0)]
    pts = [rs[0] - 1, rs[-1] + 1]
    pts += [(a + b) / 2 for a, b in zip(rs, rs[1:])]
    return pts


# --- roots ---------------------------------------------------------------------

#: (command, degree of f, number of sign conditions) per pass
ROOTS_SHAPES = [
    ("count-roots", 8, 0),
    ("count-roots", 14, 0),
    ("count-roots", 20, 0),
    ("count-roots", 24, 0),
    ("count-with-signs", 10, 1),
    ("count-with-signs", 16, 1),
    ("count-with-signs", 20, 1),
    ("count-with-signs", 8, 2),
    ("count-with-signs", 12, 2),
    ("count-with-signs", 24, 2),
    ("decide-strict", True, 2),
    ("decide-strict", False, 2),
]


def _condition(rng, degree):
    """A random sign condition of the given degree (1 or 2) with small coefficients.

    The degree is fixed by the shape: it sets the size of the Hermite forms,
    so drawing it at random would make the cost of a pass depend on the seed.
    """
    if degree == 1:
        return [_sized_rationals(rng, 1, 2, 6, (2,))[0], Fraction(rng.choice((-1, 1)))]
    a, b = sorted(_sized_rationals(rng, 2, 2, 8))
    sign = rng.choice((-1, 1))
    return [sign * c for c in umul([-a, Fraction(1)], [b, Fraction(-1)])]


def _strict_system(rng, satisfiable):
    """Two conditions built from known real roots; returns (conditions, all real roots)."""
    a, c, b = sorted(_sized_rationals(rng, 3, 2, 9))
    quad = _irreducible_quadratics(rng, 1)[0]
    g1 = uprod([[-a, Fraction(1)], [b, Fraction(-1)], quad])  # > 0 exactly on (a, b)
    edge = c if satisfiable else b + Fraction(rng.randint(0, 4), 2)
    g2 = [-edge, Fraction(1)]  # > 0 exactly for x > edge
    return [g1, g2], [a, b, edge]


def roots_instances(rng, shapes=ROOTS_SHAPES):
    out = []
    for command, size, m in shapes:
        if command == "decide-strict":
            gs, real = _strict_system(rng, size)
            sat = any(all(ueval(g, x) > 0 for g in gs) for x in _sign_pattern_points(real))
            argv = ["--json", command] + [f"--condition={utext(g)}" for g in gs]
            out.append({"argv": argv, "expect": {"exit": 0 if sat else 1, "satisfiable": sat},
                        "shape": f"{command}/sat={size}"})
            continue
        f, roots, ncomplex = _constructed_poly(rng, size)
        argv = ["--json", command, f"--poly={utext(f)}"]
        if command == "count-roots":
            expect = {"exit": 0, "real": len(roots), "complex_distinct": ncomplex}
        else:
            gs = [_condition(rng, 2 - k % 2) for k in range(m)]
            argv += [f"--condition={utext(g)}" for g in gs]
            count = sum(all(ueval(g, r) > 0 for g in gs) for r in roots)
            expect = {"exit": 0, "count": count}
        out.append({"argv": argv, "expect": expect,
                    "shape": f"{command}/deg={size}/m={m}"})
    return out


# --- sos -------------------------------------------------------------------------

#: (kind, nvars, half degree) per pass; the "gram" lattices have 6, 10 and
#: 10 points (the last in 3 variables).  The boundary instance always runs the
#: full sweep cap.  One pass takes about 7 s on a 2-core Xeon VM, so a run
#: sees each instance about twice.
SOS_SHAPES = [
    ("gram", 2, 2),
    ("gram", 2, 3),
    ("gram", 3, 2),
    ("boundary", 2, 2),
    ("motzkin", 2, 0),
    ("odd", 2, 0),
    ("negvertex", 2, 0),
    ("inconsistent", 3, 0),
]


def _gram_sos(rng, nvars, half):
    """A strictly positive definite Gram product over all monomials of degree <= half.

    The Gram matrix is fixed per shape; the seed only applies a signed
    permutation of the variables.  That gives another polynomial with an
    equivalent search (the Gram matrices are conjugate by a signed permutation
    matrix, which the numeric phase's projections commute with).  With a
    fresh random Gram matrix per seed, the search cost of the same shape
    varied by up to 1.8x between seeds.  The dominant diagonal keeps the
    matrix well inside the psd cone.
    """
    fixed = random.Random(f"gram:{nvars}:{half}")
    monos = monomials(nvars, half)
    n = len(monos)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        row = [fixed.randint(-1, 1) for _ in range(n)]
        row[r] = fixed.randint(6, 8)
        for i in range(n):
            for j in range(n):
                gram[i][j] += row[i] * row[j]
    return _signed_permutation(rng, gram_poly(gram, monos), nvars)


def _signed_permutation(rng, p, nvars):
    """p with its variables permuted and some of them negated, drawn from rng."""
    order = list(range(nvars))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(nvars)]
    out = {}
    for e, c in p.items():
        sign = 1
        for i, k in enumerate(e):
            sign *= signs[i] ** k
        out[tuple(e[order[i]] for i in range(nvars))] = sign * c
    return out


def _boundary(rng):
    """x^4 + y^4 -+ 4*v + 3 with v in {x, y}: a real zero at v = +-1, so no interior Gram matrix."""
    v = rng.randrange(2)
    sign = rng.choice((-1, 1))
    lin = tuple(1 if i == v else 0 for i in range(2))
    return {(4, 0): Fraction(1), (0, 4): Fraction(1), lin: Fraction(4 * sign), (0, 0): Fraction(3)}


def _refutation(rng, kind):
    q = lambda lo, hi: Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3)))  # noqa: E731
    if kind == "motzkin":  # the (1,1) diagonal of every Gram matrix is forced to -c
        return {(4, 2): q(1, 4), (2, 4): q(1, 4), (2, 2): -q(1, 6), (0, 0): q(1, 4)}
    if kind == "odd":
        return {(3, 2): q(1, 5), (4, 0): q(1, 5), (0, 2): q(1, 5), (0, 0): q(1, 5)}
    if kind == "negvertex":
        return {(4, 0): q(1, 5), (0, 4): -q(1, 5), (2, 0): q(1, 5), (0, 0): q(1, 5)}
    # (1,1,1) lies in the Newton polytope but is no sum of two of its halved lattice points
    c = q(1, 6) * rng.choice((-1, 1))
    return {(0, 0, 0): q(1, 4), (2, 2, 0): q(1, 4), (2, 0, 2): q(1, 4), (0, 2, 2): q(1, 4),
            (1, 1, 1): c}


def sos_instances(rng, shapes=SOS_SHAPES):
    out = []
    for kind, nvars, half in shapes:
        if kind == "gram":
            p, status, nv = _gram_sos(rng, nvars, half), "sos", nvars
        elif kind == "boundary":
            p, status, nv = _boundary(rng), "sos", 2
        else:
            p, status, nv = _refutation(rng, kind), "certified-infeasible", nvars
        text = mtext(p, nv)
        expect = {"exit": 0 if status == "sos" else 1, "status": status}
        out.append({"argv": ["--json", "sos", "find", f"--poly={text}"], "expect": expect,
                    "recheck": {"kind": "sos", "poly": text} if status == "sos" else None,
                    "shape": f"{kind}/n={nvars}/k={half}"})
    return out


# --- bisect ---------------------------------------------------------------------

# The five instances of the workload: objective, constraints, relaxation
# degree, and the known minimum as (a, b) meaning a - sqrt(b).  The seed only
# permutes the pass: reflected objectives and reordered constraints were left
# out because they change the cost of an instance by up to 50%.
BISECT_SHAPES = [
    ("x", ["x", "1 - x"], 2, (Fraction(0), Fraction(0))),
    ("x^2 - x", ["x", "1 - x"], 2, (Fraction(-1, 4), Fraction(0))),
    ("x*y", ["1 - x^2 - y^2"], 2, (Fraction(-1, 2), Fraction(0))),
    ("x^2 + y^2 - x*y - x", ["1 - x^2 - y^2"], 2, (Fraction(-1, 3), Fraction(0))),
    # min -2/(3*sqrt(3)); today this ends with "no initial bracket found" (exit 3)
    # after about 45 s of bracket probes, although a certificate exists at -1
    ("x^3 - x", ["1 + x", "1 - x"], 4, (Fraction(0), Fraction(4, 27))),
]

#: bisection steps after the bracket (the CLI default is 12).  Three keep a
#: pass near 50 s, of which x^3 - x, which never reaches the bisection,
#: takes about 45 s; with 12 a pass takes about 80 s, too long for the
#: number of runs a benchmark session makes.
BISECT_ITERATIONS = 3


def bisect_instances(shapes=BISECT_SHAPES):
    out = []
    for f, gs, degree, minimum in shapes:
        argv = ["--json", "lasserre", "bound", f"--poly={f}", "-d", str(degree),
                f"--iterations={BISECT_ITERATIONS}"]
        argv += [f"--constraint={g}" for g in gs]
        out.append({"argv": argv, "expect": {"bound": [str(minimum[0]), str(minimum[1])]},
                    "recheck": {"kind": "module", "poly": f, "constraints": gs, "degree": degree},
                    "shape": f"{f}/d={degree}"})
    return out


def lower_bound_ok(lo: Fraction, minimum) -> bool:
    """lo <= a - sqrt(b), decided exactly."""
    a, b = minimum
    return a - lo >= 0 and (a - lo) ** 2 >= b


def bound_slack(lo: Fraction, minimum) -> float:
    a, b = minimum
    return float(a) - float(b) ** 0.5 - float(lo)


# --- verify -------------------------------------------------------------------------

#: (kind, dimension or size) per pass; a pass takes about 8 s on a 2-core Xeon
#: VM, so a 12 s run sees the two large Gram checks once or twice
VERIFY_SHAPES = [
    ("gram-valid", 12),
    ("gram-valid", 28),
    ("gram-not-psd", 16),
    ("gram-not-psd", 24),
    ("gram-mismatch", 10),
    ("squares-valid", 30),
    ("squares-mismatch", 30),
    ("module-valid", 10),
    ("module-mismatch", 10),
]


def _psd_gram(rng, n):
    """B^T B for a random small-integer B with a dominant diagonal: positive definite."""
    gram = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        row = [rng.randint(-2, 2) for _ in range(n)]
        row[r] = rng.choice((3, 4))
        for i in range(n):
            for j in range(n):
                gram[i][j] += row[i] * row[j]
    return gram


def _random_mpoly(rng, nvars, degree, nterms):
    monos = monomials(nvars, degree)
    return {e: Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.choice((1, 2)))
            for e in rng.sample(monos, min(nterms, len(monos)))}


def _squares_cert(rng, nterms, nvars, degree, poly_terms=10):
    return [(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
             _random_mpoly(rng, nvars, degree, poly_terms))
            for _ in range(nterms)]


def _terms_doc(terms, nvars):
    return {"terms": [{"weight": str(w), "poly": mtext(p, nvars)} for w, p in terms]}


def verify_instances(rng, workdir, shapes=VERIFY_SHAPES):
    """Writes one certificate file per instance into workdir."""
    out = []
    monos2 = monomials(2, 6)  # 28 monomials of degree <= 6 in x, y
    for k, (kind, size) in enumerate(shapes):
        path = os.path.join(workdir, f"cert{k}.json")
        expect_valid = kind.endswith("valid")
        reason = None
        if kind.startswith("gram"):
            monos = monos2[:size]
            gram = _psd_gram(rng, size)
            target = gram_poly(gram, monos)
            if kind == "gram-not-psd":
                # monomials 0, 1, 3 are 1, x, x^2 and x * x = 1 * x^2: moving
                # weight from G[x][x] to G[1][x^2] keeps v^T G v but makes a
                # diagonal entry negative
                t = gram[1][1]
                gram[1][1] -= 2 * t
                gram[0][3] += t
                gram[3][0] += t
                reason = "gram-not-psd"
            elif kind == "gram-mismatch":
                target = madd(target, {(0, 0): Fraction(1)})
                reason = "gram-product-mismatch"
            doc = {"monomials": [list(a) for a in monos],
                   "gram": [[str(x) for x in row] for row in gram],
                   "target": mtext(target, 2)}
            argv = ["--json", "sos", "check", "--cert", path]
        elif kind.startswith("squares"):
            terms = _squares_cert(rng, size, 3, 4, poly_terms=12)
            target = squares_poly(terms)
            if kind == "squares-mismatch":
                target = madd(target, {(0, 0, 0): Fraction(1)})
                reason = "expansion-mismatch"
            doc = _terms_doc(terms, 3)
            doc["target"] = mtext(target, 3)
            argv = ["--json", "sos", "check", "--cert", path]
        else:
            # f = sigma0 + sigma1 * (1 - x^2 - y^2) + sigma2 * x at relaxation degree size
            gs = [{(0, 0): Fraction(1), (2, 0): Fraction(-1), (0, 2): Fraction(-1)},
                  {(1, 0): Fraction(1)}]
            caps = [size // 2, (size - 2) // 2, (size - 1) // 2]
            sigmas = [_squares_cert(rng, 6, 2, cap) for cap in caps]
            target = squares_poly(sigmas[0])
            for g, sigma in zip(gs, sigmas[1:]):
                target = madd(target, mmul(squares_poly(sigma), g))
            if kind == "module-mismatch":
                target = madd(target, {(0, 0): Fraction(1)})
                reason = "sum-mismatch"
            doc = {"sigmas": [_terms_doc(s, 2) for s in sigmas]}
            argv = ["--json", "lasserre", "check", f"--poly={mtext(target, 2)}", "-n", "2",
                    "-d", str(size), "--cert", path]
            argv += [f"--constraint={mtext(g, 2)}" for g in gs]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        expect = {"exit": 0 if expect_valid else 1, "valid": expect_valid}
        if reason:
            expect["reason"] = reason
        out.append({"argv": argv, "expect": expect,
                    "shape": f"{kind}/{size}"})
    return out


# --- tiny shapes for the smoke test ---------------------------------------------------

TINY = {
    "roots": [("count-roots", 6, 0), ("count-with-signs", 6, 1), ("decide-strict", False, 2)],
    "sos": [("gram", 2, 2), ("motzkin", 2, 0)],
    "bisect": BISECT_SHAPES[:1],
    "verify": [("gram-valid", 6), ("gram-not-psd", 6), ("squares-valid", 3), ("module-valid", 2)],
}


def instances(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """The fixed instance list of one pass of the workload, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    kwargs = {"shapes": TINY[workload]} if tiny else {}
    if workload == "roots":
        insts = roots_instances(rng, **kwargs)
    elif workload == "sos":
        insts = sos_instances(rng, **kwargs)
    elif workload == "bisect":
        insts = bisect_instances(**kwargs)
    elif workload == "verify":
        insts = verify_instances(rng, workdir, **kwargs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(insts)
    return insts
