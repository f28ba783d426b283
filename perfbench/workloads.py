"""Workload inputs for the algcert benchmark.

Each workload is a list of CLI calls.  A call is one ``algcert`` command on
one JSON document, with the flags a user would pass.  The documents are built
here in plain Python, without importing algcert, so the inputs do not depend
on the code under test.  ``der_dense`` rewrites each algebra in a basis drawn
from the workload seed; the other workloads do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

BIG_PRIME = 2147483647          # 2^31 - 1, the der_dense GF(p) field
TRANSVECTIONS = 30              # signed transvections per der_dense basis change
CANDIDATES = 15                 # der_dense bases drawn per algebra (see der_dense)

Q = {"type": "Q"}


def gf(p: int) -> dict:
    return {"type": "GFp", "p": p}


# -- structure constants (same bases as algcert.constructions) ----------------

def _table(d: int) -> list:
    return [[[0] * d for _ in range(d)] for _ in range(d)]


def matrix_algebra(n: int) -> tuple[list, list]:
    """M_n; basis e_rc at index r*n + c."""
    d = n * n
    table = _table(d)
    for r, c, c2 in itertools.product(range(n), repeat=3):
        table[r * n + c][c * n + c2][r * n + c2] = 1
    return table, [1 if r == c else 0 for r in range(n) for c in range(n)]


def upper_triangular_algebra(n: int) -> tuple[list, list]:
    """Upper-triangular n x n matrices; basis e_rc with r <= c."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    index = {p: i for i, p in enumerate(pairs)}
    table = _table(len(pairs))
    for (r, c), i in index.items():
        for (r2, c2), j in index.items():
            if c == r2:
                table[i][j][index[(r, c2)]] = 1
    return table, [1 if r == c else 0 for r, c in pairs]


def truncated_polynomial_algebra(n_vars: int, trunc: int) -> tuple[list, list]:
    """k[X1..Xn]/<X1..Xn>^l in graded-lex monomial order."""
    monos = []
    for deg in range(trunc):
        level = [m for m in itertools.product(range(deg + 1), repeat=n_vars)
                 if sum(m) == deg]
        level.sort(key=lambda m: tuple(-e for e in m))
        monos.extend(level)
    index = {m: i for i, m in enumerate(monos)}
    table = _table(len(monos))
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            prod = tuple(a + b for a, b in zip(mi, mj))
            if sum(prod) < trunc:
                table[i][j][index[prod]] = 1
    return table, [1 if k == 0 else 0 for k in range(len(monos))]


def exterior_algebra(n: int) -> tuple[list, list]:
    """Exterior algebra on n generators; basis indexed by subsets."""
    subsets = [s for size in range(n + 1)
               for s in itertools.combinations(range(n), size)]
    index = {s: i for i, s in enumerate(subsets)}
    table = _table(len(subsets))
    for s, i in index.items():
        for t, j in index.items():
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            table[i][j][index[tuple(sorted(s + t))]] = -1 if inversions % 2 else 1
    return table, [0 if s else 1 for s in subsets]


# -- seeded unimodular basis change -------------------------------------------

def transvection_basis(d: int, rng: random.Random,
                       count: int = TRANSVECTIONS) -> tuple[list, list]:
    """T = product of ``count`` signed transvections I + s*E_ij, and T^-1.

    Both are integer matrices; raises ValueError unless T * T^-1 = I.
    """
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    t_inv = [row[:] for row in t]
    for _ in range(count):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        for row in t:                   # T <- T (I + s E_ij): col_j += s col_i
            row[j] += s * row[i]
        t_inv[i] = [a - s * b for a, b in zip(t_inv[i], t_inv[j])]
    for i in range(d):
        for j in range(d):
            if sum(t[i][k] * t_inv[k][j] for k in range(d)) != int(i == j):
                raise ValueError("transvection product is not inverted exactly")
    return t, t_inv


def change_basis(table: list, one: list, t: list, t_inv: list) -> tuple[list, list]:
    """Structure constants in the basis f_i = sum_a T[a][i] e_a."""
    d = len(table)
    cols = [[(a, t[a][i]) for a in range(d) if t[a][i]] for i in range(d)]
    inv_cols = [[row[c] for row in t_inv] for c in range(d)]   # e_c in f coordinates

    def combine(terms) -> list:
        out = [0] * d
        for coeff, vec in terms:
            for c, v in enumerate(vec):
                if v:
                    out[c] += coeff * v
        return out

    # e_a f_j, then f_i f_j, in e coordinates
    x = [[combine((s, table[a][b]) for b, s in cols[j]) for j in range(d)]
         for a in range(d)]
    y = [[combine((s, x[a][j]) for a, s in cols[i]) for j in range(d)]
         for i in range(d)]
    new = [[combine((v, inv_cols[c]) for c, v in enumerate(cell) if v) for cell in row]
            for row in y]
    return new, combine((v, inv_cols[c]) for c, v in enumerate(one) if v)


# -- workloads ----------------------------------------------------------------

def _structure(field: dict, algebra: tuple[list, list]) -> dict:
    table, one = algebra
    return {"kind": "structure_constants", "field": field,
            "dim": len(one), "one": one, "table": table}


def _presentation(field: dict, n: int, trunc: int, gens: list) -> dict:
    return {"kind": "presentation", "field": field, "n_vars": n,
            "trunc_degree": trunc, "generators": gens}


class Call:
    """One CLI call: ``algcert <command> <doc file> <flags>``."""

    def __init__(self, name: str, command: str, doc: str, flags=()):
        self.name = name
        self.command = command
        self.doc = doc
        self.flags = list(flags)

    def argv(self, workdir: Path) -> list:
        return [self.command, str(workdir / f"{self.doc}.json"), *self.flags]


def certify_q() -> tuple[dict, list]:
    docs = {
        "trunc_q_2_5": _structure(Q, truncated_polynomial_algebra(2, 5)),
        "trunc_q_3_3": _structure(Q, truncated_polynomial_algebra(3, 3)),
        "exterior_q_3": _structure(Q, exterior_algebra(3)),
        "uppertri_q_5": _structure(Q, upper_triangular_algebra(5)),
        "matrix_q_4": _structure(Q, matrix_algebra(4)),
        "pres_q6_l2": _presentation(Q, 6, 2, []),
        "pres_q2_l5_cubic": _presentation(Q, 2, 5, ["X1^3+X2^3"]),
    }
    return docs, [Call(name, "analyze", name) for name in docs]


def certify_gfp() -> tuple[dict, list]:
    docs = {
        "trunc_gf5_2_4": _structure(gf(5), truncated_polynomial_algebra(2, 4)),
        "trunc_gf2_2_5": _structure(gf(2), truncated_polynomial_algebra(2, 5)),
        "trunc_gf3_3_3": _structure(gf(3), truncated_polynomial_algebra(3, 3)),
        "pres_gf7_3_l4_quadric": _presentation(gf(7), 3, 4, ["X1^2+X2^2+X3^2"]),
        "pres_gf5_2_l4_cubic": _presentation(gf(5), 2, 4, ["X1^3+X2^3"]),
    }
    return docs, [Call(name, "analyze", name) for name in docs]


def pres_forms() -> tuple[dict, list]:
    docs = {
        "pres_q4_l18_monomial": _presentation(
            Q, 4, 18, ["X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12"]),
        "pres_q3_l5_hesse": _presentation(Q, 3, 5, ["X1^3+X2^3+X3^3+X1*X2*X3"]),
        "pres_q4_l4_cubic": _presentation(
            Q, 4, 4, ["X1^3+X2^3+X3^3+X4^3+X1*X2*X3"]),
        "pres_q4_l5_two_cubics": _presentation(
            Q, 4, 5, ["X1^2*X2+X3^3+X4^3", "X1^3+X2^2*X3+X2*X4^2"]),
        "pres_gf13_5_l4_cubic": _presentation(
            gf(13), 5, 4, ["X1^3+X2^3+X3^3+X4^3+X5^3+X1*X2*X3"]),
        "pres_q7_l4_quadric": _presentation(
            Q, 7, 4, ["X1^2+X2^2+X3^2-X4^2-X5^2-X6^2-3*X7^2"]),
        "pres_q3_l5_quartic": _presentation(Q, 3, 5, ["X1^4+X2^4+X3^4"]),
        "pair_q4_l5": {"kind": "invariant_pair", "field": Q, "n_vars": 4,
                       "trunc_degree": 5, "q": "X1^2+X2^2-X3^2-X4^2",
                       "f": "X1^3+X2^3+X3^3+X4^3"},
    }
    flags = {"pres_q3_l5_hesse": ["--height-bound", "16"],
             "pres_q4_l4_cubic": ["--height-bound", "8"],
             "pres_q7_l4_quadric": ["--height-bound", "3"]}
    calls = [Call(name, "invariant-pair" if name.startswith("pair") else "analyze",
                  name, flags.get(name, ())) for name in docs]
    return docs, calls


# der_dense: seed-independent `der` output per algebra, (dim_der, dim_ker_phi_lie
# over Q).  Over GF(2^31-1) dim_der is the same and dim_ker_phi_lie is null,
# because the radical scan over that field is out of bounds.
DER_EXPECTED = {
    "matrix_3": (8, 8),
    "uppertri_4": (9, 6),
    "trunc_3_3": (27, 18),
    "exterior_3": (15, 6),
    "trunc_2_4": (18, 14),
}

# der_dense input size: nonzero structure constants after the basis change,
# about the median over random draws.  The time of `der` follows this count
# closely, so fixing it keeps the work steady from seed to seed.
DER_NONZEROS = {
    "matrix_3": 630,
    "uppertri_4": 690,
    "trunc_3_3": 640,
    "exterior_3": 440,
    "trunc_2_4": 750,
}


def der_dense(seed: int) -> tuple[dict, list]:
    """Each algebra in a seeded unimodular basis: of CANDIDATES draws, the one
    whose count of nonzero structure constants is nearest DER_NONZEROS."""
    algebras = {
        "matrix_3": matrix_algebra(3),
        "uppertri_4": upper_triangular_algebra(4),
        "trunc_3_3": truncated_polynomial_algebra(3, 3),
        "exterior_3": exterior_algebra(3),
        "trunc_2_4": truncated_polynomial_algebra(2, 4),
    }
    docs, calls = {}, []
    for k, (name, (table, one)) in enumerate(algebras.items()):
        rng = random.Random(seed * 1000 + k)
        candidates = [change_basis(table, one, *transvection_basis(len(one), rng))
                      for _ in range(CANDIDATES)]
        target = DER_NONZEROS[name]
        docs[name] = _structure(Q, min(candidates,
                                       key=lambda alg: abs(_nonzeros(alg) - target)))
        calls.append(Call(f"{name}_q", "der", name))
        calls.append(Call(f"{name}_gfp", "der", name,
                          ["--field", f"GFp:{BIG_PRIME}"]))
    return docs, calls


def _nonzeros(algebra: tuple[list, list]) -> int:
    table, _ = algebra
    return sum(1 for row in table for cell in row for c in cell if c)


WORKLOADS = {
    "certify_q": lambda seed: certify_q(),
    "der_dense": der_dense,
    "certify_gfp": lambda seed: certify_gfp(),
    "pres_forms": lambda seed: pres_forms(),
}

# The call of each workload that runs fastest; the self-tests use these.
SMALLEST = {"certify_q": "exterior_q_3", "der_dense": "exterior_3_gfp",
            "certify_gfp": "pres_gf5_2_l4_cubic", "pres_forms": "pres_q3_l5_quartic"}


def build(workload: str, seed: int) -> tuple[dict, list]:
    """(documents by name, calls) of one workload."""
    return WORKLOADS[workload](seed)


def write_documents(docs: dict, workdir: Path) -> None:
    for name, doc in docs.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc, sort_keys=True),
                                               encoding="utf-8")


def expected_outputs(workload: str) -> dict:
    """Expected (exit code, check) per call name.

    ``check`` is the sha256 of stdout, or for der_dense the parsed JSON.
    """
    if workload == "der_dense":
        out = {}
        for name, (dim_der, dim_ker) in DER_EXPECTED.items():
            out[f"{name}_q"] = (0, {"dim_der": dim_der, "dim_ker_phi_lie": dim_ker})
            out[f"{name}_gfp"] = (0, {"dim_der": dim_der, "dim_ker_phi_lie": None})
        return out
    table = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))[workload]
    return {name: (entry["exit"], entry["sha256"]) for name, entry in table.items()}


def output_matches(expected, stdout: str) -> bool:
    """Compare one call's stdout with its expected check."""
    if isinstance(expected, str):
        return hashlib.sha256(stdout.encode("utf-8")).hexdigest() == expected
    try:
        return json.loads(stdout) == expected
    except json.JSONDecodeError:
        return False
