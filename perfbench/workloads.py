"""The benchmark's four workloads: input files made from a seed, the CLI
invocations of one pass, and the checks on their output.

Each workload writes its inputs into a scratch directory and describes one
pass as a list of ``tau2`` argument vectors.  The program only ever sees
those files; the seed never reaches it as a flag.  Work per pass is fixed
by the workload's shape, so items per second can be compared across seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("exact_enum", "mc_sweep", "analyze_large", "dioph_window")

TAU2_PROPERTIES = (
    "all_generators_csmall",
    "center_is_C",
    "all_commutators_nontrivial",
    "derived_rank_is_r",
    "regular",
    "scalarZ_certified",
    "csmall_conjunction",
)

CSV_HEADER = "property,ell,mode,trials,successes,estimate,fraction,ci_low,ci_high,seed"

# Functions that must record calls on each workload in a traced pass: the
# layers the workload exists to exercise.  Zero calls there means the
# workload no longer reaches that layer, and the traced run fails.
_COMMON_CALLS = (
    "cli.main",
    "structure.center",
    "structure.centralizer",
    "structure.is_c_small",
    "intlin.kernel_basis",
    "intlin.LatticeBasis.from_vectors",
    "intlin.hnf",
    "intlin.lattice_equal",
    "core.Tau2Presentation.lam",
)
EXPECTED_CALLS = {
    "exact_enum": _COMMON_CALLS
    + ("structure.derived_report", "structure.is_regular", "intlin.rank", "randmodel.exact_fraction")
    + tuple(f"randmodel.property.{name}" for name in TAU2_PROPERTIES),
    "mc_sweep": _COMMON_CALLS
    + (
        "structure.derived_report",
        "structure.is_regular",
        "intlin.rank",
        "intlin.snf",
        "randmodel.montecarlo",
        "randmodel.sample_tau2",
        "randmodel.trial_rng",
        "randmodel.abelianization",
        "randmodel.property.csmall_conjunction",
        "randmodel.property.regular",
        "randmodel.property.abelianization_finite",
    ),
    "analyze_large": _COMMON_CALLS
    + (
        "structure.derived_report",
        "structure.is_regular",
        "structure.structure_report",
        "intlin.rank",
        "core.parse_presentation",
        "core.invariant_report",
    ),
    "dioph_window": _COMMON_CALLS
    + (
        "core.parse_presentation",
        "core.multiply",
        "core.power",
        "core.commutator",
        "dioph.parse_equations",
        "dioph.encode_system",
        "dioph.box_solve",
        "dioph.check_solution",
        "dioph.ring_window_report",
    ),
}


@dataclass(frozen=True)
class Invocation:
    label: str  # stable key for golden digests
    argv: tuple[str, ...]


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    items: int  # items completed by one pass
    presentations: int  # distinct presentations one pass analyses
    # Input files a fresh interpreter parses during set-up:
    # ("presentation", path), ("equations", presentation path, path) or ("config", path).
    inputs: list[tuple[str, ...]]
    checks: dict[str, Callable[[str], str | None]]  # label -> None, or what is wrong with stdout


def build(name: str, seed: int, workdir: str, small: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``.

    ``small`` shrinks every count so that a test can run a pass in well under
    a second; the benchmark itself never sets it.
    """
    builders = {
        "exact_enum": _exact_enum,
        "mc_sweep": _mc_sweep,
        "analyze_large": _analyze_large,
        "dioph_window": _dioph_window,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return builders[name](seed, rng, workdir, small)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _presentation_text(n: int, m: int, lam: dict[tuple[int, int, int], int]) -> str:
    lines = [f"n = {n}", f"m = {m}"]
    lines += [f"lambda {t} {i} {j} = {v}" for (t, i, j), v in sorted(lam.items()) if v]
    return "\n".join(lines) + "\n"


# -- exact_enum ------------------------------------------------------------------
#
# Exact enumeration of the whole (n=3, m=2, ell=1) sample space, once per
# property, for all seven properties.  Glue-bound structure/intlin work on
# tiny matrices.  The seed only permutes the property order and sets the
# config seed echoed in the CSV, so the work is identical for every seed and
# so are the success counts, which are checked against EXACT_SUCCESSES.

EXACT_SHAPE = (3, 2, 1)
EXACT_SMALL_SHAPE = (3, 1, 1)
# Successes out of 729 at (3, 2, 1), from the enumeration at the commit that
# introduced this benchmark; csmall_conjunction = 192 is also stated in README.
EXACT_SUCCESSES = {
    "all_generators_csmall": 273,
    "center_is_C": 624,
    "all_commutators_nontrivial": 512,
    "derived_rank_is_r": 624,
    "regular": 624,
    "scalarZ_certified": 224,
    "csmall_conjunction": 192,
}


def _exact_enum(seed, rng, workdir, small):
    n, m, ell = EXACT_SMALL_SHAPE if small else EXACT_SHAPE
    props = list(TAU2_PROPERTIES)
    rng.shuffle(props)
    config = _write(
        workdir,
        "exact.cfg",
        f"model = tau2\nn = {n}\nm = {m}\nell = {ell}\nproperties = {' '.join(props)}\n"
        f"trials = 1\nseed = {seed}\nmode = exact\n",
    )
    space = (2 * ell + 1) ** (m * n * (n - 1) // 2)
    rows = [(prop, ell, "exact", space) for prop in props]

    def check(out):
        problem = _check_csv(out, rows, seed)
        if problem is None and not small and _csv_successes(out) != EXACT_SUCCESSES:
            problem = f"exact counts {_csv_successes(out)} differ from {EXACT_SUCCESSES}"
        return problem

    return Workload(
        name="exact_enum",
        invocations=[Invocation("experiment", ("experiment", config))],
        items=space * len(props),
        presentations=space,
        inputs=[("config", config)],
        checks={"experiment": check},
    )


# -- mc_sweep --------------------------------------------------------------------
#
# Monte Carlo over the tau2 model (n=4, m=3, ell 4 and 16, two properties)
# plus one nilpotent relation-model config.  The only workload that goes
# through trial_rng, the samplers, the --threads trial pool and the SNF path.

MC_TRIALS = 200
MC_SMALL_TRIALS = 12
MC_ELLS = (4, 16)
MC_PROPS = ("csmall_conjunction", "regular")


def _mc_sweep(seed, rng, workdir, small):
    trials = MC_SMALL_TRIALS if small else MC_TRIALS
    tau2_cfg = _write(
        workdir,
        "mc_tau2.cfg",
        f"model = tau2\nn = 4\nm = 3\nell = {' '.join(map(str, MC_ELLS))}\n"
        f"properties = {' '.join(MC_PROPS)}\ntrials = {trials}\nseed = {seed}\nmode = mc\n",
    )
    nil_cfg = _write(
        workdir,
        "mc_nilpotent.cfg",
        "model = nilpotent\nn = 5\ns = 2 3 inf 5 inf\nell = 16\n"
        f"properties = abelianization_finite\ntrials = {trials}\nseed = {seed}\n",
    )
    tau2_rows = [(prop, ell, "mc", trials) for prop in MC_PROPS for ell in MC_ELLS]
    nil_rows = [("abelianization_finite", 16, "mc", trials)]
    return Workload(
        name="mc_sweep",
        invocations=[
            Invocation("experiment_tau2", ("experiment", tau2_cfg)),
            Invocation("experiment_nilpotent", ("experiment", nil_cfg)),
        ],
        items=trials * (len(tau2_rows) + len(nil_rows)),
        # Trial i at a given ell draws the same presentation for every property.
        presentations=trials * len(MC_ELLS),
        inputs=[("config", tau2_cfg), ("config", nil_cfg)],
        checks={
            "experiment_tau2": lambda out: _check_csv(out, tau2_rows, seed),
            "experiment_nilpotent": lambda out: _check_csv(out, nil_rows, seed),
        },
    )


def _check_csv(out: str, rows: list[tuple], seed: int) -> str | None:
    """Each row must name the expected (property, ell, mode, trials), and its
    estimate, fraction and interval must agree with its own success count."""
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "CSV header missing or changed"
    if len(lines) - 1 != len(rows):
        return f"expected {len(rows)} CSV rows, got {len(lines) - 1}"
    for line, (prop, ell, mode, trials) in zip(lines[1:], rows):
        f = line.split(",")
        if len(f) != 10:
            return f"malformed CSV row {line!r}"
        if f[:4] != [prop, str(ell), mode, str(trials)] or f[9] != str(seed):
            return f"CSV row {line!r} does not match ({prop}, {ell}, {mode}, {trials}, seed {seed})"
        hits = int(f[4])
        if not 0 <= hits <= trials:
            return f"successes out of range in {line!r}"
        frac = Fraction(hits, trials)
        if f[6] != f"{frac.numerator}/{frac.denominator}" or float(f[5]) != hits / trials:
            return f"estimate or fraction inconsistent with successes in {line!r}"
        if not float(f[7]) <= hits / trials <= float(f[8]):
            return f"interval does not contain the estimate in {line!r}"
    return None


def _csv_successes(out: str) -> dict[str, int]:
    """property -> successes, from an exact-mode CSV with one ell."""
    return {line.split(",")[0]: int(line.split(",")[4]) for line in out.splitlines()[1:]}


# -- analyze_large ---------------------------------------------------------------
#
# ``tau2 analyze`` on dense presentations with entries up to +-100.  Kernel
# bound: most of the time is hnf_inplace on transposed commutation and center
# matrices whose transform entries swell.  The shape schedule is fixed and
# only the entries come from the seed, because time per file varies with the
# entries; many files per pass keep the total steady across seeds.

ANALYZE_SHAPES = ((9, 6), (9, 8), (10, 6), (10, 7), (10, 8), (11, 8)) * 8
ANALYZE_SMALL_SHAPES = ((4, 2), (5, 3))
ANALYZE_BOUND = 100


def _analyze_large(seed, rng, workdir, small):
    shapes = ANALYZE_SMALL_SHAPES if small else ANALYZE_SHAPES
    invocations, inputs, checks = [], [], {}
    for k, (n, m) in enumerate(shapes):
        lam = {
            (t, i, j): rng.randint(-ANALYZE_BOUND, ANALYZE_BOUND)
            for t in range(1, m + 1)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        path = _write(workdir, f"p{k:02d}_{n}x{m}.pres", _presentation_text(n, m, lam))
        label = f"analyze_{k:02d}"
        invocations.append(Invocation(label, ("analyze", path)))
        inputs.append(("presentation", path))
        checks[label] = lambda out, n=n, m=m, lam=lam: _check_report(out, n, m, lam)
    return Workload(
        name="analyze_large",
        invocations=invocations,
        items=len(shapes),
        presentations=len(shapes),
        inputs=inputs,
        checks=checks,
    )


def _check_report(out: str, n: int, m: int, lam: dict) -> str | None:
    """Re-derive what the report claims from the generating table: the center
    basis vectors must commute with every generator, and the rank fields must
    satisfy the identities of the presentation."""
    fields = dict(line.split(" = ", 1) for line in out.splitlines())
    try:
        if (int(fields["n"]), int(fields["m"])) != (n, m):
            return "report names the wrong shape"
        basis_text = fields["center_d_basis"].strip("[]").strip()
        basis = [tuple(map(int, part.strip(" ()").split())) for part in basis_text.split(",")] if basis_text else []
        if int(fields["center_rank"]) != m + len(basis):
            return "center_rank != m + |center_d_basis|"

        def lam_at(t, i, j):
            return lam[(t, i, j)] if i < j else -lam[(t, j, i)] if i > j else 0

        for v in basis:
            for t in range(1, m + 1):
                for j in range(1, n + 1):
                    if sum(lam_at(t, i, j) * v[i - 1] for i in range(1, n + 1)):
                        return f"center vector {v} does not commute with a{j}"
        if int(fields["rank_g_mod_center"]) != n - len(basis) or int(fields["rank_g_mod_c"]) != n:
            return "rank fields inconsistent with the center basis"
        if not 0 <= int(fields["derived_rank"]) <= m:
            return "derived_rank out of range"
        if len(fields["csmall"].strip("[]").split(",")) != n:
            return "csmall list has the wrong length"
        if fields["span_identity_holds"] != "true" or fields["sandwich_holds"] != "true":
            return "rank identities reported false"
    except (KeyError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None


# -- dioph_window ----------------------------------------------------------------
#
# Fixed small groups: the Heisenberg group and a 3x2 group whose three
# generators are c-small and pairwise non-commuting.  core arithmetic
# (power, commutator, multiply) and dioph do the work; structure/intlin are
# nearly idle.  The seed picks the odot base pair, the right-hand sides of the
# box system and the split of the large powers, none of which changes the
# amount of work.

HEISENBERG = "n = 2\nm = 1\nlambda 1 1 2 = 1\n"
GROUP_3X2 = "n = 3\nm = 2\nlambda 1 1 2 = 1\nlambda 1 2 3 = 1\nlambda 2 1 3 = 1\nlambda 2 2 3 = 1\n"
ODOT_WINDOW, ODOT_SMALL_WINDOW = 20, 2
BOX, BOX_SMALL = 4, 1
POWER_SUM, POWER_SMALL_SUM = 200, 10
BOX_UNKNOWNS = 6  # X1 X2 Y1 Y2 Z1 Z2: central parts are free and omitted


def _dioph_window(seed, rng, workdir, small):
    window = ODOT_SMALL_WINDOW if small else ODOT_WINDOW
    box = BOX_SMALL if small else BOX
    power_sum = POWER_SMALL_SUM if small else POWER_SUM
    heis = _write(workdir, "heisenberg.pres", HEISENBERG)
    g32 = _write(workdir, "group3x2.pres", GROUP_3X2)
    a, b = rng.sample(("a1", "a2", "a3"), 2)
    k1, k2 = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
    box_eqs = _write(workdir, "box.eq", f"[x,y] = c1^{k1}\n[x,z] = c1^{k2}\n")
    p = rng.randint(power_sum * 2 // 5, power_sum * 3 // 5)
    q = power_sum - p
    power_eqs = _write(workdir, "powers.eq", f"x^{p}*y^{q} = y^{q}*x^{p}*c1^{p * q}\n")
    points = (2 * window + 1) ** 2
    # x = a1, y = a2 solves x^p y^q = y^q x^p [x,y]^(pq) in the Heisenberg group.
    power_witness = {"X1": 1, "X2": 0, "Xg1": 0, "Y1": 0, "Y2": 1, "Yg1": 0}
    return Workload(
        name="dioph_window",
        invocations=[
            Invocation("odot", ("odot", g32, a, b, "--window", str(window))),
            Invocation("encode_box", ("encode", heis, box_eqs, "--box", str(box))),
            Invocation("encode_powers", ("encode", heis, power_eqs)),
        ],
        items=points + (2 * box + 1) ** BOX_UNKNOWNS,
        presentations=2,
        inputs=[("presentation", g32), ("equations", heis, box_eqs), ("equations", heis, power_eqs)],
        checks={
            "odot": lambda out: _check_odot(out, points, window),
            "encode_box": lambda out: _check_box(out, box, BOX_UNKNOWNS),
            "encode_powers": lambda out: _check_witness(out, power_witness),
        },
    )


def _check_odot(out: str, points: int, window: int) -> str | None:
    lines = out.splitlines()
    expected = f"PASS {points}/{points} window points (window {window})"
    if lines != [expected]:
        return f"odot output is not the single line {expected!r}"
    return None


def _parse_system(out: str) -> tuple[list[str], list[tuple[list[tuple[int, tuple[str, ...]]], int]]]:
    """The emitted ``vars`` line and constraints, parsed independently of tau2."""
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("vars"):
        raise ValueError("system has no vars line")
    variables = lines[0].split()[1:]
    constraints = []
    for line in lines[1:]:
        lhs, rhs = line.split(" = ")
        terms = []
        if lhs != "0":
            for term in lhs.split(" + "):
                coeff, *unknowns = term.split("*")
                terms.append((int(coeff), tuple(unknowns)))
        constraints.append((terms, int(rhs)))
    return variables, constraints


def _satisfies(constraints, assignment: dict[str, int]) -> bool:
    for terms, rhs in constraints:
        total = 0
        for coeff, unknowns in terms:
            for u in unknowns:
                coeff *= assignment[u]
            total += coeff
        if total != rhs:
            return False
    return True


def _check_box(out: str, box: int, unknowns: int) -> str | None:
    try:
        variables, constraints = _parse_system(out)
    except ValueError as exc:
        return f"malformed system: {exc}"
    if len(variables) != unknowns:
        return f"box system has {len(variables)} unknowns, expected {unknowns}"
    solutions = []
    count = None
    for line in out.splitlines():
        if line.startswith("# solution: "):
            solutions.append(dict((kv.split("=")[0], int(kv.split("=")[1])) for kv in line[12:].split()))
        elif line.startswith("# solutions in box"):
            count = int(line.rsplit(":", 1)[1])
    if count != len(solutions) or count == 0:
        return f"solution count line {count} does not match {len(solutions)} listed solutions"
    for sol in solutions:
        if sorted(sol) != sorted(variables) or any(abs(v) > box for v in sol.values()):
            return f"solution {sol} outside the box or not over the system's unknowns"
        if not _satisfies(constraints, sol):
            return f"listed solution {sol} does not satisfy the system"
    return None


def _check_witness(out: str, witness: dict[str, int]) -> str | None:
    try:
        variables, constraints = _parse_system(out)
    except ValueError as exc:
        return f"malformed system: {exc}"
    if not set(variables) <= set(witness) or not constraints:
        return "power system has unexpected unknowns or no constraints"
    if not _satisfies(constraints, witness):
        return "x = a1, y = a2 does not satisfy the encoded power equation"
    return None
