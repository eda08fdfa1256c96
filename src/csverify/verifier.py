"""Data model and verdict engines for Clemens-Schmid-type situations.

A CSInstance packages four indexed families of filtered spaces with two
interlocking long exact sequences:

  column (per degree k):   ... -> B_k -b-> A_k -a-> C_k -c-> B_{k+1} -> ...
  row    (per degree k):   ... -> P_{k-1}(-1) -r-> C_k -s-> P_k -N-> P_k(-1) -> ...

together with the weight hypotheses that drive everything: A_k has
weights <= k, B_k has weights >= k, and the weight filtration of P_k is
the centered filtration of the nilpotent N_k at k.  The geometric
reading (special fibre cohomology at A, cohomology supported on the
special fibre at B, nearby-cycle/limit cohomology at P) never enters the
computations; only the filtered-linear-algebra skeleton does.

ARROWS is the one table of which node each of the six maps leaves and
enters, and at which degree offset; map shapes, their validation, the
strictness checks, serialization and the generators' conjugation read
it.  COMPOSITES adds the unstored maps s.a and c.r through C, and
SEQUENCES the six exactness hypotheses on the column and the row.

SUMMANDS and ``assemble_row`` are the split construction the generators
and the curve fixtures share: sequences exact by construction, with
``identity_on_shared``/``into_summand`` for maps between named summands.
The constructions do not check themselves: the CLI passes each clean
instance it emits (``generate`` without ``--break``, ``fixture curve``)
through ``checked``, whose InconsistencyError is the one internal error.

Every per-degree pass visits only the degree window of
``CSInstance.degrees``: the degrees within WINDOW_MARGIN of a stored
space.  A hypothesis at k reads spaces at k-1..k+1, and a conclusion at k
has its middle node at k or k+2 (P3's B_{k+2}), so outside the window
every middle space is zero and every verdict is exact with no witness;
``CSInstance.trivial_degrees`` names those degrees as closed intervals.
Inside the window a verdict whose middle space is zero is still
reported, exact, but no map is built for it, and only arrows with two
nonzero ends get a strictness verdict.

The verdict engines check the four exactness conclusions these
hypotheses force, one row of CONCLUSIONS each:

  P1  A_k -> P_k -> P_k(-1)        (local invariant cycles)
  P2  P_k -> P_k(-1) -> B_{k+2}
  P3  P_k(-1) -> B_{k+2} -> A_{k+2}
  P4  B_k -> A_k -> P_k

their splice into one long exact sequence per parity class, the
monodromy-invariants sequence B_k -> A_k -> ker(N_k) -> 0, and the
unipotent geometric form of the spliced sequence.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .filtration import (
    ExactnessVerdict,
    FilteredMap,
    FilteredSpace,
    StrictnessVerdict,
    WeightCompatibilityError,
    direct_sum,
    exactness_at,
    induced_on_quotient,
    induced_on_subspace,
    strictness,
    tate_twist,
    weights_geq,
    weights_leq,
)
from .linalg import Matrix, image, kernel, quotient_map, transpose
from .monodromy import centered_axioms


class MalformedInstanceError(ValueError):
    """Structural defect (dimension mismatch, data outside the degree range)."""


class HypothesesNotSatisfiedError(RuntimeError):
    """A verdict engine was invoked on an instance with a dirty hypothesis report."""


class DegreeRangeError(ValueError):
    """Requested degree lies outside the instance's meaningful window."""


class ProfileError(ValueError):
    """The instance is not flagged with the required cohomology profile."""


class InconsistencyError(RuntimeError):
    """A construction disagrees with its own check: a bug, never the input's fault."""


# a verdict at degree k reads nodes at degrees k-1 .. k+2 only
WINDOW_MARGIN = 2

_ZERO = FilteredSpace.zero()

BREAKABLE_HYPOTHESES = ("column_exact", "row_exact", "A_bound", "B_bound", "P_centering", "strictness")


NODES = ("A", "B", "C", "P")

# label -> (source node, degree offset, target node, degree offset): the map
# label_k leaves source_{k + offset} and enters target_{k + offset}.  Two ends
# carry a Tate twist, which changes no shape: r leaves P_{k-1}(-1) and N
# lands in P_k(-1).
ARROWS = {
    "b": ("B", 0, "A", 0),
    "a": ("A", 0, "C", 0),
    "c": ("C", 0, "B", 1),
    "r": ("P", -1, "C", 0),
    "s": ("C", 0, "P", 0),
    "N": ("P", 0, "P", 0),
}

# label -> (f, g): the composite label_k = f_k . g_k through C_k.  sa_k
# leaves A_k and enters P_k; cr_k leaves P_{k-1}(-1) and enters B_{k+1}.
COMPOSITES = {"sa": ("s", "a"), "cr": ("c", "r")}

# category -> {node: ((f, df), (g, dg))}: at degree k the sequence is exact at
# node when -f_{k+df}-> node -g_{k+dg}-> is.
SEQUENCES = {
    "column_exact": {"A": (("b", 0), ("a", 0)), "C": (("a", 0), ("c", 0)), "B": (("c", -1), ("b", 0))},
    "row_exact": {"C": (("r", 0), ("s", 0)), "P": (("s", 0), ("N", 0)), "P(-1)": (("N", 0), ("r", 1))},
}

# conclusion -> ((f, df), (g, dg), ((hypothesis, d), ...)): at degree k the
# conclusion is exactness of -f_{k+df}-> . -g_{k+dg}-> at the middle node, and
# the weight hypotheses its proof uses hold at degrees k + d.
CONCLUSIONS = {
    "P1": (("sa", 0), ("N", 0), (("P_centering", 0), ("B_bound", 1))),
    "P2": (("N", 0), ("cr", 1), (("P_centering", 0), ("A_bound", 1))),
    "P3": (("cr", 1), ("b", 2), (("B_bound", 2), ("P_centering", 1))),
    "P4": (("b", 0), ("sa", 0), (("A_bound", 0), ("P_centering", -1))),
}


# node -> its summands in direct-sum order, each (part, offset).  At degree
# k the summand named (part, j), j = k + offset, is ker(N_j) for "ker",
# coker(N_j)(-1) for "coker" and the pure weight-j filler for "F".
SUMMANDS = {
    "A": (("ker", 0), ("F", 0)),
    "B": (("coker", -2), ("F", 0)),
    "C": (("coker", -1), ("ker", 0)),
}


def node_summands(node: str, k: int, parts: dict) -> dict:
    """{name: space} over the summands of node at degree k, in direct-sum order; parts holds every space by name."""
    return {(part, k + d): parts[(part, k + d)] for part, d in SUMMANDS[node]}


def _coordinates(summands: dict) -> list:
    """The coordinates of the direct sum, in order, each as (summand name, index in the summand)."""
    return [(name, i) for name, fs in summands.items() for i in range(fs.dim)]


def identity_on_shared(source: dict, target: dict) -> Matrix:
    """The map between direct sums that is the identity between equally named summands, zero elsewhere."""
    cols = _coordinates(source)
    rows = tuple((tuple(int(c == r) for c in cols), 1) for r in _coordinates(target))
    return Matrix.of(rows, len(cols))


def into_summand(summands: dict, name: Tuple[str, int], m: Matrix) -> Matrix:
    """m, a map into the summand called name, as a map into the whole direct sum."""
    zero = ((0,) * m.ncols, 1)
    rows = tuple(m.irows[i] if key == name else zero for key, i in _coordinates(summands))
    return Matrix.of(rows, m.ncols)


def assemble_row(p_family: Dict[int, FilteredSpace], n_family: Dict[int, Matrix],
                 degrees) -> Tuple[dict, Dict[int, FilteredSpace], Dict[int, Matrix], Dict[int, Matrix]]:
    """Build C_k = coker(N_{k-1}) (+) ker(N_k) with its canonical row maps.

    ``degrees`` is a range; the kernels and cokernels cover all of it, and
    C, r and s every degree after the first.  Returns (the parts "ker" and
    "coker" by name, as in SUMMANDS, C family, r family, s family); the
    row long exact sequence holds by construction.
    """
    parts, ker_basis, coker_map = {}, {}, {}
    for k in degrees:
        p = p_family.get(k, FilteredSpace.zero())
        n = n_family.get(k, Matrix.zero(p.dim, p.dim))
        ker = kernel(n)
        ker_basis[k] = ker.basis
        coker_map[k] = quotient_map(image(n))
        parts[("ker", k)] = induced_on_subspace(p, ker)
        parts[("coker", k)] = induced_on_quotient(tate_twist(p, -1), coker_map[k])
    c_family, r_family, s_family = {}, {}, {}
    for k in degrees[1:]:
        summands = node_summands("C", k, parts)
        c_family[k] = direct_sum(*summands.values())
        r_family[k] = into_summand(summands, ("coker", k - 1), coker_map[k - 1])
        s_family[k] = transpose(into_summand(summands, ("ker", k), ker_basis[k]))
    return parts, c_family, r_family, s_family


class CSInstance:
    """Weight-filtered skeleton of a one-parameter degeneration situation.

    ``spaces`` maps a node of NODES to its family {k: FilteredSpace} and
    ``maps`` an arrow label of ARROWS to its family {k: Matrix}; a missing
    key is an all-zero family.  Families are stored sparsely (only nonzero
    spaces/maps); ``space`` and ``map`` (which also serves COMPOSITES) return
    zero spaces and matrices of the right shape elsewhere.  The coefficient
    object is pure of weight 0 throughout.  ``profile`` is
    "geometric" for instances whose A/B/P nodes are meant as actual
    cohomology of a degeneration, "abstract" otherwise.
    """

    _FIELDS = ("k_min", "k_max", "A", "B", "C", "P", "maps", "profile")
    __slots__ = _FIELDS + ("_products",)

    def __init__(self, degree_range: Tuple[int, int],
                 spaces: Dict[str, Dict[int, FilteredSpace]],
                 maps: Dict[str, Dict[int, Matrix]], profile: str = "abstract"):
        self.k_min, self.k_max = degree_range
        if self.k_min > self.k_max:
            raise MalformedInstanceError("empty degree range")
        unknown = sorted(set(spaces) - set(NODES)) + sorted(set(maps) - set(ARROWS))
        if unknown:
            raise MalformedInstanceError(f"unknown node or arrow {unknown[0]!r}")
        for node in NODES:
            setattr(self, node, {k: v for k, v in spaces.get(node, {}).items() if v.dim > 0})
        self._validate(maps)
        self.maps = {label: {k: m for k, m in maps.get(label, {}).items() if not m.is_zero()}
                     for label in ARROWS}
        self.profile = profile
        self._products: Dict[Tuple[str, int], Matrix] = {}

    def _validate(self, maps):
        """Stored spaces lie in the degree range; every given map, zero or not, has its arrow's shape."""
        for node in NODES:
            for k in getattr(self, node):
                if k < self.k_min or k > self.k_max:
                    raise MalformedInstanceError(f"{node}_{k} is nonzero outside the degree range")
        for label, family in maps.items():
            for k, m in family.items():
                expected = self.shape(label, k)
                if (m.nrows, m.ncols) != expected:
                    raise MalformedInstanceError(
                        f"map {label}_{k} has shape {m.nrows}x{m.ncols}, expected {expected[0]}x{expected[1]}")

    def space(self, node: str, k: int) -> FilteredSpace:
        """Node ``node`` at degree k; the zero space outside the stored support."""
        return getattr(self, node).get(k, _ZERO)

    def shape(self, label: str, k: int) -> Tuple[int, int]:
        """(rows, columns) of the map label_k: the dimensions of its target and source."""
        source, ds, target, dt = ARROWS[label]
        return self.space(target, k + dt).dim, self.space(source, k + ds).dim

    def map(self, label: str, k: int) -> Matrix:
        """The map label_k, stored or composite; a zero matrix of its shape where a factor is unstored.

        A product is built once, into ``_products``, which equality and JSON never read.
        """
        if label not in COMPOSITES:
            m = self.maps[label].get(k)
            return Matrix.zero(*self.shape(label, k)) if m is None else m
        product = self._products.get((label, k))
        if product is None:
            f, g = COMPOSITES[label]
            if k not in self.maps[f] or k not in self.maps[g]:
                return Matrix.zero(self.shape(f, k)[0], self.shape(g, k)[1])
            product = self._products[(label, k)] = self.maps[f][k] @ self.maps[g][k]
        return product

    def degrees(self, pad: int = 1) -> List[int]:
        """The degree window: the degrees of [k_min - pad, k_max + pad] within WINDOW_MARGIN of a stored space.

        Ascending; its size depends on the stored data, not on the declared range.
        """
        lo, hi = self.k_min - pad, self.k_max + pad
        stored = set().union(*(getattr(self, node) for node in NODES))
        return sorted({j for k in stored
                       for j in range(max(lo, k - WINDOW_MARGIN), min(hi, k + WINDOW_MARGIN) + 1)})

    def trivial_degrees(self) -> List[Tuple[int, int]]:
        """The degrees of [k_min - 2, k_max + 2] outside ``degrees(pad=2)``, as ascending closed intervals (a, b)."""
        intervals, start = [], self.k_min - 2
        for k in self.degrees(pad=2) + [self.k_max + 3]:
            if k > start:
                intervals.append((start, k - 1))
            start = k + 1
        return intervals

    def node_dims(self) -> Dict[str, Dict[int, int]]:
        return {node: {k: fs.dim for k, fs in getattr(self, node).items()} for node in NODES}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSInstance):
            return NotImplemented
        return all(getattr(self, attr) == getattr(other, attr) for attr in self._FIELDS)

    def __repr__(self) -> str:
        return f"CSInstance(degrees {self.k_min}..{self.k_max}, dims {self.node_dims()})"


class HypothesisReport:
    """Per-degree verdicts for the hypotheses of a CSInstance.

    ``verdicts``, its one field and read-only, maps each category of
    BREAKABLE_HYPOTHESES to its verdicts: exactness keyed by (degree,
    node), bounds and centering by degree (a bool each), strictness by
    (map label, degree).  A verdict passes iff it is true, and the report
    is clean iff every verdict passes; the failures are listed once, here.
    """

    __slots__ = ("_verdicts", "_failures")

    def __init__(self, verdicts: Dict[str, dict]):
        self._verdicts = verdicts
        self._failures = tuple((category, key) for category in BREAKABLE_HYPOTHESES
                               for key in sorted(key for key, verdict in verdicts[category].items() if not verdict))

    @property
    def verdicts(self) -> Dict[str, dict]:
        return self._verdicts

    @property
    def clean(self) -> bool:
        return not self._failures

    def failures(self) -> List[Tuple[str, object]]:
        return list(self._failures)


class VerdictReport(NamedTuple):
    """Outcome of one exactness conclusion on a clean instance; a witness only when not exact."""

    proposition: str
    degree: int
    exact: bool
    witness: Optional[tuple] = None
    weights_used: Tuple[str, ...] = ()


def check_instance_hypotheses(inst: CSInstance) -> HypothesisReport:
    """Exactness of both sequences, the weight bounds, and strictness.

    Structural defects raise MalformedInstanceError (at instance
    construction); everything here is reported as a verdict instead, a
    non-nilpotent N_k as a failed P_centering verdict.  Only the degree
    window is visited; the verdicts outside it all pass.  A passing verdict
    is a count or a zero test; P_centering is ``centered_axioms``, which by
    uniqueness needs no centered filtration built.
    """
    verdicts = {category: {} for category in BREAKABLE_HYPOTHESES}
    for k in inst.degrees():
        for category, nodes in SEQUENCES.items():
            for node, arrows in nodes.items():
                verdicts[category][(k, node)] = _exactness(inst, k, *arrows)
        if inst.k_min <= k <= inst.k_max:
            verdicts["A_bound"][k] = weights_leq(inst.space("A", k), k)
            verdicts["B_bound"][k] = weights_geq(inst.space("B", k), k)
            verdicts["P_centering"][k] = centered_axioms(inst.space("P", k), k, inst.map("N", k)).ok
        for label, mat, src, tgt in _instance_maps(inst, k):
            try:
                verdict = strictness(FilteredMap(src, tgt, mat))
            except WeightCompatibilityError:
                verdict = StrictnessVerdict(False, reason="not weight-compatible")
            verdicts["strictness"][(label, k)] = verdict
    return HypothesisReport(verdicts)


def checked(inst: CSInstance) -> CSInstance:
    """inst, once its own hypothesis report is clean; else InconsistencyError names the first failing verdict."""
    failures = check_instance_hypotheses(inst).failures()
    if failures:
        category, key = failures[0]
        raise InconsistencyError(f"a built instance fails its own check: {category} at {key}")
    return inst


def _exactness(inst: CSInstance, k: int, f: Tuple[str, int], g: Tuple[str, int]) -> ExactnessVerdict:
    """Exactness at degree k of -f-> . -g->, each arrow a (label, degree offset) pair; exact, with
    no map built, where the middle node is zero: f's target, for a composite its outer factor's."""
    label, d = f
    _, _, node, dt = ARROWS[COMPOSITES[label][0] if label in COMPOSITES else label]
    if k + d + dt not in getattr(inst, node):
        return ExactnessVerdict(True)
    return exactness_at(inst.map(label, k + d), inst.map(g[0], k + g[1]))


def _instance_maps(inst: CSInstance, k: int):
    """(label, matrix, source, target) of every arrow at degree k with two nonzero ends, twists applied."""
    for label, (source, ds, target, dt) in ARROWS.items():
        src, tgt = inst.space(source, k + ds), inst.space(target, k + dt)
        if not src.dim or not tgt.dim:
            continue
        if label == "r":
            src = tate_twist(src, -1)
        elif label == "N":
            tgt = tate_twist(tgt, -1)
        yield label, inst.map(label, k), src, tgt


def _weights_used(which: str, k: int) -> Tuple[str, ...]:
    return tuple(f"{hyp}@{k + d}" for hyp, d in CONCLUSIONS[which][2])


def conclusion_exactness(inst: CSInstance, which: str, k: int) -> ExactnessVerdict:
    """Raw image-equals-kernel test for one conclusion, with no gating.

    Exposed so hypothesis-necessity experiments can evaluate conclusions
    on instances that deliberately violate a hypothesis; ordinary
    verification should go through verify_proposition.
    """
    if which not in CONCLUSIONS:
        raise ValueError(f"unknown proposition id {which!r}")
    f, g, _ = CONCLUSIONS[which]
    return _exactness(inst, k, f, g)


def _verdict_report(inst: CSInstance, which: str, k: int, label: str) -> VerdictReport:
    """The conclusion ``which`` at degree k, reported under ``label``."""
    verdict = conclusion_exactness(inst, which, k)
    return VerdictReport(label, k, verdict.exact, witness=verdict.witness, weights_used=_weights_used(which, k))


def _gate(report: HypothesisReport):
    if not report.clean:
        raise HypothesesNotSatisfiedError(
            "hypotheses not satisfied: " + ", ".join(f"{c}@{key}" for c, key in report.failures()[:4]))


def _check_degree(inst: CSInstance, k: int):
    if k < inst.k_min - 2 or k > inst.k_max + 2:
        raise DegreeRangeError(f"degree {k} outside [{inst.k_min - 2}, {inst.k_max + 2}]")


def verify_proposition(inst: CSInstance, which: str, k: int, report: HypothesisReport) -> VerdictReport:
    """Verdict for one three-term conclusion at degree k.

    Refuses to report on a dirty instance: ``report``, the instance's
    hypothesis report, must be clean, else HypothesesNotSatisfiedError.
    The other three engines take and gate on it the same way.
    """
    _check_degree(inst, k)
    _gate(report)
    return _verdict_report(inst, which, k, which)


def assemble_and_verify_les(inst: CSInstance, report: HypothesisReport,
                            proposition_prefix: str = "") -> List[VerdictReport]:
    """Splice the row and column into the long exact sequence and verify it.

    For each degree the spliced sequence passes through A_k, P_k,
    P_k(-1) and B_{k+2}; exactness at those nodes is precisely P4, P1,
    P2 and P3, so this is their conjunction over all degrees, boundary
    nodes included; the degrees outside the window are exact with no
    witness and get no verdict.
    """
    _gate(report)
    return [_verdict_report(inst, which, k, proposition_prefix + which)
            for k in inst.degrees(pad=2) for which in CONCLUSIONS]


def verify_invariant_cycles(inst: CSInstance, k: int, report: HypothesisReport) -> VerdictReport:
    """Exactness of B_k -> A_k -> ker(N_k) -> 0 at degree k.

    Monodromy invariants are computed as ker N.  The check is P4
    (exactness at A_k), then P1: row exactness at P_k puts im(s.a) inside
    ker N_k, so A_k maps onto ker N_k iff P1 holds.  The B-node degree is
    the one appearing in the spliced long exact sequence.
    """
    _check_degree(inst, k)
    _gate(report)
    for which in ("P4", "P1"):
        verdict = _verdict_report(inst, which, k, "THM2")
        if not verdict.exact:
            return verdict
    used = tuple(sorted(set(_weights_used("P4", k)) | set(_weights_used("P1", k))))
    return VerdictReport("THM2", k, True, weights_used=used)


def verify_unipotent_cs(inst: CSInstance, report: HypothesisReport) -> List[VerdictReport]:
    """Spliced-sequence verification for geometric-cohomology instances.

    Identical computation to assemble_and_verify_les; the separate entry
    point exists so reports on degeneration fixtures are labelled as the
    unipotent geometric statement.  Requires profile "geometric".
    """
    if inst.profile != "geometric":
        raise ProfileError("instance is not flagged as geometric-cohomology profile")
    return assemble_and_verify_les(inst, report=report, proposition_prefix="THM3:")
