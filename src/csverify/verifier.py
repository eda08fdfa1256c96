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
enters, and at which degree offset.  Map shapes, their validation, the
strictness checks, serialization and the generators' conjugation all
read it.

The verdict engines check the four exactness conclusions these
hypotheses force:

  P1  A_k -> P_k -> P_k(-1)        (local invariant cycles)
  P2  P_k -> P_k(-1) -> B_{k+2}
  P3  P_k(-1) -> B_{k+2} -> A_{k+2}
  P4  B_k -> A_k -> P_k

their splice into one long exact sequence per parity class, the
monodromy-invariants sequence B_k -> A_k -> ker(N_k) -> 0, and the
unipotent geometric form of the spliced sequence.  The maps A_k -> P_k
and P_k(-1) -> B_{k+2} are not stored: they are the composites s.a and
c.r through C by definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .filtration import (
    ExactnessVerdict,
    FilteredMap,
    FilteredSpace,
    StrictnessVerdict,
    WeightCompatibilityError,
    exactness_at,
    strictness,
    tate_twist,
    weights_geq,
    weights_leq,
)
from .linalg import Matrix, kernel  # noqa: F401  (bench/tests patch and check verifier.kernel)
from .monodromy import centered_filtration


class MalformedInstanceError(ValueError):
    """Structural defect (dimension mismatch, data outside the degree range)."""


class HypothesesNotSatisfiedError(RuntimeError):
    """A verdict engine was invoked on an instance with a dirty hypothesis report."""


class DegreeRangeError(ValueError):
    """Requested degree lies outside the instance's meaningful window."""


class ProfileError(ValueError):
    """The instance is not flagged with the required cohomology profile."""


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


class CSInstance:
    """Weight-filtered skeleton of a one-parameter degeneration situation.

    ``spaces`` maps a node of NODES to its family {k: FilteredSpace} and
    ``maps`` an arrow label of ARROWS to its family {k: Matrix}; a missing
    key is an all-zero family.  Families are stored sparsely (only nonzero
    spaces/maps); ``space`` and ``map`` return zero spaces and zero
    matrices of the right shape elsewhere.  ``purity_weight`` records the
    normalization of the coefficient object's weight (0 throughout; a
    nonzero value is a uniform offset for reporting).  ``profile`` is
    "geometric" for instances whose A/B/P nodes are meant as actual
    cohomology of a degeneration, "abstract" otherwise.
    """

    __slots__ = ("k_min", "k_max", "A", "B", "C", "P", "maps", "purity_weight", "profile")

    def __init__(self, degree_range: Tuple[int, int],
                 spaces: Dict[str, Dict[int, FilteredSpace]],
                 maps: Dict[str, Dict[int, Matrix]],
                 purity_weight: int = 0, profile: str = "abstract"):
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
        self.purity_weight = purity_weight
        self.profile = profile

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
        return getattr(self, node).get(k, FilteredSpace.zero())

    def shape(self, label: str, k: int) -> Tuple[int, int]:
        """(rows, columns) of the map label_k: the dimensions of its target and source."""
        source, ds, target, dt = ARROWS[label]
        return self.space(target, k + dt).dim, self.space(source, k + ds).dim

    def map(self, label: str, k: int) -> Matrix:
        """The map label_k; the zero matrix of its shape outside the stored support."""
        m = self.maps[label].get(k)
        return Matrix.zero(*self.shape(label, k)) if m is None else m

    # -- derived composite maps --

    def map_a_to_p(self, k: int) -> Matrix:
        """A_k -> P_k, by definition the composite s_k . a_k."""
        return self.map("s", k) @ self.map("a", k)

    def map_ptw_to_b(self, k: int) -> Matrix:
        """P_k(-1) -> B_{k+2}, by definition the composite c_{k+1} . r_{k+1}."""
        return self.map("c", k + 1) @ self.map("r", k + 1)

    def degrees(self, pad: int = 1) -> range:
        return range(self.k_min - pad, self.k_max + pad + 1)

    def node_dims(self) -> Dict[str, Dict[int, int]]:
        return {node: {k: fs.dim for k, fs in getattr(self, node).items()} for node in NODES}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSInstance):
            return NotImplemented
        return all(getattr(self, attr) == getattr(other, attr) for attr in self.__slots__)

    def __repr__(self) -> str:
        return f"CSInstance(degrees {self.k_min}..{self.k_max}, dims {self.node_dims()})"


@dataclass
class HypothesisReport:
    """Per-degree verdicts for the hypotheses of a CSInstance.

    ``column`` and ``row`` are keyed by (degree, node label); bounds by
    degree; strictness by (map label, degree).  The report is clean iff
    every verdict passes.
    """

    column: Dict[Tuple[int, str], ExactnessVerdict] = field(default_factory=dict)
    row: Dict[Tuple[int, str], ExactnessVerdict] = field(default_factory=dict)
    bounds_a: Dict[int, bool] = field(default_factory=dict)
    bounds_b: Dict[int, bool] = field(default_factory=dict)
    centering_p: Dict[int, bool] = field(default_factory=dict)
    strictness: Dict[Tuple[str, int], StrictnessVerdict] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.failures()

    def failures(self) -> List[Tuple[str, object]]:
        out = []
        out += [("column_exact", key) for key, v in sorted(self.column.items()) if not v.exact]
        out += [("row_exact", key) for key, v in sorted(self.row.items()) if not v.exact]
        out += [("A_bound", k) for k, ok in sorted(self.bounds_a.items()) if not ok]
        out += [("B_bound", k) for k, ok in sorted(self.bounds_b.items()) if not ok]
        out += [("P_centering", k) for k, ok in sorted(self.centering_p.items()) if not ok]
        out += [("strictness", key) for key, v in sorted(self.strictness.items()) if not v.strict]
        return out

    def failed_categories(self) -> Tuple[str, ...]:
        return tuple(sorted({cat for cat, _ in self.failures()}))


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one exactness conclusion on a clean instance."""

    proposition: str
    degree: int
    exact: bool
    witness: Optional[tuple] = None
    weights_used: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.exact and self.witness is not None:
            raise ValueError("witness present on an exact verdict")


def check_instance_hypotheses(inst: CSInstance) -> HypothesisReport:
    """Exactness of both sequences, the weight bounds, and strictness.

    Structural defects raise MalformedInstanceError (at instance
    construction); everything here is reported as a verdict instead.
    """
    report = HypothesisReport()
    for k in inst.degrees():
        b, a, c, r, s, n = (inst.map(label, k) for label in ("b", "a", "c", "r", "s", "N"))
        report.column[(k, "A")] = exactness_at(b, a)
        report.column[(k, "C")] = exactness_at(a, c)
        report.column[(k, "B")] = exactness_at(inst.map("c", k - 1), b)
        report.row[(k, "C")] = exactness_at(r, s)
        report.row[(k, "P")] = exactness_at(s, n)
        report.row[(k, "P(-1)")] = exactness_at(n, inst.map("r", k + 1))
    for k in range(inst.k_min, inst.k_max + 1):
        report.bounds_a[k] = weights_leq(inst.space("A", k), k)
        report.bounds_b[k] = weights_geq(inst.space("B", k), k)
        report.centering_p[k] = centered_filtration(inst.map("N", k), k) == inst.space("P", k)
    for k in inst.degrees():
        for label, mat, src, tgt in _instance_maps(inst, k):
            if mat.nrows == 0 or mat.ncols == 0:
                continue
            try:
                fm = FilteredMap(src, tgt, mat)
            except WeightCompatibilityError:
                report.strictness[(label, k)] = StrictnessVerdict(False, reason="not weight-compatible")
                continue
            report.strictness[(label, k)] = strictness(fm)
    return report


def _instance_maps(inst: CSInstance, k: int):
    """(label, matrix, source, target) of every arrow at degree k, twists applied."""
    for label, (source, ds, target, dt) in ARROWS.items():
        src, tgt = inst.space(source, k + ds), inst.space(target, k + dt)
        if label == "r":
            src = tate_twist(src, -1)
        elif label == "N":
            tgt = tate_twist(tgt, -1)
        yield label, inst.map(label, k), src, tgt


_PROPOSITION_BOUNDS = {
    "P1": ("P_centering@{k}", "B_bound@{k1}"),
    "P2": ("P_centering@{k}", "A_bound@{k1}"),
    "P3": ("B_bound@{k2}", "P_centering@{k1}"),
    "P4": ("A_bound@{k}", "P_centering@{km1}"),
}


def _weights_used(which: str, k: int) -> Tuple[str, ...]:
    return tuple(t.format(k=k, k1=k + 1, k2=k + 2, km1=k - 1) for t in _PROPOSITION_BOUNDS[which])


def conclusion_exactness(inst: CSInstance, which: str, k: int) -> ExactnessVerdict:
    """Raw image-equals-kernel test for one conclusion, with no gating.

    Exposed so hypothesis-necessity experiments can evaluate conclusions
    on instances that deliberately violate a hypothesis; ordinary
    verification should go through verify_proposition.
    """
    if which == "P1":
        return exactness_at(inst.map_a_to_p(k), inst.map("N", k))
    if which == "P2":
        return exactness_at(inst.map("N", k), inst.map_ptw_to_b(k))
    if which == "P3":
        return exactness_at(inst.map_ptw_to_b(k), inst.map("b", k + 2))
    if which == "P4":
        return exactness_at(inst.map("b", k), inst.map_a_to_p(k))
    raise ValueError(f"unknown proposition id {which!r}")


def _verdict_report(inst: CSInstance, which: str, k: int, label: str) -> VerdictReport:
    """The conclusion ``which`` at degree k, reported under ``label``."""
    verdict = conclusion_exactness(inst, which, k)
    return VerdictReport(label, k, verdict.exact, witness=verdict.witness, weights_used=_weights_used(which, k))


def _gate(inst: CSInstance, report: Optional[HypothesisReport]) -> HypothesisReport:
    if report is None:
        report = check_instance_hypotheses(inst)
    if not report.clean:
        raise HypothesesNotSatisfiedError(
            "hypotheses not satisfied: " + ", ".join(f"{c}@{key}" for c, key in report.failures()[:4]))
    return report


def _check_degree(inst: CSInstance, k: int):
    if k < inst.k_min - 2 or k > inst.k_max + 2:
        raise DegreeRangeError(f"degree {k} outside [{inst.k_min - 2}, {inst.k_max + 2}]")


def verify_proposition(inst: CSInstance, which: str, k: int,
                       report: Optional[HypothesisReport] = None) -> VerdictReport:
    """Verdict for one three-term conclusion at degree k.

    Refuses to report on a dirty instance: hypotheses are checked first
    (or a precomputed clean report is passed in) and a failure raises
    HypothesesNotSatisfiedError.
    """
    _check_degree(inst, k)
    _gate(inst, report)
    return _verdict_report(inst, which, k, which)


def assemble_and_verify_les(inst: CSInstance,
                            report: Optional[HypothesisReport] = None,
                            proposition_prefix: str = "") -> List[VerdictReport]:
    """Splice the row and column into the long exact sequence and verify it.

    For each degree the spliced sequence passes through A_k, P_k,
    P_k(-1) and B_{k+2}; exactness at those nodes is precisely P4, P1,
    P2 and P3, so this is their conjunction over all degrees, boundary
    nodes included.
    """
    _gate(inst, report)
    return [_verdict_report(inst, which, k, proposition_prefix + which)
            for k in inst.degrees(pad=2) for which in ("P1", "P2", "P3", "P4")]


def verify_invariant_cycles(inst: CSInstance, k: int,
                            report: Optional[HypothesisReport] = None) -> VerdictReport:
    """Exactness of B_k -> A_k -> ker(N_k) -> 0 at degree k.

    Monodromy invariants are computed as ker N.  The check is P4
    (exactness at A_k), then P1: row exactness at P_k puts im(s.a) inside
    ker N_k, so A_k maps onto ker N_k iff P1 holds.  The B-node degree is
    the one appearing in the spliced long exact sequence.
    """
    _check_degree(inst, k)
    _gate(inst, report)
    for which in ("P4", "P1"):
        verdict = _verdict_report(inst, which, k, "THM2")
        if not verdict.exact:
            return verdict
    used = tuple(sorted(set(_weights_used("P4", k)) | set(_weights_used("P1", k))))
    return VerdictReport("THM2", k, True, weights_used=used)


def verify_unipotent_cs(inst: CSInstance,
                        report: Optional[HypothesisReport] = None) -> List[VerdictReport]:
    """Spliced-sequence verification for geometric-cohomology instances.

    Identical computation to assemble_and_verify_les; the separate entry
    point exists so reports on degeneration fixtures are labelled as the
    unipotent geometric statement.  Requires profile "geometric".
    """
    if inst.profile != "geometric":
        raise ProfileError("instance is not flagged as geometric-cohomology profile")
    return assemble_and_verify_les(inst, report=report, proposition_prefix="THM3:")
