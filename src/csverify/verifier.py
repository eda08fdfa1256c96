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
from .linalg import Matrix, image, kernel
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


class CSInstance:
    """Weight-filtered skeleton of a one-parameter degeneration situation.

    Families are stored sparsely (only nonzero spaces/maps); accessors
    return zero spaces and zero matrices of the right shape elsewhere.
    ``purity_weight`` records the normalization of the coefficient
    object's weight (0 throughout; a nonzero value is a uniform offset
    for reporting).  ``profile`` is "geometric" for instances whose A/B/P
    nodes are meant as actual cohomology of a degeneration, "abstract"
    otherwise.
    """

    __slots__ = ("k_min", "k_max", "A", "B", "C", "P", "N",
                 "col_b", "col_a", "col_c", "row_r", "row_s",
                 "purity_weight", "profile")

    def __init__(self, degree_range: Tuple[int, int],
                 A: Dict[int, FilteredSpace], B: Dict[int, FilteredSpace],
                 C: Dict[int, FilteredSpace], P: Dict[int, FilteredSpace],
                 N: Dict[int, Matrix],
                 col_b: Dict[int, Matrix], col_a: Dict[int, Matrix], col_c: Dict[int, Matrix],
                 row_r: Dict[int, Matrix], row_s: Dict[int, Matrix],
                 purity_weight: int = 0, profile: str = "abstract"):
        self.k_min, self.k_max = degree_range
        if self.k_min > self.k_max:
            raise MalformedInstanceError("empty degree range")
        def live(maps):
            return {k: m for k, m in maps.items() if m.nrows * m.ncols > 0 and not m.is_zero()}

        self.A = {k: v for k, v in A.items() if v.dim > 0}
        self.B = {k: v for k, v in B.items() if v.dim > 0}
        self.C = {k: v for k, v in C.items() if v.dim > 0}
        self.P = {k: v for k, v in P.items() if v.dim > 0}
        self.N = live(N)
        self.col_b = live(col_b)
        self.col_a = live(col_a)
        self.col_c = live(col_c)
        self.row_r = live(row_r)
        self.row_s = live(row_s)
        self.purity_weight = purity_weight
        self.profile = profile
        self._validate()

    def _validate(self):
        for name, family in (("A", self.A), ("B", self.B), ("C", self.C), ("P", self.P)):
            for k in family:
                if k < self.k_min or k > self.k_max:
                    raise MalformedInstanceError(f"{name}_{k} is nonzero outside the degree range")
        shape_specs = [
            ("N", self.N, lambda k: (self.space_p(k).dim, self.space_p(k).dim)),
            ("b", self.col_b, lambda k: (self.space_a(k).dim, self.space_b(k).dim)),
            ("a", self.col_a, lambda k: (self.space_c(k).dim, self.space_a(k).dim)),
            ("c", self.col_c, lambda k: (self.space_b(k + 1).dim, self.space_c(k).dim)),
            ("r", self.row_r, lambda k: (self.space_c(k).dim, self.space_p(k - 1).dim)),
            ("s", self.row_s, lambda k: (self.space_p(k).dim, self.space_c(k).dim)),
        ]
        for name, family, shape in shape_specs:
            for k, m in family.items():
                expected = shape(k)
                if (m.nrows, m.ncols) != expected:
                    raise MalformedInstanceError(
                        f"map {name}_{k} has shape {m.nrows}x{m.ncols}, expected {expected[0]}x{expected[1]}")

    # -- node accessors (zero defaults outside the stored support) --

    def space_a(self, k: int) -> FilteredSpace:
        return self.A.get(k, FilteredSpace.zero())

    def space_b(self, k: int) -> FilteredSpace:
        return self.B.get(k, FilteredSpace.zero())

    def space_c(self, k: int) -> FilteredSpace:
        return self.C.get(k, FilteredSpace.zero())

    def space_p(self, k: int) -> FilteredSpace:
        return self.P.get(k, FilteredSpace.zero())

    def map_n(self, k: int) -> Matrix:
        d = self.space_p(k).dim
        return self.N.get(k, Matrix.zero(d, d))

    def map_b(self, k: int) -> Matrix:
        return self.col_b.get(k, Matrix.zero(self.space_a(k).dim, self.space_b(k).dim))

    def map_a(self, k: int) -> Matrix:
        return self.col_a.get(k, Matrix.zero(self.space_c(k).dim, self.space_a(k).dim))

    def map_c(self, k: int) -> Matrix:
        return self.col_c.get(k, Matrix.zero(self.space_b(k + 1).dim, self.space_c(k).dim))

    def map_r(self, k: int) -> Matrix:
        return self.row_r.get(k, Matrix.zero(self.space_c(k).dim, self.space_p(k - 1).dim))

    def map_s(self, k: int) -> Matrix:
        return self.row_s.get(k, Matrix.zero(self.space_p(k).dim, self.space_c(k).dim))

    # -- derived composite maps --

    def map_a_to_p(self, k: int) -> Matrix:
        """A_k -> P_k, by definition the composite s_k . a_k."""
        return self.map_s(k) @ self.map_a(k)

    def map_ptw_to_b(self, k: int) -> Matrix:
        """P_k(-1) -> B_{k+2}, by definition the composite c_{k+1} . r_{k+1}."""
        return self.map_c(k + 1) @ self.map_r(k + 1)

    def degrees(self, pad: int = 1) -> range:
        return range(self.k_min - pad, self.k_max + pad + 1)

    def node_dims(self) -> Dict[str, Dict[int, int]]:
        return {name: {k: fs.dim for k, fs in family.items()}
                for name, family in (("A", self.A), ("B", self.B), ("C", self.C), ("P", self.P))}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSInstance):
            return NotImplemented
        return ((self.k_min, self.k_max, self.A, self.B, self.C, self.P,
                 self.N, self.col_b, self.col_a, self.col_c, self.row_r, self.row_s,
                 self.purity_weight, self.profile)
                == (other.k_min, other.k_max, other.A, other.B, other.C, other.P,
                    other.N, other.col_b, other.col_a, other.col_c, other.row_r, other.row_s,
                    other.purity_weight, other.profile))

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
        report.column[(k, "A")] = exactness_at(inst.map_b(k), inst.map_a(k))
        report.column[(k, "C")] = exactness_at(inst.map_a(k), inst.map_c(k))
        report.column[(k, "B")] = exactness_at(inst.map_c(k - 1), inst.map_b(k))
        report.row[(k, "C")] = exactness_at(inst.map_r(k), inst.map_s(k))
        report.row[(k, "P")] = exactness_at(inst.map_s(k), inst.map_n(k))
        report.row[(k, "P(-1)")] = exactness_at(inst.map_n(k), inst.map_r(k + 1))
    for k in range(inst.k_min, inst.k_max + 1):
        report.bounds_a[k] = weights_leq(inst.space_a(k), k)
        report.bounds_b[k] = weights_geq(inst.space_b(k), k)
        pk = inst.space_p(k)
        report.centering_p[k] = centered_filtration(inst.map_n(k), k) == pk
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
    return (
        ("b", inst.map_b(k), inst.space_b(k), inst.space_a(k)),
        ("a", inst.map_a(k), inst.space_a(k), inst.space_c(k)),
        ("c", inst.map_c(k), inst.space_c(k), inst.space_b(k + 1)),
        ("r", inst.map_r(k), tate_twist(inst.space_p(k - 1), -1), inst.space_c(k)),
        ("s", inst.map_s(k), inst.space_c(k), inst.space_p(k)),
        ("N", inst.map_n(k), inst.space_p(k), tate_twist(inst.space_p(k), -1)),
    )


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
        return exactness_at(inst.map_a_to_p(k), inst.map_n(k))
    if which == "P2":
        return exactness_at(inst.map_n(k), inst.map_ptw_to_b(k))
    if which == "P3":
        return exactness_at(inst.map_ptw_to_b(k), inst.map_b(k + 2))
    if which == "P4":
        return exactness_at(inst.map_b(k), inst.map_a_to_p(k))
    raise ValueError(f"unknown proposition id {which!r}")


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
    verdict = conclusion_exactness(inst, which, k)
    return VerdictReport(which, k, verdict.exact, witness=verdict.witness,
                         weights_used=_weights_used(which, k))


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
    out = []
    for k in inst.degrees(pad=2):
        for which in ("P1", "P2", "P3", "P4"):
            verdict = conclusion_exactness(inst, which, k)
            out.append(VerdictReport(proposition_prefix + which, k, verdict.exact,
                                     witness=verdict.witness, weights_used=_weights_used(which, k)))
    return out


def verify_invariant_cycles(inst: CSInstance, k: int,
                            report: Optional[HypothesisReport] = None) -> VerdictReport:
    """Exactness of B_k -> A_k -> ker(N_k) -> 0 at degree k.

    Monodromy invariants are computed as ker N.  The check is exactness
    at A_k plus surjectivity of A_k onto ker N_k; the B-node degree is
    the one appearing in the spliced long exact sequence.
    """
    _check_degree(inst, k)
    _gate(inst, report)
    at_a = conclusion_exactness(inst, "P4", k)
    if not at_a.exact:
        return VerdictReport("THM2", k, False, witness=at_a.witness, weights_used=_weights_used("P4", k))
    a_to_p = inst.map_a_to_p(k)
    im = image(a_to_p)
    ker_n = kernel(inst.map_n(k))
    if im != ker_n:
        witness = next((row for row in ker_n.basis.rows if not im.contains_vector(row)), None)
        if witness is None:
            witness = next(row for row in im.basis.rows if not ker_n.contains_vector(row))
        return VerdictReport("THM2", k, False, witness=witness, weights_used=_weights_used("P1", k))
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
