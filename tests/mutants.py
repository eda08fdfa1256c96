"""Mutation gate: deliberate one-edit breakages of src/ and the tests that must catch each.

Run from anywhere with ``python3 tests/mutants.py``.  src/, tests/, bench/ and pyproject.toml are
copied to WORKERS temporary directories once, and the named tests must pass there unmutated.  Each
mutant is then applied alone to a copy that no other mutant is using, only its named tests run
(pytest with the copy as its root, so the copy's src/ is the one imported), and the edit is undone;
so at most WORKERS pytest processes run at once, one per copy.  A mutant is killed when those
tests fail (pytest exit 1); a pass, or any other exit (a node id that no longer exists is exit 4),
leaves it surviving, and the gate exits 1.  The lines are printed in the order of MUTANTS.

The file is not collected by tier-1 (its name does not match ``test_*.py``);
``test_mutants.py`` checks that every old text still matches exactly once, so the list cannot
drift from the code.  Add the mutants a change relies on here, with the tests that kill them.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# copies of the tree, and so pytest processes at once: one per CPU of a two-CPU machine
WORKERS = 2


class Mutant(NamedTuple):
    path: str  # relative to src/
    old: str  # exact text, found once in the file
    new: str
    killers: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # the package namespace re-exporting a name the benchmark does not read off it
    Mutant("csverify/__init__.py",
           "from .generators import gen_centered_mhs, split_seed\n\n__all__ = [\n",
           'from .generators import GenProfile, gen_centered_mhs, split_seed\n\n__all__ = [\n    "GenProfile",\n',
           ("tests/test_exports.py::test_the_package_exports_only_what_its_clients_read",)),
    Mutant("csverify/__init__.py",  # the same name imported there but left out of __all__
           "from .generators import gen_centered_mhs, split_seed",
           "from .generators import GenProfile, gen_centered_mhs, split_seed",
           ("tests/test_exports.py::test_the_package_exports_only_what_its_clients_read",)),
    # a check imported into the generator again, and a public function that only the tests call
    Mutant("csverify/generators.py",
           "    assemble_row,\n",
           "    assemble_row,\n    check_instance_hypotheses,\n",
           ("tests/test_exports.py::test_the_generator_imports_no_check",)),
    Mutant("csverify/degenerations.py",
           "def betti(g: DualGraph)",
           "def theta_graph() -> DualGraph:\n    return DualGraph.make(2, [(0, 1)] * 3)\n\n\ndef betti(g: DualGraph)",
           ("tests/test_exports.py::test_every_public_name_has_a_caller",)),
    Mutant("csverify/generators.py",  # a drawn P_k centered one too high
           "return shifted(chain_steps(chains, dim), center),",
           "return shifted(chain_steps(chains, dim), center + 1),",
           ("tests/test_generators.py::test_jordan_pair_matches_reference_weights",
            "tests/test_cli.py::test_generate_bytes_pinned_across_seeds")),
    Mutant("csverify/generators.py",  # the chains of t's columns read tail first
           "chains.append(columns[start:start + s][::-1])",
           "chains.append(columns[start:start + s])",
           ("tests/test_generators.py::test_jordan_pair_matches_reference_weights",)),
    Mutant("csverify/generators.py",  # the P_centering tamper's off-centre P_k drawn centered
           "k + 1 if off else k)",
           "k)",
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[P_centering]",
            "tests/test_cli.py::test_generate_bytes_pinned[--break=P_centering]")),
    Mutant("csverify/filtration.py",  # a summand's pivots left at its own coordinates
           "pivots += [p + before for p in sub.pivots]",
           "pivots += sub.pivots",
           ("tests/test_filtration.py::test_direct_sum_matches_reference",)),
    Mutant("csverify/linalg.py",  # a chain of length m weighted m, m-2, ..., 2-m
           "by_weight.setdefault(m - 1 - 2 * pos, [])",
           "by_weight.setdefault(m - 2 * pos, [])",
           ("tests/test_monodromy.py::test_chain_filtration_matches_the_from_scratch_reference",
            "tests/test_generators.py::test_jordan_pair_matches_reference_weights")),
    Mutant("csverify/linalg.py",  # a quotient row with its pivot entries of the wrong sign
           "v[p] = -x",
           "v[p] = x",
           ("tests/test_linalg_oracle.py::test_quotient_map_matches_the_transposed_basis",
            "tests/test_linalg.py::test_membership_and_quotient_maps")),
    Mutant("csverify/linalg.py",  # the kernel's pivots read at the reversed pivot columns, not the free ones
           "if n - 1 - j not in rev.pivots",
           "if n - 1 - j in rev.pivots",
           ("tests/test_linalg_oracle.py::test_null_space_matches_reference_kernel",)),
    Mutant("csverify/serialize.py",  # "self" counting a loop's vertex twice again
           "for i, j in graph.edges if i != j for v in (i, j)",
           "for i, j in graph.edges for v in (i, j)",
           ("tests/test_serialize.py::test_self_list_is_the_intersection_diagonal_loops_included",
            "tests/test_cli.py::test_fixture_bytes_pinned")),
    # each hypothesis verdict made to pass anything
    Mutant("csverify/verifier.py",
           'verdicts["A_bound"][k] = Verdict(weights_leq(inst.space("A", k), k))',
           'verdicts["A_bound"][k] = Verdict(True)',
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[A_bound]",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_a_bears_load")),
    Mutant("csverify/verifier.py",
           'verdicts["B_bound"][k] = Verdict(weights_geq(inst.space("B", k), k))',
           'verdicts["B_bound"][k] = Verdict(True)',
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[B_bound]",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_hypotheses_bear_load")),
    Mutant("csverify/verifier.py",
           'verdicts["P_centering"][k] = centered',
           'verdicts["P_centering"][k] = Verdict(True) or centered',
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[P_centering]",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_hypotheses_bear_load")),
    Mutant("csverify/filtration.py",  # the strictness count never compared
           "if mapped != im + step.dim - total:",
           "if False:",
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[strictness]",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_hypotheses_bear_load")),
    Mutant("csverify/verifier.py",  # the six exactness hypotheses always exact, the conclusions untouched
           "verdicts[category][(k, node)] = _exactness(inst, k, *arrows)",
           "verdicts[category][(k, node)] = Verdict(True)",
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[column_exact]",
            "tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[row_exact]")),
    Mutant("csverify/verifier.py",  # _exactness always exact, hypotheses and conclusions alike
           "return exactness_at(inst.map(label, k + d), inst.map(g[0], k + g[1]))",
           "return Verdict(True)",
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[column_exact]",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_a_bears_load")),
    # hypothesis verdicts that a non-exact conclusion should have failed, seen by locality
    Mutant("csverify/verifier.py",  # column exactness at B never failing
           "for node, arrows in nodes.items():\n                verdicts[category][(k, node)] = _exactness(",
           'for node, arrows in nodes.items():\n                verdicts[category][(k, node)] = Verdict(True) if node == "B" else _exactness(',
           ("tests/test_verifier.py::test_every_non_exact_conclusion_has_a_failing_dependency",)),
    Mutant("csverify/verifier.py",  # the zero-middle shortcut reading B_{k+d} for B_{k+d+1}
           "if k + d + dt not in inst.spaces[node]:",
           "if k + d not in inst.spaces[node]:",
           ("tests/test_verifier.py::test_every_non_exact_conclusion_has_a_failing_dependency",)),
    # each CONCLUSIONS row with one degree offset moved by one
    Mutant("csverify/verifier.py",
           '"P1": (("sa", 0), ("N", 0), (("P_centering", 0), ("B_bound", 1))),',
           '"P1": (("sa", 0), ("N", 0), (("P_centering", 0), ("B_bound", 2))),',
           ("tests/test_verifier.py::test_conclusions_match_reference_on_clean_and_curve_instances",)),
    Mutant("csverify/verifier.py",
           '"P2": (("N", 0), ("cr", 1), (("P_centering", 0), ("A_bound", 1))),',
           '"P2": (("N", 0), ("cr", 0), (("P_centering", 0), ("A_bound", 1))),',
           ("tests/test_verifier.py::test_conclusions_match_reference_on_clean_and_curve_instances",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_a_bears_load")),
    Mutant("csverify/verifier.py",
           '"P3": (("cr", 1), ("b", 2), (("B_bound", 2), ("P_centering", 1))),',
           '"P3": (("cr", 1), ("b", 2), (("B_bound", 2), ("P_centering", 0))),',
           ("tests/test_verifier.py::test_conclusions_match_reference_on_clean_and_curve_instances",)),
    Mutant("csverify/verifier.py",
           '"P4": (("b", 0), ("sa", 0), (("A_bound", 0), ("P_centering", -1))),',
           '"P4": (("b", -1), ("sa", 0), (("A_bound", 0), ("P_centering", -1))),',
           ("tests/test_verifier.py::test_conclusions_match_reference_on_clean_and_curve_instances",
            "tests/test_verifier.py::test_one_dimensional_witnesses_that_a_bears_load")),
    Mutant("csverify/linalg.py",  # the kernel flag without its step ker f^3
           "    return tuple(flag) if flag[-2].dim < flag[-1].dim else tuple(flag[:-1])",
           "    return tuple(flag[:3] + flag[4:]) if flag[-2].dim < flag[-1].dim else tuple(flag[:3] + flag[4:-1])",
           ("tests/test_monodromy.py::test_kernel_flag_matches_dense_powers",
            "tests/test_monodromy.py::test_jordan_three_recursive")),
    Mutant("csverify/linalg.py",  # a.b^T with its rows left out of lowest terms
           "_lowest([sum(map(mul, x, r)) for r in scaled], dx * den) for x, dx in a.irows), b.nrows)",
           "(tuple([sum(map(mul, x, r)) for r in scaled]), dx * den) for x, dx in a.irows), b.nrows)",
           ("tests/test_linalg.py::test_every_operation_stores_the_canonical_form",
            "tests/test_monodromy.py::test_kernel_flag_matches_dense_powers")),
    Mutant("csverify/linalg.py",  # within(t, s) reading s . t in s's coordinates
           "return null_space(times_transpose(quotient_map(s), t.basis))",
           "return null_space(times_transpose(quotient_map(t), s.basis))",
           ("tests/test_linalg.py::test_within_reads_the_intersection_in_the_basis_of_t",
            "tests/test_linalg.py::test_intersect_planes")),
    Mutant("csverify/monodromy.py",  # the recursion lifting at im_in_k's pivots, not its free coordinates
           "if j not in im_in_k.pivots), dim)",
           "if j in im_in_k.pivots), dim)",
           ("tests/test_monodromy.py::test_jordan_three_recursive",
            "tests/test_monodromy.py::test_recursive_section_independence")),
    # the value types: subspaces equal whatever their bases
    Mutant("csverify/linalg.py",
           "and self.pivots == other.pivots and self.basis == other.basis",
           "and self.pivots == other.pivots",
           ("tests/test_value_types.py::test_subspaces_of_one_span_are_one_key",
            "tests/test_linalg.py::test_canonical_equality_matches_membership_oracle")),
    # the report writers: the grouping rule with its keys swapped, the A and B bounds swapped, a failing
    # exactness verdict without its reason, and a non-exact conclusion without its witness
    Mutant("csverify/serialize.py",
           "out.setdefault(str(outer), {})[str(inner)] = render(verdict)",
           "out.setdefault(str(inner), {})[str(outer)] = render(verdict)",
           ("tests/test_cli.py::test_report_bytes_pinned_across_seeds",)),
    Mutant("csverify/serialize.py",
           '_BOUNDS = (("A", "A_bound"), ("B", "B_bound"),',
           '_BOUNDS = (("A", "B_bound"), ("B", "A_bound"),',
           ("tests/test_cli.py::test_report_bytes_pinned_across_seeds",)),
    Mutant("csverify/serialize.py",
           '{"exact": False, "reason": v.reason, "witness": _witness_json(v.witness)}',
           '{"exact": False, "witness": _witness_json(v.witness)}',
           ("tests/test_cli.py::test_report_bytes_pinned_across_seeds",)),
    Mutant("csverify/serialize.py",
           'out["witness"] = _witness_json(v.witness)',
           "pass",
           ("tests/test_verifier.py::test_non_exact_conclusions_exit_three_with_witnesses",)),
    Mutant("csverify/filtration.py",  # a verdict true as a nonempty tuple
           "        return self.ok\n",
           "        return True\n",
           ("tests/test_value_types.py::test_each_verdict_is_true_iff_it_passes",
            "tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[column_exact]")),
    # sizes read off the data: a subspace's ambient dimension off its basis rows, a shift's space off
    # its lowest step, and the shared zero matrix with no rows built as m copies of a row (m = 0)
    Mutant("csverify/linalg.py",
           "self.ambient_dim, self.basis, self.pivots = basis.ncols, basis, pivots",
           "self.ambient_dim, self.basis, self.pivots = basis.nrows, basis, pivots",
           ("tests/test_linalg.py::test_membership_and_quotient_maps",
            "tests/test_value_types.py::test_subspaces_of_one_span_are_one_key")),
    Mutant("csverify/filtration.py",
           "moved.dim, moved.steps = steps[-1][1].dim if steps else 0,",
           "moved.dim, moved.steps = steps[0][1].dim if steps else 0,",
           ("tests/test_filtration.py::test_shifted_reads_its_space_off_the_top_step",)),
    Mutant("csverify/linalg.py",
           "return Matrix.of((((0,) * n, 1),) * m if m else (), n)",
           "return Matrix.of((((0,) * n, 1),) * m, n)",
           ("tests/test_cli.py::test_declared_dimension_allocates_nothing",)),
    # each new size cap off by one: its comparison, and the count it compares
    Mutant("csverify/generators.py",
           "if max_dim_per_node ** 2 * (width + 1) > MAX_GEN_CELLS:",
           "if max_dim_per_node ** 2 * (width + 1) >= MAX_GEN_CELLS:",
           ("tests/test_generators.py::test_profile_bounds_the_two_sizes_together",
            "tests/test_generators.py::test_profile_accepts_the_dimension_cap")),
    Mutant("csverify/generators.py",
           "max_dim_per_node ** 2 * (width + 1)",
           "max_dim_per_node ** 2 * width",
           ("tests/test_generators.py::test_profile_refusals_keep_their_messages[joint-cap]",
            "tests/test_cli.py::test_generate_size_past_its_cap_is_exit_four")),
    Mutant("csverify/serialize.py",
           "if max(graph.vertices, 2 * b1) > MAX_FIXTURE_DIM:",
           "if max(graph.vertices, 2 * b1) >= MAX_FIXTURE_DIM:",
           ("tests/test_serialize.py::test_graph_cap_at_its_edge",)),
    Mutant("csverify/degenerations.py",
           "return 1, len(g.edges) - g.vertices + 1",
           "return 1, len(g.edges) - g.vertices",
           ("tests/test_serialize.py::test_graph_cap_at_its_edge",
            "tests/test_cli.py::test_fixture_past_its_cap_is_exit_four")),
    # the stored form kept by hand: hstack over dx*dy, not lcm(dx, dy) (in src/ its right factor is
    # always the identity, dy = 1, so only the unit test sees it), and a zero row over 2, not 1
    Mutant("csverify/linalg.py",
           "den = lcm(dx, dy)",
           "den = dx * dy",
           ("tests/test_linalg.py::test_every_operation_stores_the_canonical_form",)),
    Mutant("csverify/verifier.py",
           "zero = ((0,) * m.ncols, 1)",
           "zero = ((0,) * m.ncols, 2)",
           ("tests/test_cli.py::test_pipelines_build_only_the_stored_form",)),
    # passing verdicts as counts: each count, zero test and loop bound cut short
    Mutant("csverify/linalg.py",  # the forward pass stopping one pivot early
           "if len(pivots) == nrows:",
           "if len(pivots) == nrows - 1:",
           ("tests/test_sympy_oracle.py::test_forward_pass_rank_matches_full_rref_and_sympy",
            "tests/test_linalg_oracle.py::test_rref_matches_reference")),
    Mutant("csverify/linalg.py",  # the zero test reading f's numerators without their row denominators
           "cols = list(zip(*_scaled(f.irows)[1]))",
           "cols = list(zip(*[r for r, _ in f.irows]))",
           ("tests/test_linalg_oracle.py::test_product_is_zero_matches_the_built_product",
            "tests/test_filtration.py::test_zero_test_matches_the_built_product_on_generated_pairs")),
    Mutant("csverify/filtration.py",  # exactness passing on the rank count alone
           "(rank_f == 0 or product_is_zero(g, f))",
           "True",
           ("tests/test_filtration.py::test_exactness_matches_brute_force_oracle",)),
    Mutant("csverify/filtration.py",  # f(W_w) never tested against W_w of the target
           "if into.dim < target.dim and not into.contains_rows(mapped):",
           "if False:",
           ("tests/test_filtration.py::test_compatibility_and_strictness_counts_match_built_subspaces",)),
    Mutant("csverify/filtration.py",  # strictness without the target-step rank: dim(im + W_i) read as dim W_i
           "total = step.dim + rank(quotient_map(step) @ f.matrix)",
           "total = step.dim",
           ("tests/test_filtration.py::test_compatibility_and_strictness_counts_match_built_subspaces",
            "tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[strictness]")),
    Mutant("csverify/monodromy.py",  # the graded-iso loop stopping one step short of the spread
           "for i in range(1, spread + 1):",
           "for i in range(1, spread):",
           ("tests/test_monodromy.py::test_p_centering_by_axioms_matches_the_built_filtration",
            "tests/test_monodromy.py::test_axioms_match_the_dense_power_reference")),
    # one verdict type: P_centering stored as a bare truth value, a strictness failure without its
    # weight, and the centered axioms naming the wrong axiom
    Mutant("csverify/verifier.py",
           'centered_axioms(inst.space("P", k), k, inst.map("N", k))',
           'centered_axioms(inst.space("P", k), k, inst.map("N", k)).ok',
           ("tests/test_verifier.py::test_p_centering_failures_keep_their_axiom_and_index",
            "tests/test_verifier.py::test_every_hypothesis_verdict_is_one_type")),
    Mutant("csverify/filtration.py",
           "return Verdict(False, witness=w)",
           "return Verdict(False)",
           ("tests/test_filtration.py::test_weight_dropping_identity_not_strict",
            "tests/test_cli.py::test_report_bytes_pinned_across_seeds")),
    Mutant("csverify/monodromy.py",
           'return Verdict(False, "graded_iso", i)',
           'return Verdict(False, "shift", i)',
           ("tests/test_verifier.py::test_p_centering_failures_keep_their_axiom_and_index",
            "tests/test_monodromy.py::test_axioms_match_the_dense_power_reference")),
    # each ARROWS row and each SEQUENCES entry with one degree offset moved by one
    *(Mutant("csverify/verifier.py", old, new,
             ("tests/test_verifier.py::test_i1_fixture_clean_report",
              f"tests/test_verifier.py::test_one_dimensional_witnesses_that_{witness}"))
      for old, new, witness in (
          ('"b": ("B", 0, "A", 0),', '"b": ("B", 0, "A", 1),', "a_bears_load"),
          ('"a": ("A", 0, "C", 0),', '"a": ("A", 1, "C", 0),', "a_bears_load"),
          ('"c": ("C", 0, "B", 1),', '"c": ("C", 0, "B", 0),', "hypotheses_bear_load"),
          ('"r": ("P", -1, "C", 0),', '"r": ("P", 0, "C", 0),', "hypotheses_bear_load"),
          ('"s": ("C", 0, "P", 0),', '"s": ("C", 0, "P", 1),', "hypotheses_bear_load"),
          ('"N": ("P", 0, "P", 0),', '"N": ("P", 0, "P", 1),', "hypotheses_bear_load"),
          ('"A": (("b", 0), ("a", 0))', '"A": (("b", 1), ("a", 0))', "a_bears_load"),
          ('"C": (("a", 0), ("c", 0))', '"C": (("a", 0), ("c", 1))', "hypotheses_bear_load"),
          ('"B": (("c", -1), ("b", 0))', '"B": (("c", 0), ("b", 0))', "hypotheses_bear_load"),
          ('"C": (("r", 0), ("s", 0))', '"C": (("r", 1), ("s", 0))', "hypotheses_bear_load"),
          ('"P": (("s", 0), ("N", 0))', '"P": (("s", 0), ("N", 1))', "hypotheses_bear_load"),
          ('"P(-1)": (("N", 0), ("r", 1))', '"P(-1)": (("N", 0), ("r", 0))', "hypotheses_bear_load"))),
)


def _pytest(copy: Path, nodes) -> int:
    """pytest's exit status for the given node ids, run in the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                          cwd=copy, env=env, capture_output=True).returncode


def _killed(copy: Path, mutant: Mutant) -> bool:
    target = copy / "src" / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.path}: old text does not match exactly once: {mutant.old!r}")
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        return _pytest(copy, mutant.killers) == 1
    finally:
        target.write_text(original)


def main() -> int:
    if len({(mutant.path, mutant.old) for mutant in MUTANTS}) != len(MUTANTS):
        raise SystemExit("two mutants share a path and old text, and so a test id")
    started = time.monotonic()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        copies = [Path(tmp) / str(i) for i in range(WORKERS)]
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for copy in copies:
            for part in ("src", "tests", "bench"):  # the export guards read bench/ as a client
                shutil.copytree(ROOT / part, copy / part, ignore=ignore)
            shutil.copy(ROOT / "pyproject.toml", copy)
        # a killer that fails on the unmutated code would kill every mutant it is named for
        nodes = sorted({node for mutant in MUTANTS for node in mutant.killers})
        if any(pool.map(_pytest, copies, [nodes[i::WORKERS] for i in range(WORKERS)])):
            raise SystemExit("the named tests do not all pass on the unmutated code")
        free = queue.SimpleQueue()
        for copy in copies:
            free.put(copy)

        def trial(mutant: Mutant) -> Tuple[bool, float]:
            """Whether the mutant is killed, on a copy no other trial holds, and its wall time."""
            copy, begun = free.get(), time.monotonic()
            try:
                return _killed(copy, mutant), time.monotonic() - begun
            finally:
                free.put(copy)

        for mutant, (killed, seconds) in zip(MUTANTS, pool.map(trial, MUTANTS)):
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {seconds:6.1f}s  "
                  f"{mutant.path}: {mutant.old!r} -> {mutant.new!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.monotonic() - started:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
