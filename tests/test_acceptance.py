"""Acceptance gate: one test per criterion of the invariant suite.

Each test runs its criterion at the shipped tolerances, prints one
pass/fail line (visible under ``pytest -s`` or on failure), and asserts
the criterion's verdict.  The criteria share the module-level window
cache in nchodge.selftest, so the whole gate costs about as much as one
``nchodge selftest`` run.
"""

import time

from nchodge.selftest import CRITERIA, run_criterion

_DURATIONS = {}


def _run(number):
    t0 = time.monotonic()
    elapsed = sum(_DURATIONS.values()) if number == 12 else None
    row = run_criterion(number, elapsed=elapsed)
    _DURATIONS[number] = time.monotonic() - t0
    status = "PASS" if row["passed"] else "FAIL"
    print(f"criterion {number:2d} {row['name']}: {status} -- {row['headline']}")
    assert row["passed"], (row["name"], row["headline"], row["details"])
    return row


def test_criterion_01_nc_laplacian_identity():
    """bd + db = 1 - k exactly on all four windows, float shadow < 1e-12."""
    row = _run(1)
    for entry in row["details"]["suite"]:
        assert entry["exact_zero"]
        assert entry["float_residual"] < 1e-12


def test_criterion_02_rotation_polynomial_relations():
    """(k^n - 1)(k^{n+1} - 1) = 0 and the three power identities, exactly."""
    _run(2)


def test_criterion_03_harmonic_projection_dual_route():
    """rank P + rank (1-k)^2 = dim; exact P matches the float eigensolver."""
    row = _run(3)
    for entry in row["details"]["suite"]:
        assert entry["rank_identity"]
        assert entry["crt_vs_eig"] <= 1e-10


def test_criterion_04_green_operator_split():
    """G(bd+db) = 1 - P exactly; the two split pieces are complementary
    idempotents landing inside Im d and Im b."""
    _run(4)


def test_criterion_05_rescaled_laplacian_definiteness():
    """L kills the harmonic space exactly and is bounded below elsewhere."""
    row = _run(5)
    for entry in row["details"]["suite"]:
        ms = entry["min_singular_on_complement"]
        assert ms is None or ms > 1e-8


def test_criterion_06_random_operator_identities():
    """200 seeded random triples per algebra: d^2, b^2, commutations,
    graded commutator boundary, associativity -- all exact."""
    row = _run(6)
    assert all(not e["failures"] for e in row["details"]["suite"])


def test_criterion_07_circle_torsion_and_partition():
    """det' = 4 and torsion 1/2 on the twisted circle at n = 3, 8, 17;
    additivity under direct sum; partition value 2 at n = 8."""
    row = _run(7)
    assert row["details"]["torsion_additivity_residual"] <= 1e-10
    assert abs(row["details"]["partition_Z_at_8"] - 2.0) <= 1e-10


def test_criterion_08_random_complex_hodge():
    """50 seeded complexes: Betti routes agree, decomposition parts
    orthogonal and re-summing to 1e-10."""
    row = _run(8)
    assert row["details"]["worst_resum_residual"] <= 1e-10
    assert row["details"]["worst_orthogonality_residual"] <= 1e-10


def test_criterion_09_witten_sweep_invariance():
    """Betti numbers flat over tau in {0, 0.5, 1, 2, 5} on both leaf
    models, for a fixed and a random smooth leaf function."""
    _run(9)


def test_criterion_10_morse_scan_classification():
    """Cosine chart: two Morse families at 0 and 1/2; cubic chart: exactly
    the origin flagged, with a transversal birth-death Jacobian."""
    _run(10)


def test_criterion_11_godbillon_vey_quadrature():
    """Integrable shipped form: invariant 0 within 1e-6, gauge invariant,
    stable under grid doubling; contact form rejected."""
    row = _run(11)
    assert row["details"]["non_integrable_rejected"]


def test_criterion_12_determinism_and_budget():
    """Reports byte-identical across rebuilds; suite inside the budget."""
    row = _run(12)
    assert all(row["details"]["reports_deterministic"])
    assert row["details"]["within_budget"]


def test_all_criteria_covered():
    assert [num for num, _, _ in CRITERIA] == list(range(1, 13))
