"""Fourier matrix, subgroup averages, isotypic projectors, and identities."""
import numpy as np
import pytest

from hspsim.fourier import (
    check_expected_multiplicity,
    check_likemub,
    check_projection_length,
    clebsch_gordan_multiplicity,
    factor_character,
    factor_stack,
    qft,
    rank_r,
    subgroup_projector,
)
from hspsim.groups import (
    make_group,
    order_two_subgroup,
)
from hspsim.irreps import irreps_cyclic, irreps_generic, irreps_symmetric, irreps_wreath


def qft_row_labels(irreps):
    out = []
    for r in irreps:
        d = r.degree
        out += [(r.label, i, j) for i in range(d) for j in range(d)]
    return out


def homogeneous_projector(group, factors, tau):
    """Projector onto the tau-isotypic component of the factor product.

    Pi = d_tau E_g[conj(chi_tau(g)) theta(g)]; Hermitian, idempotent, with
    trace d_tau times the multiplicity.
    """
    theta = factor_stack(group, factors)
    w = tau.character().conj()
    P = tau.degree * np.einsum("g,gij->ij", w, theta) / group.order
    return P


def unitary_error(U):
    return float(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))))


def test_qft_z2_is_hadamard():
    G = make_group("cyclic:2")
    F = qft(G, irreps_cyclic(2))
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(F - H)) < 1e-12


def test_qft_z3_is_dft():
    G = make_group("cyclic:3")
    F = qft(G, irreps_cyclic(3))
    w = np.exp(2j * np.pi / 3)
    D = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w ** 4]]) / np.sqrt(3)
    assert np.max(np.abs(F - D)) < 1e-12


def test_qft_z4_matches_dft_up_to_row_permutation():
    G = make_group("cyclic:4")
    F = qft(G, irreps_generic(G, seed=0))
    N = 4
    D = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / 2.0
    used = set()
    for i in range(N):
        hit = [j for j in range(N)
               if j not in used and np.max(np.abs(F[i] - D[j])) < 1e-8]
        assert hit, f"row {i} of the Fourier matrix matches no DFT row"
        used.add(hit[0])


@pytest.mark.parametrize("spec", ["s3", "s4", "dihedral:4", "wreath:2"])
def test_qft_unitary(spec):
    G = make_group(spec)
    if spec.startswith("s"):
        irr = irreps_symmetric(int(spec[1]))
    elif spec.startswith("wreath"):
        irr = irreps_wreath(int(spec.split(":")[1]))
    else:
        irr = irreps_generic(G, seed=0)
    F = qft(G, irr)
    assert F.shape == (G.order, G.order)
    assert unitary_error(F) < 1e-9
    assert len(qft_row_labels(irr)) == G.order


def test_qft_incomplete_list_rejected():
    G = make_group("s3")
    with pytest.raises(ValueError):
        qft(G, irreps_symmetric(3)[:2])


def test_subgroup_projector_and_rank_s3():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    h = G.involutions()[0]
    H = order_two_subgroup(G, h)
    # rank (d + chi(h))/2: trivial 1, sign 0, standard (2 + 0)/2 = 1
    expected = {"[3]": 1, "[1,1,1]": 0, "[2,1]": 1}
    for r in irr:
        P = subgroup_projector(r, H)
        assert np.max(np.abs(P @ P - P)) < 1e-12, "subgroup average not idempotent"
        assert rank_r(r, H) == expected[r.label]
        assert abs(np.trace(P).real - expected[r.label]) < 1e-10


def test_rank_r_involution_formula():
    G = make_group("wreath:3")
    irr = irreps_wreath(3)
    h = G.swap_element()
    H = order_two_subgroup(G, h)
    for r in irr:
        chi_h = r.character()[h].real
        assert rank_r(r, H) == round((r.degree + chi_h) / 2)


def test_factor_stack_mixed_identity():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    std = irr[1]  # degrees are [1, 2, 1]; the 2-dim factor sits in the middle
    theta = factor_stack(G, [std, 2])  # standard (x) 2-dim identity block
    assert theta.shape == (6, 4, 4)
    chi = factor_character(G, [std, 2])
    assert np.max(np.abs(chi - 2 * std.character())) < 1e-12
    # multiplicativity of characters on a product with an honest irrep factor
    chi2 = factor_character(G, [std, irr[2]])
    assert np.max(np.abs(chi2 - std.character() * irr[2].character())) < 1e-12


def test_clebsch_gordan_s3():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    std, sign = irr[1], irr[2]
    # std (x) std = trivial + std + sign
    for tau, want in zip(irr, [1, 1, 1]):
        assert clebsch_gordan_multiplicity(G, [std, std], tau) == want
    # sign (x) sign = trivial
    assert clebsch_gordan_multiplicity(G, [sign, sign], irr[0]) == 1
    assert clebsch_gordan_multiplicity(G, [sign, sign], std) == 0


def test_homogeneous_projector_invariants():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    std = irr[1]
    factors = [std, std]
    total = np.zeros((4, 4), dtype=complex)
    for tau in irr:
        P = homogeneous_projector(G, factors, tau)
        assert np.max(np.abs(P - P.conj().T)) < 1e-10
        assert np.max(np.abs(P @ P - P)) < 1e-9
        a = clebsch_gordan_multiplicity(G, factors, tau)
        assert abs(np.trace(P).real - tau.degree * a) < 1e-9
        total += P
    assert np.max(np.abs(total - np.eye(4))) < 1e-9


# ---------------------------------------------------------------------------
# identities at tight tolerance, many random vectors


def _random_units(dim, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


def test_likemub_exact_for_any_unit_vector():
    G = make_group("s3")
    for tau in irreps_symmetric(3):
        vecs = _random_units(tau.degree, 20, seed=11)
        assert check_likemub(tau, vecs) < 1e-10


def test_likemub_wreath():
    G = make_group("wreath:3")
    for tau in irreps_wreath(3):
        vecs = _random_units(tau.degree, 20, seed=7)
        assert check_likemub(tau, vecs) < 1e-10


def test_projection_length_fact():
    for dim, sub in [(4, 1), (6, 3), (9, 5)]:
        assert check_projection_length(dim, sub, seed=3, n_frames=20) < 1e-10


def test_expected_multiplicity_fact():
    G = make_group("s3")
    irr = irreps_symmetric(3)
    for tau in irr:
        for n in (1, 2):
            assert check_expected_multiplicity(G, irr, n, tau) < 1e-10
        # identity factors appended must not change the average
        assert check_expected_multiplicity(G, irr, 1, tau, extra_dims=(2,)) < 1e-10
        assert check_expected_multiplicity(G, irr, 1, tau, extra_dims=(2, 3)) < 1e-10
