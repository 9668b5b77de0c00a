"""Group Fourier transform, subgroup averages, and isotypic projectors."""
from __future__ import annotations

import numpy as np

from .irreps import Irrep
from .util import kron_stack


def qft(group, irreps):
    """Fourier matrix: row (rho, i, j) holds sqrt(d/|G|) rho_ij(g) per column g.

    Rows follow the order of `irreps`, (i, j) row-major inside each block.
    Unitary whenever the list is a complete set of inequivalent irreps.
    """
    N = group.order
    if sum(r.degree ** 2 for r in irreps) != N:
        raise ValueError("irrep list is not complete: sum d^2 != |G|")
    blocks = []
    for r in irreps:
        d = r.degree
        blocks.append(np.sqrt(d / N) * r.mats.reshape(N, d * d).T)
    return np.concatenate(blocks, axis=0)


def subgroup_projector(rho, H):
    """Average of rho over a subgroup; an orthogonal projector."""
    return np.mean(rho.mats[list(H.elements)], axis=0)


def rank_r(rho, H):
    """Rank of the subgroup average, via the character sum.

    (1/|H|) sum_h chi(h) must be a near-integer, and must agree with the
    numerical rank of the projector before rounding.
    """
    chi = rho.character()
    s = complex(np.mean(chi[list(H.elements)]))
    if abs(s.imag) > 1e-6:
        raise ValueError(f"character average not real: {s}")
    val = s.real
    r = round(val)
    if abs(val - r) > 1e-6:
        raise ValueError(f"character average {val} is not integral")
    P = subgroup_projector(rho, H)
    numeric = int(np.sum(np.linalg.eigvalsh((P + P.conj().T) / 2) > 0.5))
    if numeric != r:
        raise ValueError(f"character rank {r} != numerical rank {numeric}")
    return int(r)


# ---------------------------------------------------------------------------
# tensor products with identity blocks

def factor_stack(group, factors):
    """Stacked matrices of a tensor product of irreps and identity blocks.

    Each factor is an Irrep or an int (dimension of an identity block).
    Returns shape (|G|, D, D) with D the product of factor dimensions.
    """
    N = group.order
    cur = np.ones((N, 1, 1), dtype=np.complex128)
    for f in factors:
        if isinstance(f, Irrep):
            m = f.mats
        else:
            m = np.broadcast_to(np.eye(int(f), dtype=np.complex128),
                                (N, int(f), int(f)))
        cur = kron_stack(cur, m)
    return cur


def factor_character(group, factors):
    N = group.order
    chi = np.ones(N, dtype=np.complex128)
    for f in factors:
        chi = chi * (f.character() if isinstance(f, Irrep) else float(int(f)))
    return chi


def clebsch_gordan_multiplicity(group, factors, tau):
    """Multiplicity of tau inside the tensor product of the factors."""
    chi = factor_character(group, factors)
    m = complex(np.vdot(tau.character(), chi)) / group.order
    if abs(m.imag) > 1e-6 or abs(m.real - round(m.real)) > 1e-6:
        raise ValueError(f"multiplicity {m} is not a near-integer")
    return int(round(m.real))


# ---------------------------------------------------------------------------
# representation-theoretic identities checked numerically

def check_likemub(tau, vectors):
    """Max error of E_g |<b|tau(g)|b>|^2 = 1/d over the given unit vectors."""
    worst = 0.0
    for b in vectors:
        q = np.einsum("i,gij,j->g", b.conj(), tau.mats, b)
        val = float(np.mean(np.abs(q) ** 2))
        worst = max(worst, abs(val - 1.0 / tau.degree))
    return worst


def check_projection_length(dim, subdim, seed, n_frames=5):
    """Basis-averaged squared projection equals subdim/dim, any basis.

    For every orthonormal basis B of C^dim and subspace W of dimension
    subdim: mean_b ||P_W b||^2 = subdim/dim (= the Haar-vector expectation).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_frames):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Q, _ = np.linalg.qr(A)
        W = Q[:, :subdim]
        P = W @ W.conj().T
        B = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
        vals = np.einsum("ib,ij,jb->b", B.conj(), P, B).real
        worst = max(worst, abs(float(vals.mean()) - subdim / dim))
    return worst


def check_expected_multiplicity(group, irreps, n, tau, extra_dims=()):
    """Plancherel average of multiplicity/dimension equals d_tau/|G|.

    Exact finite sum over all n-tuples theta in Ghat^n, with optional fixed
    identity factors appended: E[a_tau/d_theta] = d_tau/|G|.
    """
    from itertools import product as iproduct
    N = group.order
    total = 0.0
    for combo in iproduct(range(len(irreps)), repeat=n):
        fac = [irreps[i] for i in combo] + [int(d) for d in extra_dims]
        d_theta = 1
        for f in fac:
            d_theta *= f.degree if isinstance(f, Irrep) else int(f)
        planch = 1.0
        for i in combo:
            planch *= irreps[i].degree ** 2 / N
        a = clebsch_gordan_multiplicity(group, fac, tau)
        total += planch * a / d_theta
    return abs(total - tau.degree / N)
