"""Helpers that only the tests read: the test catalogue's groups without
explicit irreps, a row-matching comparison of two character tables, the
r x r x r reference for the class-sum combination, the quotient map
SL(2,q) -> PSL(2,q), the embedding of S_n wr S_2 into S_2n, the transfer
checks of coset-state spectra under an embedding and under a quotient map,
the outcome distribution of one coset state and the full l1 distance of
two, an element of order three, a per-item reference for
util.dumps_report, and the one-subset q-value kernel that the chained one
replaced."""
import numpy as np

from hspsim import util
from hspsim.groups import SymmetricGroup, WreathS2Group, _point_images
from hspsim.simulate import coset_state, tuple_distributions
from hspsim.util import pairwise_sum

# the test catalogue's groups without explicit irreps, up to order 720
NUMERIC_GROUPS = ["dihedral:4", "dihedral:5", "dihedral:6", "dihedral:9",
                  "psl2:4", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11",
                  "sl2:5", "sl2:7", "power:s3^2", "power:s3^3", "power:z2^3",
                  "sl2:9"]

# class-sum and irrep-built tables agree to 6e-14 entrywise (psl2:5); two
# distinct rows are orthogonal, so they differ by sqrt(2) or more somewhere
ROW_MATCH_TOL = 1e-8
# the transfer checks' eigvalsh spectra agree to 4e-17 (wreath:3 into s6,
# sl2:5 onto psl2:5); a wrong multiplicity moves an eigenvalue by |H|/|G|
TRANSFER_TOL = 1e-9


def tables_match_up_to_rows(t1, t2):
    """True when the two tables hold the same rows (same class order)."""
    if t1.values.shape != t2.values.shape:
        return False
    used = set()
    for row in t1.values:
        hit = None
        for j, other in enumerate(t2.values):
            if j not in used and np.abs(row - other).max() < ROW_MATCH_TOL:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def class_sum_combination(group, seed):
    """The first draw's T = sum_i c_i M_i of chartable.character_table_numeric
    at this seed, from the whole r x r x r array of class constants
    a[i, j, k], the number of x in K_i with x^{-1} z_k in K_j."""
    classes = group.conjugacy_classes()
    r = len(classes)
    cls_index = np.empty(group.order, dtype=np.int64)
    for i, c in enumerate(classes):
        cls_index[list(c)] = i
    invs = group.inverse(np.arange(group.order))
    a = np.zeros((r, r, r))
    for k, c in enumerate(classes):
        pair = cls_index * r + cls_index[group.compose(invs, c[0])]
        a[:, :, k] = np.bincount(pair, minlength=r * r).reshape(r, r)
    c = np.random.default_rng(seed).standard_normal(r)
    return np.tensordot(c, a, axes=1)


def sl2_to_psl2_map(sl2, psl2):
    """The natural quotient map SL(2,q) -> PSL(2,q) as an id array."""
    if sl2.q != psl2.q:
        raise ValueError("field sizes differ")
    return psl2.from_perm(_point_images(sl2.field, sl2._rows))


def wreath_embedding(n):
    """Embed S_n wr S_2 into S_{2n}.

    Returns (wreath, s2n, mapping) where mapping[x] is the image id.
    (pi,sigma,0) sends i -> pi(i), n+i -> n+sigma(i); (pi,sigma,1) sends
    i -> n+pi(i), n+i -> sigma(i).
    """
    W = WreathS2Group(n)
    if n > 4:
        raise ValueError("embedding target S_{2n} needs 2n <= 8")
    S = SymmetricGroup(2 * n)
    p, s, b = W.unpack(np.arange(W.order))
    img = np.hstack([W.base._rows[p], n + W.base._rows[s]])
    img[b == 1] = (img[b == 1] + n) % (2 * n)
    return W, S, S.from_perm(img)


def transfer_subgroup_report(big, mapping, small, h_small):
    """Coset-state spectra under an embedding small -> big.

    The nonzero spectrum of the big-group coset state is the small one
    repeated [big:small] times and scaled by 1/[big:small]; the zero
    multiplicities agree too, so full sorted spectra are compared.
    """
    mapping = np.asarray(mapping)
    if int(mapping[small.identity]) != big.identity:
        raise ValueError("embedding does not send identity to identity")
    index, rem = divmod(big.order, small.order)
    if rem:
        raise ValueError("small group order does not divide big group order")
    ev_big = np.sort(np.linalg.eigvalsh(
        coset_state(big, int(mapping[h_small]))))
    ev_small = np.sort(np.linalg.eigvalsh(coset_state(small, h_small)))
    expected = np.sort(np.repeat(ev_small, index) / index)
    diff = float(np.max(np.abs(ev_big - expected)))
    return {
        "mode": "subgroup",
        "index": index,
        "max_spectral_diff": diff,
        "pass": bool(diff <= TRANSFER_TOL),
    }


def transfer_quotient_report(big, projection, small, h_small):
    """Coset-state spectra under a quotient map big -> small.

    The subgroup upstairs is the full preimage of {e, h}, of order four
    under SL(2,q) -> PSL(2,q), so its coset state is built here, as
    simulate.coset_state builds that of {e, h}; the nonzero spectra
    downstairs and upstairs coincide as multisets.
    """
    projection = np.asarray(projection)
    targets = {small.identity, h_small}
    pre = [x for x in range(big.order) if int(projection[x]) in targets]
    ids = np.arange(big.order)  # y is labelled by min(yH)
    coset = np.min([big.compose(ids, x) for x in pre], axis=0)
    ev_big = np.linalg.eigvalsh(np.equal.outer(coset, coset) / big.order)
    ev_small = np.linalg.eigvalsh(coset_state(small, h_small))
    nz_big = np.sort(ev_big[ev_big > 1e-12])
    nz_small = np.sort(ev_small[ev_small > 1e-12])
    if len(nz_big) != len(nz_small):
        return {
            "mode": "quotient",
            "nonzero_count": (len(nz_big), len(nz_small)),
            "max_spectral_diff": float("inf"),
            "pass": False,
        }
    diff = float(np.max(np.abs(nz_big - nz_small)))
    return {
        "mode": "quotient",
        "preimage_order": len(pre),
        "nonzero_count": len(nz_small),
        "zero_counts": (big.order - len(nz_big), small.order - len(nz_small)),
        "max_spectral_diff": diff,
        "pass": bool(diff <= TRANSFER_TOL),
    }


def coset_distribution(space, c, seed):
    """Joint outcome probabilities for the coset state of H^g = {e, c}, c in
    the space's class, on the frames of seed."""
    row = space.cls.index(c)
    return [tuple_distributions(space, ti, space.projected_forms(
        ti, space.frame(ti, seed)))[row] for ti in range(len(space.tuples))]


def l1_distance(dist_a, dist_b):
    """Full l1 sum over all (tuple, outcome) pairs."""
    per_tuple = [float(np.sum(np.abs(a - b)))
                 for a, b in zip(dist_a, dist_b)]
    return pairwise_sum(per_tuple)


def order_three_element(group):
    """The smallest id x with x^3 = e != x: a non-involution to refuse."""
    e = group.identity
    return next(x for x in range(group.order)
                if group.compose(group.compose(x, x), x) == e != x)


def dumps_per_item(obj):
    """util.dumps_report with every list and tuple written item by item,
    each string quoted and escaped by itself, the other scalars by
    util._emit."""
    def emit(obj, level):
        pad, end = "  " * (level + 1), "  " * level
        if isinstance(obj, dict) and obj:
            return "{\n" + ",\n".join(f'{pad}"{k}": {emit(v, level + 1)}'
                                       for k, v in obj.items()) + f"\n{end}}}"
        if isinstance(obj, (list, tuple)) and len(obj):
            return "[\n" + ",\n".join(pad + emit(v, level + 1)
                                       for v in obj) + f"\n{end}]"
        if isinstance(obj, str):
            text = obj.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{text}"'
        out = []
        util._emit(obj, out, level)
        return "".join(out)
    return emit(obj, 0) + "\n"


def quadforms_per_subset(stacks, dims, b):
    """<b| (x)_i A_i(g) |b> for all g, axis i using stacks[i] or the
    identity, from b alone: one subset's own einsum chain, the kernel of
    q_subset_values before the subsets of a tuple shared their prefixes.

    b is one vector (D,), giving shape (N,), or a block (D, m) of them,
    giving one contiguous row per column, shape (m, N).
    """
    k = len(dims)
    N = next(s.shape[0] for s in stacks.values())
    b = np.asarray(b, dtype=np.complex128)
    lead = b.shape[1:]
    bt = np.ascontiguousarray(b.T).reshape(*lead, *dims)
    blk = [k + 2] * len(lead)  # the block axis, outermost
    cur = np.broadcast_to(np.expand_dims(bt, len(lead)), (*lead, N, *dims))
    axes = [a + 1 for a in range(k)]
    for i, S in sorted(stacks.items()):
        op_axes = [0, k + 1, i + 1]
        out_axes = [0] + [(k + 1 if a == i else a + 1) for a in range(k)]
        cur = np.einsum(S, op_axes, cur, blk + [0] + axes, blk + out_axes)
    return np.ascontiguousarray(
        np.einsum(cur, blk + [0] + axes, bt.conj(), blk + axes, blk + [0]))
