"""The LAPACK seam against numpy's public calls: the same bits on every shape
the package passes, and the same errors, under both import bindings."""

import functools

import numpy as np
import pytest

from nonholo import _lapack

RNG = np.random.default_rng(23)
B = 5


def _spd(*shape):
    a = RNG.normal(size=shape)
    return a @ a.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])


def _without_svd(name):
    return None if name == "svd" else _lapack._lookup(name)


# the gufuncs this numpy has; none (every function the public call); and every
# gufunc but the values-only SVD, which numpy < 2.0 names otherwise
BINDINGS = {
    "gufuncs": _lapack._lookup,
    "public": lambda name: None,
    "no svd gufunc": _without_svd,
}

def _lstsq_each(a, b):
    """np.linalg.lstsq(a, b, rcond=None)[0], which takes one matrix at a
    time: of a matrix, or stacked over the matrices of a stack."""
    if a.ndim == 2:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    return np.array([np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)])


REFERENCE = {
    "solve": np.linalg.solve,
    "inv": np.linalg.inv,
    "singular_values": lambda a: np.linalg.svd(a, compute_uv=False),
    "lstsq": _lstsq_each,
}


def _bound(binding):
    return dict(zip(REFERENCE, _lapack._bind(BINDINGS[binding])))


def _cases():
    """(function, operands) on every shape the package passes: one and
    stacked matrices; b as (n,) (the integrator's multipliers), (B, m, 1)
    (stacked multipliers and projections), (B, n, k) and (n, k) (frame
    components, the splitting's solve); rows (B, m, n), frames (B, n, k) and
    square splitting matrices for the singular values; least squares over
    tall (n, m) matrices, m = 1, 2, as verify's transposed constraint rows
    against several right-hand sides, a rank-deficient stack among them."""
    for n in (2, 3, 4):
        a, stack = _spd(n, n), _spd(B, n, n)
        general = RNG.normal(size=(B, n, n)) + n * np.eye(n)
        yield "solve", (a, RNG.normal(size=n))
        yield "solve", (a, RNG.normal(size=(n, 3)))
        yield "solve", (stack, RNG.normal(size=(B, n, 1)))
        yield "solve", (general, RNG.normal(size=(B, n, 2 * n)))
        # numpy's rule: b is a vector only when b.ndim == 1, even when b has
        # one dimension less than a stack of n matrices
        yield "solve", (_spd(n, n, n), RNG.normal(size=(n, n)))
        yield "inv", (a,)
        yield "inv", (stack,)
        yield "inv", (general,)
        yield "singular_values", (RNG.normal(size=(B, n - 1, n + 1)),)
        yield "singular_values", (RNG.normal(size=(B, n + 1, n - 1)),)
        yield "singular_values", (general,)
        yield "singular_values", (RNG.normal(size=(n, n + 2)),)
        for m in (1, 2):
            for k in (1, 3, 2 * n + n * n):
                yield "lstsq", (RNG.normal(size=(n, m)), RNG.normal(size=(n, k)))
                yield "lstsq", (RNG.normal(size=(B, n, m)), RNG.normal(size=(B, n, k)))
        deficient = RNG.normal(size=(B, n, 2))
        deficient[1, :, 1] = 3.0 * deficient[1, :, 0]  # parallel columns
        deficient[3, :, 0] = 0.0
        deficient[4] = 0.0
        yield "lstsq", (deficient, RNG.normal(size=(B, n, 5)))
        # the transposed views verify passes
        yield "lstsq", (RNG.normal(size=(B, 2, n)).swapaxes(1, 2), RNG.normal(size=(B, 7, n)).swapaxes(1, 2))


CASES = list(_cases())


def _failing_cases():
    """Singular, indefinite, NaN and +-inf operands, alone and as one member
    of a stack."""
    bad = []
    for value in (0.0, np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 0), (0, 1)):
            a = _spd(3, 3)
            a[i, j] = value
            bad.append(a)
    singular = np.ones((3, 3))
    not_pd = np.diag([1.0, -2.0, 3.0])
    bad += [singular, not_pd, np.zeros((3, 3))]
    for a in bad:
        stack = _spd(B, 3, 3)
        stack[2] = a
        for m in (a, stack):
            yield "solve", (m, RNG.normal(size=m.shape[:-1]) if m.ndim == 2 else np.ones((B, 3, 1)))
            yield "inv", (m,)
            yield "singular_values", (m[..., :2, :],)
            yield "singular_values", (m,)
            yield "lstsq", (m[..., :2], np.ones(m.shape))
            yield "lstsq", (_spd(*m.shape)[..., :2], m)  # a non-finite right-hand side


FAILING = list(_failing_cases())


def _outcome(fn, args):
    """The result's dtype, shape and bytes, or the error's class and message."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_the_seam_is_the_public_call_bitwise(binding):
    fns = _bound(binding)
    for name, args in CASES:
        want = _outcome(REFERENCE[name], args)
        assert want[0] == np.float64
        assert _outcome(fns[name], args) == want, (name, [a.shape for a in args])


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("outer", [None, "ignore", "raise"])
def test_the_seam_fails_as_the_public_call(binding, outer):
    # the error state is the seam's own inside an outer errstate, as it is
    # the wrappers' (integrate runs under errstate(invalid='ignore')), and
    # the outer state is back after a raise
    fns = _bound(binding)
    raised = set()
    with np.errstate(all=outer) if outer else np.errstate():
        before = np.geterr()
        for name, args in FAILING:
            want = _outcome(REFERENCE[name], args)
            assert _outcome(fns[name], args) == want, (name, args)
            assert np.geterr() == before
            if want[0] is np.linalg.LinAlgError:
                raised.add((name, want[1]))
    assert raised == {
        ("solve", "Singular matrix"),
        ("inv", "Singular matrix"),
        ("singular_values", "SVD did not converge"),
        ("lstsq", "SVD did not converge in Linear Least Squares"),
    }


def test_the_import_binds_a_public_call_only_where_a_gufunc_is_missing():
    # numpy 2 has every name looked up; the svd falls back on numpy < 2.0
    needs = {"solve": ("solve1", "solve"), "inv": ("inv",)}
    for name, gufuncs in needs.items():
        missing = any(_lapack._lookup(g) is None for g in gufuncs)
        assert (getattr(_lapack, name) is getattr(np.linalg, name)) == missing
    fallback = isinstance(_lapack.singular_values, functools.partial)
    assert fallback == (_lapack._lookup("svd") is None)
    # the bound gufunc runs under its error state, the fallback calls np.linalg
    assert hasattr(_lapack.lstsq, "__wrapped__") == (_lapack._lookup("lstsq") is not None)
    assert _lapack._lookup("no_such_gufunc") is None
    public = _bound("public")
    assert [public[n] for n in needs] == [np.linalg.solve, np.linalg.inv]
    assert public["singular_values"].func is np.linalg.svd
    assert public["singular_values"].keywords == {"compute_uv": False}
