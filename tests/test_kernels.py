from semizn import kernels


def test_mul_cancellation():
    a = {(0,): 1, (1,): 1}
    b = {(0,): 1, (1,): -1}
    # (1+X)(1-X) = 1 - X^2
    assert kernels.mul_terms(a, b) == {(0,): 1, (2,): -1}


def test_axpy_removes_zeros():
    dst = {(0, (0,)): 2}
    kernels.axpy_terms(dst, -2, (0,), {(0, (0,)): 1})
    assert dst == {}


def test_backend_reported():
    assert kernels.BACKEND == "pure"
