from semizn import kernels


def test_mul_cancellation():
    a = {(0,): 1, (1,): 1}
    b = {(0,): 1, (1,): -1}
    # (1+X)(1-X) = 1 - X^2
    assert kernels.mul_terms(a, b) == {(0,): 1, (2,): -1}


def test_backend_reported():
    assert kernels.BACKEND == "pure"
