import pytest

from rellich_cone import Config, full_sphere_spectrum, load_corpus


@pytest.fixture(scope="session")
def cfg():
    return Config()


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture()
def sphere3():
    return full_sphere_spectrum(3)


@pytest.fixture()
def sphere2():
    return full_sphere_spectrum(2)


@pytest.fixture(scope="session")
def cap_oracle():
    """The order-m cap eigenvalue in (lo, hi), to 30 digits.

    Order m's regular eigenfunction is sin^m 2F1(m - l, l + m + n - 2;
    m + (n-1)/2; sin^2(theta/2)) with eigenvalue l(l + n - 2); the root in
    the degree l comes from mpmath, independently of the cap solver.
    """
    import mpmath as mp

    def root(n, m, theta0, lo, hi):
        with mp.workdps(30):
            x = mp.sin(mp.mpf(theta0) / 2) ** 2
            k = mp.mpf(n - 2) / 2
            degree = lambda lam: mp.sqrt(k * k + lam) - k
            l = mp.findroot(
                lambda l: mp.hyp2f1(m - l, l + m + n - 2, m + mp.mpf(n - 1) / 2, x),
                (degree(lo), degree(hi)), solver="anderson",
            )
            return float(l * (l + n - 2))

    return root
