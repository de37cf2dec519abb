import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hyperwedge.euler import GasParams, State

settings.register_profile(
    "research",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("research")

# Verdict lines collected by the acceptance tests; echoed after the run so
# they survive pytest's fd-level capture of in-test printing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gas():
    """Scaled system at the reference parameter point used throughout."""
    return GasParams(gamma=1.4, a_inf=2.0, tau=0.1)


@pytest.fixture(scope="session")
def gas0():
    """Slender-body limit system (same gamma and similarity parameter)."""
    return GasParams(gamma=1.4, a_inf=2.0, tau=0.0)


@pytest.fixture(scope="session")
def bg(gas):
    return gas.background()


@pytest.fixture(scope="session")
def bg0(gas0):
    return gas0.background()


def state_box(gas, spread=0.02):
    """Hypothesis strategy for states in a small box around background."""
    from hypothesis import strategies as st

    pb = gas.p_background
    f = lambda lo, hi: st.floats(min_value=lo, max_value=hi, allow_nan=False,
                                 allow_infinity=False, width=64)
    return st.builds(State,
                     rho=f(1.0 - spread, 1.0 + spread),
                     u=f(-spread, spread),
                     v=f(-spread, spread),
                     p=f(pb * (1.0 - spread), pb * (1.0 + spread)))


def trust_box_states(gas, n, seed):
    """`n` seeded states within 0.045 of background in every component;
    every other one carries numpy scalars, as Newton iterates do."""
    rng = np.random.default_rng(seed)
    bg = gas.background().as_array()
    out = []
    for i in range(n):
        w = bg + rng.uniform(-0.045, 0.045, size=4)
        out.append(State(*w) if i % 2 else State.from_array(w))
    return out
