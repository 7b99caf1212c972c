"""One input rule at every public entry point.

Each entry point that takes a per-prosumer vector or a scalar checks it with
the same helpers of the market module: a vector is a non-empty 1-D sequence
of ints and floats (bools excluded) of one entry per prosumer, and a scalar
is an int or float within the float range. Every pairing of an entry point
with a bad input below raises DomainError, whose message names the first bad
entry by its index, or the input's shape, and never quotes the input.
"""

import numpy as np
import pytest

from prosumer_market import (
    Allocation,
    DomainError,
    MarketConfig,
    SweepSpec,
    best_response,
    check_eq15,
    check_eq21,
    check_lemma1,
    clearing_price,
    eq15_bounds,
    evaluate_conditions,
    marginal_inverse_modified,
    marginal_inverse_true,
    quantity_from_bid,
    recover_bids,
    strategic_payoff,
    welfare,
)

CONFIG = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
BIDS = [-1.0, -0.9, -0.5]
HUGE = 10 ** 400  # an int beyond the float range

# entry point -> (call on a vector, whether it knows the market size)
VECTOR_ENTRY_POINTS = {
    "check_lemma1": (check_lemma1, False),
    "eq15_bounds": (lambda v: eq15_bounds(v, CONFIG), True),
    "check_eq15": (lambda v: check_eq15(v, CONFIG), True),
    "check_eq21": (lambda v: check_eq21(v, CONFIG), True),
    "evaluate_conditions-bids":
        (lambda v: evaluate_conditions(CONFIG, v, [0.0] * 3), True),
    "evaluate_conditions-quantities":
        (lambda v: evaluate_conditions(CONFIG, BIDS, v), True),
    "welfare": (lambda v: welfare(CONFIG, v), True),
    "strategic_payoff": (lambda v: strategic_payoff(0, v, CONFIG), True),
    "best_response":
        (lambda v: best_response(0, v, CONFIG, grid_points=1000), True),
    "clearing_price": (lambda v: clearing_price(v, 1.0), False),
}

# bad vector -> (vector, the end of its message, or a tuple of alternatives)
BAD_VECTORS = {
    "numeric-strings": (["-1", "-0.9", "-0.5"], "a str at index 0 of 3"),
    "bool": ([True, -0.9, -0.5], "a bool at index 0 of 3"),
    "numpy-bool": ([-1.0, -0.9, np.True_], "a bool at index 2 of 3"),
    "int-beyond-64-bits":
        ([-1.0, HUGE, -0.5], "an integer beyond 64 bits at index 1 of 3"),
    "2d": ([BIDS], "shape (1, 3)"),
    "ragged": ([[-1.0], [-0.9, -0.5]], "a ragged sequence"),
    # a size check, where the entry point knows one, comes first
    "empty": ([], ("must not be empty", "got shape (0,)")),
}


@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [*BAD_VECTORS, "wrong-length"])
def test_vector_entry_points_reject_bad_vectors(entry, bad):
    call, sized = VECTOR_ENTRY_POINTS[entry]
    if bad == "wrong-length":
        # without a market only the empty profile has a wrong length
        vector, what = ((BIDS + [-1.0], "got shape (4,)") if sized
                        else BAD_VECTORS["empty"])
    else:
        vector, what = BAD_VECTORS[bad]
    with pytest.raises(DomainError) as exc:
        call(vector)
    assert str(exc.value).endswith(what)


def _config(**kwargs):
    return MarketConfig(**{"n_prosumers": 3, "d_min": 2.0, "s_max": 0.6,
                           "betas": (3.5, 4.0, 5.5), **kwargs})


SCALAR_ENTRY_POINTS = {
    "MarketConfig-d_min": lambda: _config(d_min=HUGE),
    "MarketConfig-s_max": lambda: _config(s_max=HUGE),
    "MarketConfig-eps_price": lambda: _config(eps_price=HUGE),
    "MarketConfig-tol_root": lambda: _config(tol_root=HUGE),
    "MarketConfig-tol_kkt": lambda: _config(tol_kkt=HUGE),
    "SweepSpec-start": lambda: SweepSpec("s_max", HUGE, 1.0, 5, CONFIG),
    "SweepSpec-stop": lambda: SweepSpec("s_max", 0.1, HUGE, 5, CONFIG),
    "quantity_from_bid-bid": lambda: quantity_from_bid(HUGE, 1.0, 1.0),
    "quantity_from_bid-price": lambda: quantity_from_bid(-1.0, HUGE, 1.0),
    "quantity_from_bid-d_min": lambda: quantity_from_bid(-1.0, 1.0, HUGE),
    "clearing_price-d_min": lambda: clearing_price(BIDS, HUGE),
    "recover_bids-price":
        lambda: recover_bids(Allocation(np.zeros(3), HUGE), 1.0),
    "recover_bids-d_min":
        lambda: recover_bids(Allocation(np.zeros(3), 1.0), HUGE),
    "marginal_inverse_true": lambda: marginal_inverse_true(CONFIG, HUGE),
    "marginal_inverse_modified":
        lambda: marginal_inverse_modified(CONFIG, HUGE),
}


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_scalar_entry_points_reject_ints_beyond_float_range(entry):
    with pytest.raises(DomainError, match="beyond the float range"):
        SCALAR_ENTRY_POINTS[entry]()


def test_numpy_bool_deep_in_many_betas():
    betas = [2.0] * 100_000
    betas[50_000] = np.True_
    with pytest.raises(DomainError) as exc:
        MarketConfig(100_000, 4.0, 1.6, betas)
    assert str(exc.value) == ("betas must be a 1-D sequence of numbers, got "
                              "a bool at index 50000 of 100000")


def test_non_finite_entry_named_by_index():
    config = MarketConfig(1000, 4.0, 1.6, [2.0] * 1000)
    quantities = [0.0] * 1000
    quantities[3] = np.nan
    with pytest.raises(DomainError) as exc:
        welfare(config, quantities)
    assert str(exc.value) == ("quantities must be finite, got nan at index 3 "
                              "of 1000")


@pytest.mark.parametrize("entry", ["check_lemma1", "check_eq15", "check_eq21"])
def test_condition_checks_report_non_finite_entries(entry):
    # the checks take the solver's own output, which may hold an overflowed
    # bid, so they report nan and inf entries as flags
    call, _ = VECTOR_ENTRY_POINTS[entry]
    flags = call([np.nan, -np.inf, -0.5])
    assert flags.dtype == bool and flags.shape == (3,)
