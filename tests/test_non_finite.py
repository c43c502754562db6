"""Every public constructor of an input type or object rejects nan and +-inf
with ParameterError.  The result containers (BoundResult, ExpectedRates,
ExponentSolution, B92Record) hold computed values and are not inputs."""

import math

import numpy as np
import pytest

import b92sim as b

EYE = np.eye(2)
Q = np.full((2, 2, 2, 2), 1.0 / 16.0)
P = np.full((2, 2), 0.25)
COUNTS = np.array([[10, 0], [0, 0]])


def _first(v, rest):
    return np.array([v] + rest)


CONSTRUCTORS = {
    "ObservedRates.r_err": lambda v: b.ObservedRates(r_err=v, r_fil=0.3, alpha=0.4),
    "ObservedRates.r_fil": lambda v: b.ObservedRates(r_err=0.01, r_fil=v, alpha=0.4),
    "ObservedRates.alpha": lambda v: b.ObservedRates(r_err=0.01, r_fil=0.3, alpha=v),
    "SlackVector": lambda v: b.SlackVector(eps5=v),
    "ProtocolParams.alpha": lambda v: b.ProtocolParams(v, 10, b.identity_channel()),
    "ProtocolParams.n_pairs": lambda v: b.ProtocolParams(0.4, v, b.identity_channel()),
    "ProtocolParams.seed": lambda v: b.ProtocolParams(0.4, 10, b.identity_channel(), v),
    "Tallies.n_err": lambda v: b.Tallies(10, v, 5, 1, 1, COUNTS, COUNTS),
    "Tallies.n_xx": lambda v: b.Tallies(10, 1, 5, 1, 1, _first(v, [0, 0, 0]).reshape(2, 2),
                                        COUNTS),
    "TwoBasisSampling.basis0": lambda v: b.TwoBasisSampling(_first(v, [0, 0, 1]).reshape(2, 2),
                                                            EYE, 4, 4, 0.5, 0.5),
    "TwoBasisSampling.m0": lambda v: b.TwoBasisSampling(EYE, EYE, v, 4, 0.5, 0.5),
    "TwoBasisSampling.delta1": lambda v: b.TwoBasisSampling(EYE, EYE, 4, 4, 0.5, v),
    "ExponentPoint.k_frac": lambda v: b.ExponentPoint(v, np.array([0, 0, 1.0]), Q, P),
    "ExponentPoint.bloch_n": lambda v: b.ExponentPoint(0.1, _first(v, [0, 1.0]), Q, P),
    "ExponentPoint.q": lambda v: b.ExponentPoint(0.1, np.array([0, 0, 1.0]),
                                                 _first(v, [1 / 16] * 15).reshape(Q.shape), P),
    "ExponentPoint.p": lambda v: b.ExponentPoint(0.1, np.array([0, 0, 1.0]), Q,
                                                 _first(v, [0.25] * 3).reshape(2, 2)),
    "SolverOptions.seed": lambda v: b.SolverOptions(seed=v),
    "StateVector": lambda v: b.StateVector(_first(v, [0.0])),
    "DensityMatrix": lambda v: b.DensityMatrix(_first(v, [0, 0, 0.5]).reshape(2, 2)),
    "Povm": lambda v: b.Povm([_first(v, [0, 0, 0]).reshape(2, 2), np.diag([0.0, 1.0])]),
    "FilterOp.matrix": lambda v: b.FilterOp(_first(v, [0, 0, 1.0]).reshape(2, 2), 0.4),
    "KrausChannel": lambda v: b.KrausChannel([_first(v, [0, 0, 1.0]).reshape(2, 2)]),
    "depolarizing_channel": b.depolarizing_channel,
    "depolarizing_rates.alpha": lambda v: b.depolarizing_rates(v, 0.03),
    "depolarizing_rates.p": lambda v: b.depolarizing_rates(0.4, v),
    "signal_state": lambda v: b.signal_state(0, v),
    "dual_state": lambda v: b.dual_state(1, v),
    "b92_povm": b.b92_povm,
    "filter_op": b.filter_op,
    "check_pair_basis": b.check_pair_basis,
    "error_povm_element": b.error_povm_element,
    "nonmax_entangled_state": b.nonmax_entangled_state,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_rejects_non_finite(name, bad):
    with pytest.raises(b.ParameterError):
        CONSTRUCTORS[name](bad)
