"""The frozen value records: construction, equality, hashing, repr, immutability
and pickling, each as ``@dataclass(frozen=True)`` gave them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from bermoments import (
    ChiVector,
    ConjectureReport,
    MomentSeries,
    PuiseuxData,
    Spectrum,
    TpqrParams,
    TruncatedSeries,
    WeightSystem,
    bernoulli_moments,
    check_conjecture,
    gamma_k3_closed,
    gamma_qh_product_spread,
    moments_of_chi,
    moments_of_spectrum,
    moments_qh_product,
    spectrum_tpqr,
)
from bermoments.moments import gamma_of

# (class, constructor arguments by keyword, the repr of that instance, the
# arguments of an instance that differs in one field)
CASES = [
    (
        Spectrum,
        {"n": 2, "entries": ((F(2, 3), 1), (F(1, 3), 1))},
        "Spectrum(n=2, entries=((Fraction(1, 3), Fraction(1, 1)), (Fraction(2, 3), Fraction(1, 1))))",
        {"n": 2, "entries": ((F(1, 2), 2),)},
    ),
    (
        WeightSystem,
        {"weights": (F(1, 3), F(1, 2))},
        "WeightSystem(weights=(Fraction(1, 3), Fraction(1, 2)))",
        {"weights": (F(1, 3), F(1, 3))},
    ),
    (TpqrParams, {"p": 2, "q": 3, "r": 7}, "TpqrParams(p=2, q=3, r=7)", {"p": 2, "q": 3, "r": 8}),
    (PuiseuxData, {"pairs": ((2, 3),)}, "PuiseuxData(pairs=((2, 3),))", {"pairs": ((2, 5),)}),
    (
        MomentSeries,
        {"values": (2, F(1, 9)), "order": 2, "nu": None},
        "MomentSeries(values=(Fraction(2, 1), Fraction(1, 9)), order=2, nu=None)",
        {"values": (2, F(1, 9)), "order": 2, "nu": 1},
    ),
    (
        ChiVector,
        {"chi": (1, -1, 1)},
        "ChiVector(chi=(Fraction(1, 1), Fraction(-1, 1), Fraction(1, 1)))",
        {"chi": (1, 0, 1)},
    ),
    (
        TruncatedSeries,
        {"coeffs": (1, 0, F(1, 2))},
        "TruncatedSeries(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 2)))",
        {"coeffs": (1, 0, F(1, 3))},
    ),
    (
        ConjectureReport,
        {"mode": "W", "nu": F(3), "k_max": 1, "rows": ((1, F(-1, 12), True),)},
        "ConjectureReport(mode='W', nu=Fraction(3, 1), k_max=1, rows=((1, Fraction(-1, 12), True),))",
        {"mode": "S", "nu": F(3), "k_max": 1, "rows": ((1, F(-1, 12), True),)},
    ),
]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case[0].__name__ for case in CASES])
def test_record_behaves_as_a_frozen_dataclass(index):
    cls, kwargs, text, differing = CASES[index]
    record = cls(**kwargs)
    same = cls(*kwargs.values())
    assert record == same and hash(record) == hash(same)
    assert not record != same
    assert record != cls(**differing)
    other_cls, other_kwargs = CASES[index - 1][:2]
    assert record != other_cls(**other_kwargs)
    assert record.__eq__(object()) is NotImplemented
    assert repr(record) == text
    field = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == same
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=1)


def test_records_hold_only_their_fields():
    # a frozen record carries its fields and nothing else, whichever route
    # built it: no hidden attribute rides along beside the fields
    cusp = WeightSystem((F(1, 3), F(1, 2)))
    spectrum, chi = spectrum_tpqr(TpqrParams(2, 3, 7)), ChiVector((2, 20, 2))
    v = moments_of_spectrum(spectrum, 6)
    records = [cls(**kwargs) for cls, kwargs, _, _ in CASES] + [
        MomentSeries.from_series(TruncatedSeries((1, 0, F(1, 2)))),
        v,
        moments_of_chi(chi, 6),
        moments_qh_product(cusp, 6),
        bernoulli_moments(v, F(5, 3)),
        v * v,
        gamma_of(spectrum, 6)(2),
        gamma_of(chi, 6)(2),
        gamma_of(cusp, 6)(F(1, 3)),
        gamma_k3_closed(6),
        gamma_qh_product_spread(cusp, 6),
        check_conjecture(spectrum, "W", 3),
        spectrum,
    ]
    for record in records:
        assert set(vars(record)) == set(type(record).__match_args__), record


@pytest.mark.parametrize(
    "build",
    [
        lambda: Spectrum(0, ()),
        lambda: WeightSystem(()),
        lambda: TpqrParams(1, 3, 7),
        lambda: PuiseuxData(()),
        lambda: MomentSeries.from_series(TruncatedSeries((1, 1))),
        lambda: ChiVector(()),
        lambda: TruncatedSeries(()),
        lambda: ConjectureReport("X", F(1), 1, ()),
    ],
    ids=[case[0].__name__ for case in CASES],
)
def test_record_validation_still_runs(build):
    with pytest.raises(ValueError):
        build()


def test_missing_field_is_a_type_error():
    with pytest.raises(TypeError, match="'entries'"):
        Spectrum(n=2)
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        Spectrum(2, ((F(1, 2), 1),), n=2)
