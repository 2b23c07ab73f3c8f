"""The one int rule over every exported name: each parameter hinted int or
int | None refuses a bool, a float, a string and a numpy integer with the
same ValueError, raised by arith.require_int."""

import inspect
import re
import typing

import numpy as np
import pytest

import tsppcong as tc

SPEC = tc.EtaQuotientSpec(1, {1: 1})

# One valid call per export with an int parameter.  Where a bool would pass
# for 1, the valid value is 1, so True is refused by the rule and not by a
# range check.
VALID = {
    "CongruenceClaim": dict(sequence="f", step=1, offset=0, modulus=2),
    "CosetRep": dict(a=1, b=0, c=1, d=1),
    "EtaQuotientSpec": dict(level=1, exponents={1: 1}),
    "InstanceHints": dict(group_level=1, r_prime=SPEC),
    "VerificationInstance": dict(m=1, t=0, r=SPEC, r_prime=SPEC, u=2),
    "check_slice_identity": dict(order=1),
    "check_support": dict(order=1),
    "check_variant_congruence": dict(alpha=1, p=2),
    "coset_reps": dict(N=1),
    "cusp_order_bound": dict(rep=tc.CosetRep(1, 0, 1, 1), m=1, r=SPEC),
    "eta_quotient": dict(spec=SPEC, order=1, step=1, offset=0),
    "index_gamma0": dict(N=1),
    "kappa": dict(m=1),
    "oracle_check": dict(claim=tc.CongruenceClaim("f", 1, 0, 2), order=1, ring=tc.INTEGERS),
    "pentagonal_terms": dict(delta=1, order=1),
    "residues_mod": dict(modulus=2),
    "slice_series": dict(order=1),
    "slice_variant_series": dict(alpha=1, p=2, order=1),
    "slice_variant_spec": dict(alpha=1, p=2),
    "squares_mod": dict(modulus=1),
    "tspp_series": dict(order=1, step=1, offset=0),
}

EXEMPT = {
    "CheckReport": "a result record the check functions build; no exported function takes one",
    "ReductionStep": "a result record reduce_claim builds; no exported function takes one",
    "SliceClaim": "a result record reduce_claim builds; no exported function takes one",
}

BAD = (True, 2.0, "3", np.int64(3), [3])


def int_parameters(obj) -> list[str]:
    target = obj.__init__ if inspect.isclass(obj) else obj
    hints = typing.get_type_hints(target, localns=vars(tc))
    return [name for name, hint in hints.items() if name != "return" and hint in (int, int | None)]


EXPORTS = {name: int_parameters(obj) for name, obj in vars(tc).items() if not name.startswith("_") and callable(obj)}


def test_every_int_parameter_is_covered():
    with_ints = {name for name, params in EXPORTS.items() if params}
    assert with_ints == set(VALID) | set(EXEMPT)
    assert not set(VALID) & set(EXEMPT)
    assert all(reason.strip() for reason in EXEMPT.values())
    for name in VALID:
        assert set(EXPORTS[name]) <= set(VALID[name]), name


@pytest.mark.parametrize("name", sorted(VALID))
def test_int_parameters_refuse_non_ints(name):
    call = getattr(tc, name)
    call(**VALID[name])
    for param in EXPORTS[name]:
        for bad in BAD:
            message = rf"^{param} must be an integer( of at least -?\d+)?, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                call(**dict(VALID[name], **{param: bad}))
