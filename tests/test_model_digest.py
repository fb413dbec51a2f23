"""Pinned digests of compiled synthesis models.

A speed-up of catalog enumeration, model building or compilation must
produce the same model, byte for byte: the same columns and rows in the
same order, with the same names, coefficients and bounds. These tests
hash the compiled arrays and names of three specs that together cover
the fixed, clockwise and unfixed policies on 8-, 12- and 16-pin
crossbars, and compare them with literals. Update a pin only together
with an intended change to the model, and say in the same commit what
changed. The digests do not depend on ``PYTHONHASHSEED`` (CI runs this
file under two seeds).
"""

import hashlib

import numpy as np
import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog

#: (generate_case arguments, pinned digest, columns, rows)
PINNED = [
    (dict(seed=0, switch_size=16, n_flows=5, n_inlets=3, n_conflicts=2,
          binding=BindingPolicy.FIXED), "44b203ca6cfb35b8", 601, 1112),
    (dict(seed=0, switch_size=8, n_flows=3, n_inlets=2, n_conflicts=1,
          binding=BindingPolicy.CLOCKWISE), "61be9d2684043477", 1067, 1625),
    (dict(seed=0, switch_size=12, n_flows=4, n_inlets=2, n_conflicts=1,
          binding=BindingPolicy.UNFIXED), "a01397d1cabd122d", 2679, 3410),
]


def model_digest(form) -> str:
    """sha256 over a compiled model's arrays (little-endian) and names."""
    h = hashlib.sha256()
    for array in (form.a_rows, form.a_cols, form.a_data, form.senses,
                  form.rhs, form.c, form.lb, form.ub, form.integrality,
                  form.implied):
        h.update(np.ascontiguousarray(
            array, dtype=array.dtype.newbyteorder("<")).tobytes())
    h.update("\n".join(v.name for v in form.variables).encode())
    h.update("\n".join(form.row_names).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("args,digest,n,m", PINNED,
                         ids=["fixed16", "clockwise8", "unfixed12"])
def test_compiled_model_is_pinned(args, digest, n, m):
    spec = generate_case(**args)
    catalog = build_catalog(spec, SynthesisOptions())
    form = SynthesisModelBuilder(spec, catalog).build().model.compiled()
    assert (form.n, form.m) == (n, m)
    assert model_digest(form) == digest


def test_memoized_catalog_builds_the_same_model():
    """A catalog assembled from the pin-pair memo (after other specs
    warmed it) gives the model a cold enumeration gives."""
    from repro.switches import clear_path_cache

    args = PINNED[0][0]
    clear_path_cache()
    cold = generate_case(**args)
    cold_form = SynthesisModelBuilder(
        cold, build_catalog(cold, SynthesisOptions())).build().model.compiled()
    clear_path_cache()
    for seed in range(1, 4):   # other fixed draws memoize overlapping pairs
        other = generate_case(**dict(args, seed=seed))
        build_catalog(other, SynthesisOptions())
    warm = generate_case(**args)
    warm_form = SynthesisModelBuilder(
        warm, build_catalog(warm, SynthesisOptions())).build().model.compiled()
    clear_path_cache()
    assert model_digest(warm_form) == model_digest(cold_form) == PINNED[0][1]
