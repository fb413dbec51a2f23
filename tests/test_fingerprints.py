"""Stability tests for the canonical fingerprints (repro.obs.manifest).

The case/config fingerprints are no longer descriptive metadata: they
key Tier A of the persistent solve cache and the service's idempotent
job identity. A digest that silently drifts makes every store entry
unreachable and every journaled job a stranger, so the known values
are pinned here as literals. If one of these tests fails, the change
is *semantic*: bump :data:`repro.store.keys.CACHE_EPOCH` in the same
commit and update the pins deliberately.
"""

import dataclasses

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.obs.manifest import case_fingerprint, config_fingerprint
from repro.service import job_id_for

#: Pinned digests; update only together with a CACHE_EPOCH bump.
PINNED_CASE = "9e1b463f1a61ed13"
PINNED_CONFIG = "8df0150b207f34d5"
#: ``SynthesisOptions(time_limit=120.0)``, the CLI's default options.
PINNED_CONFIG_TIME_LIMIT_120 = "bf1fd503e0f8425a"


def pinned_spec():
    return generate_case(seed=0, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def test_case_fingerprint_is_pinned():
    assert case_fingerprint(pinned_spec()) == PINNED_CASE


def test_config_fingerprint_is_pinned():
    assert config_fingerprint(SynthesisOptions()) == PINNED_CONFIG


def test_job_id_is_the_fingerprint_pair():
    assert job_id_for(pinned_spec(), SynthesisOptions()) == \
        f"{PINNED_CASE}-{PINNED_CONFIG}"


def test_runtime_attachments_do_not_change_the_config_fingerprint():
    """trace/store/cache are compare=False: never part of identity."""
    from repro.obs import Tracer
    from repro.store import Store

    plain = config_fingerprint(SynthesisOptions())
    attached = config_fingerprint(SynthesisOptions(
        trace=Tracer("t"), store=Store("/nonexistent-store"), cache=False))
    assert attached == plain


def test_compare_fields_do_change_the_fingerprint():
    assert config_fingerprint(SynthesisOptions(mip_gap=1e-2)) != PINNED_CONFIG
    assert config_fingerprint(SynthesisOptions(backend="highs")) != \
        PINNED_CONFIG


def test_int_and_float_values_share_one_fingerprint():
    """A library caller's ``time_limit=120`` and the CLI's parsed
    ``120.0`` must key the same store entry, and the CLI's existing
    entries must keep their key."""
    assert config_fingerprint(SynthesisOptions(time_limit=120)) == \
        config_fingerprint(SynthesisOptions(time_limit=120.0)) == \
        PINNED_CONFIG_TIME_LIMIT_120
    for field, value in (("mip_gap", 0), ("path_slack", 1)):
        assert config_fingerprint(SynthesisOptions(**{field: value})) == \
            config_fingerprint(SynthesisOptions(**{field: float(value)}))


def test_exclusion_rule_is_the_dataclass_compare_flag():
    """The manifest must not keep a hand-written exclusion list."""
    excluded = {f.name for f in dataclasses.fields(SynthesisOptions)
                if not f.compare}
    assert excluded == {"trace", "store", "cache"}


def test_case_fingerprint_tracks_spec_content():
    a = pinned_spec()
    b = generate_case(seed=1, switch_size=8, n_flows=2, n_inlets=2,
                      n_conflicts=0, binding=BindingPolicy.FIXED)
    assert case_fingerprint(a) != case_fingerprint(b)
    # re-generating the same seed reproduces the same digest
    assert case_fingerprint(pinned_spec()) == case_fingerprint(a)
