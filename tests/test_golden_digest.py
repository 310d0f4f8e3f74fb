"""Golden-digest regression gate for backend determinism.

These digests pin the exact bytes of funarc's campaign result and the
sha256 of its numerical profile across every execution configuration
the engine claims is equivalent: tree vs compiled vs batched backend,
serial vs 4-worker parallel — plus the profile digest of every
registered model and of one mixed-kind funarc variant, so a change to
the shadow engine cannot move the profiler's numbers.  Future backend
work (new lowering rules, cache changes, charge reordering) that
drifts **any** byte of the
deterministic artifacts fails here before it can silently invalidate
cached results, journals, or published experiment numbers.

If a change legitimately alters the artifacts (a new model workload, a
cost-model recalibration), recompute the constants with the snippet in
each test's failure message — never relax the cross-configuration
equality assertions.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.models import FunarcCase, build_model
from repro.numerics import profile_model

#: sha256 of ``CampaignResult.to_json()`` for ``FunarcCase(n=150)``
#: under the default delta-debug campaign — identical for every
#: (backend, workers) combination below by the determinism contract.
GOLDEN_CAMPAIGN_SHA256 = (
    "acbf72e3329de8c9169d1c2963858fe63bd2fa7e0c9919f8ee4a42dbb0ecc947")

#: ``NumericalProfile.digest()`` for the same case (the profile is an
#: execution artifact too: backend work must not move a single bit of
#: the shadow-run error statistics).
GOLDEN_PROFILE_DIGEST = "96c17819ca5e44ed"

#: ``profile_model(build_model(name)).digest()`` for every registered
#: model at its default size (all-single primary side).
GOLDEN_MODEL_PROFILE_DIGESTS = {
    "funarc": "3c3f805dadd65f3f",
    "mpas-a": "3cbef6bab0a1537b",
    "adcirc": "d7ddc4ff999929fb",
    "mom6": "951f8671e3df91d4",
}

#: funarc's profile under the paper's 1-minimal mixed-kind variant (only
#: the ``s1`` accumulator stays double), so bind-time boundary casts and
#: mixed-kind arithmetic are pinned too.
GOLDEN_MIXED_PROFILE_DIGEST = "3a17a914f63f34e6"

_CONFIGS = [("tree", 1), ("tree", 4), ("compiled", 1), ("compiled", 4),
            ("batched", 1), ("batched", 4)]


def _case() -> FunarcCase:
    return FunarcCase(n=150)


@pytest.mark.parametrize("backend,workers", _CONFIGS,
                         ids=[f"{b}-w{w}" for b, w in _CONFIGS])
def test_campaign_json_bytes_pinned(backend, workers):
    result = run_campaign(
        _case(), CampaignConfig(backend=backend, workers=workers))
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN_CAMPAIGN_SHA256, (
        f"CampaignResult.to_json() drifted under backend={backend} "
        f"workers={workers} (sha256 {digest}).  If intentional, "
        f"recompute: hashlib.sha256(run_campaign(FunarcCase(n=150), "
        f"CampaignConfig()).to_json().encode()).hexdigest()")


def test_numerical_profile_digest_pinned():
    profile = profile_model(_case())
    assert profile.digest() == GOLDEN_PROFILE_DIGEST, (
        f"NumericalProfile digest drifted ({profile.digest()}).  If "
        f"intentional, recompute: "
        f"profile_model(FunarcCase(n=150)).digest()")


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL_PROFILE_DIGESTS))
def test_model_profile_digests_pinned(name):
    digest = profile_model(build_model(name)).digest()
    assert digest == GOLDEN_MODEL_PROFILE_DIGESTS[name], (
        f"{name} NumericalProfile digest drifted ({digest}).  If "
        f"intentional, recompute: "
        f"profile_model(build_model({name!r})).digest()")


def test_mixed_kind_profile_digest_pinned():
    model = build_model("funarc")
    assignment = model.space.baseline().lower_all(
        [q for q in model.space.atom_names()
         if q != "funarc_mod::funarc::s1"])
    digest = profile_model(model, assignment).digest()
    assert digest == GOLDEN_MIXED_PROFILE_DIGEST, (
        f"mixed-kind funarc NumericalProfile digest drifted ({digest})")
