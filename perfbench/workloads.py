"""What each benchmark workload runs, as a function of its seed.

Shared by ``run.py``, the repetition child ``rep.py`` and the
tree-backend reference builder ``reference.py``, so all three build
exactly the same campaigns from the same ``--seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

WORKLOADS = ("mom6-ddmin", "mom6-wide-batched", "service-funarc")
DEFAULT_SEED = 0

#: Evaluation cap of the narrow delta-debugging campaign.  Sized so one
#: campaign takes a few seconds on a 2-core VM and a run fits several.
DDMIN_MAX_EVALS = 30
#: One random-search wave of this many lanes per campaign.
WIDE_LANES = 256
#: The variants sampled by the wide workload are the same for every
#: seed (the seed varies the Eq.-1 noise draws instead), so the tree
#: backend's runs of those variants can be reused across seeds when a
#: reference digest has to be computed.
WIDE_SAMPLE_SEED = 1234
#: Job pairs per service session; pairs alternate dd and profile.
SERVICE_PAIRS = 6
SERVICE_JOB_SETS = 2
SERVICE_WORKERS = 2
SERVICE_TENANTS = ("tenant-a", "tenant-b")


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` for every process of a run with *seed*.

    ``CampaignResult.to_json()`` bytes depend on the interpreter's
    string-hash seed (float sums over sets of procedure names), so the
    benchmark fixes it per seed and builds its references under the
    same value.
    """
    return str(seed % 2 ** 32)


def campaign(workload: str, seed: int):
    """``(model, config, algorithm)`` for one mom6 repetition."""
    from repro.core import CampaignConfig, RandomSearch
    from repro.models import Mom6Case

    if workload == "mom6-ddmin":
        # algorithm None: run_campaign's default, delta debugging.
        return (Mom6Case.small(),
                CampaignConfig(backend="compiled", seed=seed,
                               max_evaluations=DDMIN_MAX_EVALS),
                None)
    if workload == "mom6-wide-batched":
        return (Mom6Case.small(),
                CampaignConfig(backend="batched", seed=seed,
                               max_evaluations=WIDE_LANES),
                RandomSearch(samples=WIDE_LANES, batch_size=WIDE_LANES,
                             seed=WIDE_SAMPLE_SEED))
    raise ValueError(f"{workload} is not a campaign workload")


def service_jobs(seed: int, job_set: int, cache_dir: str
                 ) -> list[tuple[str, str, object]]:
    """``(tenant, algorithm, config)`` for the 12 jobs of one session.

    Both tenants of a pair send the same config, so the second job of
    each pair is served from the shared *cache_dir*.  A run draws
    ``SERVICE_JOB_SETS`` sets from its seed and alternates between them
    session by session, so its numbers average over more
    delta-debugging trajectories than one set has.
    """
    from repro.core import CampaignConfig

    base = (seed * SERVICE_JOB_SETS + job_set) * SERVICE_PAIRS
    jobs = []
    for pair in range(SERVICE_PAIRS):
        algorithm = "dd" if pair % 2 == 0 else "profile"
        config = CampaignConfig(seed=base + pair, workers=SERVICE_WORKERS,
                                cache_dir=cache_dir)
        for tenant in SERVICE_TENANTS:
            jobs.append((tenant, algorithm, config))
    return jobs


def service_campaigns(seed: int) -> list[tuple[str, object]]:
    """``(algorithm, config)`` of every distinct campaign a run serves."""
    return [(algorithm, config)
            for job_set in range(SERVICE_JOB_SETS)
            for _, algorithm, config in service_jobs(seed, job_set, "")[::2]]


def service_entry(algorithm: str, config) -> dict:
    return {"model": "funarc", "algorithm": algorithm,
            "config": _result_fields(config)}


def reference_inputs(workload: str, seed: int) -> list[dict]:
    """The distinct campaigns whose result digests a run checks.

    Each entry names the model, algorithm and campaign config; the
    execution knobs that must not change result bytes (backend,
    workers, cache) are left out, so the entry is what the tree
    backend recomputes.
    """
    if workload == "service-funarc":
        return [service_entry(algorithm, config)
                for algorithm, config in service_campaigns(seed)]
    model, config, algorithm = campaign(workload, seed)
    searched = ("dd" if algorithm is None
                else {"random": dataclasses.asdict(algorithm)})
    return [{"model": model.model_spec(), "algorithm": searched,
             "config": _result_fields(config)}]


def _result_fields(config) -> dict:
    payload = config.to_payload()
    for knob in ("backend", "workers", "cache_dir"):
        payload.pop(knob, None)
    return payload


def fingerprint(workload: str, seed: int, entry: dict) -> str:
    """Key of one reference digest: the inputs plus the hash seed."""
    blob = json.dumps({"workload": workload, "hash_seed": hash_seed(seed),
                       "inputs": entry}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]
