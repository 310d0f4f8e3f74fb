"""Bench: shadow-execution profiling overhead and profile-guided
search savings.

Two numbers the numerics subsystem promises, measured for the record:

* the shadow engine's wall-clock time against plain runs on both
  execution backends.  Shadow execution runs on the compiled lowering
  and carries every real as a (primary, reference, statement-exact)
  triple, recording an error observation per real assignment.  The
  recorder buffers the observations and runs their error math as one
  array pass per 1,024 of them, so on funarc a shadow run costs under
  twice a plain tree run and about five plain compiled runs; and
* the evaluations and simulated node-seconds the profile-guided search
  saves against vanilla delta debugging on funarc — *after* charging
  the profile's own simulated cost against it.

Results land in ``benchmarks/out/profile_bench.json`` alongside the
raw-record dumps the figure benches write.
"""

from __future__ import annotations

import json
import time

from conftest import OUT_DIR

from repro.core import CampaignConfig, DeltaDebugSearch, make_oracle
from repro.core.search import ProfileGuidedSearch
from repro.fortran import CompiledInterpreter, Interpreter
from repro.models import FunarcCase
from repro.numerics import ShadowInterpreter, profile_model

CONFIG = CampaignConfig(nodes=20)


def _timed_run(case, factory):
    started = time.perf_counter()
    case.run(case.space.all_double(), interpreter_factory=factory)
    return time.perf_counter() - started


def test_profile_bench():
    case = FunarcCase(n=400)

    # -- shadow-execution overhead (best of 3, wall clock) -------------
    wall = {name: min(_timed_run(case, factory) for _ in range(3))
            for name, factory in (("tree", Interpreter),
                                  ("compiled", CompiledInterpreter),
                                  ("shadow", ShadowInterpreter))}

    # -- search savings: profile-guided vs delta debugging -------------
    profile = profile_model(case)
    dd_oracle = make_oracle(case, CONFIG)
    dd = DeltaDebugSearch().run(case.space, dd_oracle)
    pg_oracle = make_oracle(case, CONFIG)
    pg = ProfileGuidedSearch(
        profile=profile,
        prune_above=case.error_threshold).run(case.space, pg_oracle)

    dd_sim = dd_oracle.wall_seconds_used
    pg_sim = pg_oracle.wall_seconds_used + profile.sim_seconds

    assert pg.final.key() == dd.final.key()
    assert pg.evaluations < dd.evaluations
    assert pg_sim < dd_sim

    payload = {
        "model": case.name,
        "wall_seconds": wall,
        "shadow_over_tree": wall["shadow"] / wall["tree"],
        "shadow_over_compiled": wall["shadow"] / wall["compiled"],
        "profile_sim_seconds": profile.sim_seconds,
        "profile_digest": profile.digest(),
        "delta_debug": {"evaluations": dd.evaluations,
                        "batches": dd.batches,
                        "sim_seconds": dd_sim},
        "profile_guided": {"evaluations": pg.evaluations,
                           "batches": pg.batches,
                           "pruned_singletons": pg.pruned_singletons,
                           "sim_seconds_incl_profile": pg_sim},
        "evaluations_saved": dd.evaluations - pg.evaluations,
        "sim_seconds_saved": dd_sim - pg_sim,
    }
    (OUT_DIR / "profile_bench.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True))

    # The shadow engine triples the state it carries; anything beyond
    # ~8x a plain tree run would mean an accidental slow path (for
    # instance, error math per observation instead of per batch).
    assert wall["shadow"] < 8.0 * wall["tree"]
