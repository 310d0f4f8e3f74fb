"""Shadow-execution numerical profiler tests (repro.numerics).

The contract under test has two halves:

* **Transparency** — the shadow engine's primary side is the plain
  interpreter: bit-identical observables and identical operation-ledger
  charges for every model case, at every assignment.  The profile is a
  pure observer.
* **Determinism** — a profile is a versioned artifact: byte-identical
  JSON across repeated runs and across campaign worker counts, so its
  digest can participate in journal fingerprints.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ReproError
from repro.fortran import (CODE_CACHE, Interpreter, OutBox, analyze,
                           analyze_program, make_array, parse_source)
from repro.models import build_model
from repro.numerics import (CANCEL_BITS, NumericalProfile, ProfileError,
                            ShadowInterpreter, profile_model,
                            profile_sim_seconds)
from repro.numerics.shadow import SHADOW_CODE_CACHE, ShadowRecorder

ALL_MODELS = ["funarc", "mpas-a", "adcirc", "mom6"]


def shadow_factory(index, **kwargs):
    return ShadowInterpreter(index, **kwargs)


class TestShadowEquivalence:
    """The primary side of a shadow run IS the plain interpreter."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_all_double_bit_identical(self, name):
        model = build_model(name)
        assignment = model.space.all_double()
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_all_single_bit_identical(self):
        model = build_model("funarc")
        assignment = model.space.all_single()
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_declared_kinds_bit_identical(self):
        model = build_model("funarc")
        plain = model.run(None)
        shadow = model.run(None, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops

    def test_mixed_assignment_bit_identical(self):
        model = build_model("funarc")
        # The paper's 1-minimal variant: only the accumulator stays wide.
        assignment = model.space.baseline().lower_all(
            [q for q in model.space.atom_names()
             if q != "funarc_mod::funarc::s1"])
        plain = model.run(assignment)
        shadow = model.run(assignment, interpreter_factory=shadow_factory)
        assert np.array_equal(plain.observable, shadow.observable)
        assert plain.ledger.total_ops == shadow.ledger.total_ops


class TestShadowCodeCache:
    def test_profiling_leaves_the_plain_code_cache_alone(self):
        before = CODE_CACHE.stats()
        profile_model(build_model("funarc"))
        hits = SHADOW_CODE_CACHE.hits
        profile_model(build_model("funarc"))
        assert CODE_CACHE.stats() == before
        assert SHADOW_CODE_CACHE.stats()["entries"] > 0
        # The second run reuses the lowered shadow bodies.
        assert SHADOW_CODE_CACHE.hits > hits


CANCEL_SRC = """
subroutine cancel_demo(out)
  implicit none
  real(kind=4) :: a, b, c
  real(kind=8), intent(out) :: out
  a = 1.0 + 2.0e-6
  b = 1.0
  c = a - b
  out = c
end subroutine cancel_demo
"""


SAVE_SRC = """
subroutine accum(x, out)
  implicit none
  real(kind=4), intent(in) :: x
  real(kind=4), intent(out) :: out
  real(kind=4), save :: total = 0.0
  total = total + x
  out = total
end subroutine accum
"""


RECORDER_SHA256 = (
    "595ea971e240766338fbfa26dd3ccedc819a8a8c9790b0d345daf67df486e689")


def _feed_recorder(rec):
    """A fixed, seeded sequence of >3,000 observations: float64 scalar
    triples and arrays at kinds 4 and 8, non-finite elements, zero-size
    and all-non-finite observations, references beyond float32 range
    (NaN ulp at kind 4), missing variable or statement names,
    interleaved cancellations, and array arguments the caller mutates
    after the observation."""
    rng = np.random.default_rng(20240917)
    f = np.float64
    quals = ["m::a", "m::b", "m::c", None]
    labels = ["s:1", "s:2", "s:late", None]
    for i in range(3500):
        qual = quals[i % 4]
        label = labels[(i // 4) % 4] if i >= 40 else labels[i % 2]
        kind = 4 if i % 3 else 8
        step = i % 13
        if step < 8:
            ref = f(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
            stored = f(np.float32(ref)) if kind == 4 else ref
            exact = f(ref * (1.0 + 1e-9 * rng.standard_normal()))
            rec.observe(qual, label, kind, stored, ref, exact)
        elif step == 8:
            n = int(rng.integers(1, 6))
            ref = rng.standard_normal(n)
            stored = ref.astype(np.float32).astype(np.float64)
            exact = ref + 1e-12
            if i % 5 == 0:
                ref[0] = np.nan
            rec.observe(qual, label, kind, stored, ref, exact)
            ref[:] = 1e6         # the caller reuses its buffers
            stored[:] = -1e6
        elif step == 9:
            grid = rng.standard_normal((2, 3))
            rec.observe(qual, label, kind, grid.astype(np.float32)
                        .astype(np.float64), grid, f(grid[0, 0]))
            grid *= 3.0
        elif step == 10:
            rec.observe(qual, label, kind, f(np.inf), f(1.0), f(1.0))
            rec.observe(qual, label, kind, np.array([np.nan, np.inf]),
                        np.array([1.0, 2.0]), np.array([1.0, 2.0]))
            rec.observe(qual, label, kind, np.zeros(0), np.zeros(0),
                        np.zeros(0))
        elif step == 11:
            # Above float32 max: a NaN ulp at kind 4.
            rec.observe(qual, label, kind, f(3.5e38), f(4.0e38), f(4.0e38))
            rec.observe(qual, label, kind, np.array([1.0, 4.0e38]),
                        np.array([1.5, 4.5e38]), f(2.0))
            rec.observe("m::big", None, 4, np.array([1.0, 3.9e38]),
                        np.array([1.25, 4.5e38]), f(2.0))
        else:
            rec.cancellation(qual, label, 8, int(rng.integers(1, 3)))
            rec.observe(qual, label, kind, f(0.0), f(1e-300), f(0.0))


def run_shadow(src, proc, args, calls=1):
    index = analyze(parse_source(src))
    interp = ShadowInterpreter(index, vec_info=analyze_program(index))
    for _ in range(calls):
        interp.call(proc, args)
    return interp.recorder


class TestRecorder:
    def test_catastrophic_cancellation_detected(self):
        rec = run_shadow(CANCEL_SRC, "cancel_demo", [OutBox(None)])
        counters = rec.counters_dict()
        assert counters["cancellations"] == 1
        variables = rec.variables_dict()
        # The subtraction result carries the event; its operands do not.
        assert variables["cancel_demo::c"]["cancellations"] == 1
        assert variables["cancel_demo::a"]["cancellations"] == 0

    def test_local_vs_propagated_decomposition(self):
        rec = run_shadow(CANCEL_SRC, "cancel_demo", [OutBox(None)])
        variables = rec.variables_dict()
        # `a` holds a freshly rounded literal sum: pure local error.
        a = variables["cancel_demo::a"]
        assert a["max_local_error"] == pytest.approx(a["max_rel_error"])
        assert a["max_propagated_error"] == 0.0
        # `c` computes exactly on its stored operands: the cancellation
        # amplifies *inherited* rounding, so its error is propagated.
        c = variables["cancel_demo::c"]
        assert c["max_local_error"] == 0.0
        assert c["max_propagated_error"] == pytest.approx(
            c["max_rel_error"])
        # Cancellation blew a ~1e-8 operand rounding up by ~2**CANCEL_BITS.
        assert c["max_rel_error"] > a["max_rel_error"] * 2 ** (CANCEL_BITS - 2)

    def test_save_variable_carries_its_reference_across_calls(self):
        rec = run_shadow(SAVE_SRC, "accum", [0.1, OutBox(None)], calls=2)
        # Seeded from its primary once, then carried by SAVE.
        assert rec.counters_dict()["untracked"] == 1
        total = rec.variables_dict()["accum::total"]
        primary = float(np.float32(0.1) + np.float32(0.1))
        assert total["last_rel_error"] == abs(primary - 0.2) / 0.2

    def test_statistics_pinned_over_a_fixed_observation_sequence(self):
        rec = ShadowRecorder()
        # A cancellation creates `s:late` (at the reference kind) before
        # that statement is ever observed.
        rec.cancellation(None, "s:late", 8, 2)
        _feed_recorder(rec)
        text = json.dumps([rec.variables_dict(), rec.statements_dict(),
                           rec.counters_dict()], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == RECORDER_SHA256

    def test_profiling_imports_nothing_after_warm_up(self):
        # A lazy import on the profiling path (np.unique pulls in
        # numpy.ma) costs the service a few MB of resident memory.  A
        # fresh interpreter, because other tests import freely.
        script = (
            "import sys\n"
            "from repro.models import build_model\n"
            "from repro.numerics import profile_model\n"
            "build_model('funarc').run(None)\n"
            "before = set(sys.modules)\n"
            "profile_model(build_model('funarc'))\n"
            "print(sorted(set(sys.modules) - before))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_funarc_observations_cover_all_atoms(self):
        model = build_model("funarc")
        profile = profile_model(model)
        observed = {q for q, score in profile.blame() if score > 0.0}
        # Every atom except the dead store d1 accumulates error.
        assert observed == set(model.space.atom_names()) - {
            "funarc_mod::fun::d1"}


#: Constructs the model workloads never reach: derived-type components
#: (read, assigned, passed by reference), WHERE/ELSEWHERE, array-valued
#: functions, array constructors, sections and temporaries passed to
#: dummies, SAVE, cancellation inside actual arguments and function
#: bodies, integer/logical stores of real expressions, and a user
#: function in an array bound.  That function binds through the tree
#: evaluator while ``spread``'s locals are elaborated: its dummy's
#: reference starts from the primary, and ``spread`` keeps the
#: references staged by its own call site.
COVERAGE_SRC = """
module cov
  implicit none
  type :: cell
    real(kind=8) :: h
    real(kind=4), dimension(4) :: w
  end type cell
  real(kind=4) :: bias = 0.25
contains
  subroutine nudge(x)
    implicit none
    real(kind=4), intent(inout) :: x
    x = x * 1.5 + bias
  end subroutine nudge

  subroutine smooth(a, n)
    implicit none
    integer, intent(in) :: n
    real(kind=8), dimension(n), intent(inout) :: a
    integer :: i
    do i = 2, n
      a(i) = 0.5d0 * (a(i) + a(i - 1))
    end do
  end subroutine smooth

  function scaled(a, n) result(r)
    implicit none
    integer, intent(in) :: n
    real(kind=4), dimension(n) :: a
    real(kind=4), dimension(n) :: r
    r = -a * 2.0 + 1.0e-3
  end function scaled

  function diff(a, b) result(d)
    implicit none
    real(kind=4) :: a, b
    real(kind=4) :: d
    d = a - b
  end function diff

  subroutine tally(x, total)
    implicit none
    real(kind=4), intent(in) :: x
    real(kind=4), intent(out) :: total
    real(kind=4), save :: acc = 0.0
    acc = acc + x
    total = acc
  end subroutine tally

  function lead(v, m) result(k)
    implicit none
    real(kind=4), intent(in) :: v
    integer, intent(in) :: m
    integer :: k
    k = m + int(v) - int(v)
  end function lead

  subroutine spread(v, m)
    implicit none
    real(kind=4), intent(inout) :: v
    integer, intent(in) :: m
    real(kind=4), dimension(lead(v, m)) :: buf
    buf = v / 3.0
    v = v + buf(m)
  end subroutine spread

  subroutine driver(n, x, out)
    implicit none
    integer, intent(in) :: n
    real(kind=4), dimension(n), intent(inout) :: x
    real(kind=8), intent(out) :: out
    type(cell) :: c
    real(kind=4), dimension(n) :: y
    real(kind=8), dimension(n) :: z
    real(kind=4) :: t, u
    integer :: k, j
    logical :: flag
    c%h = 1.0d0 / 3.0d0
    c%w = (/ 1.0, 2.0, 3.0, 4.0 /)
    c%w(2) = c%w(2) + real(c%h)
    call nudge(c%w(3))
    t = 1.0 + 2.0e-6
    u = 1.0
    c%h = c%h + diff(t, u)
    call tally(t - u, u)
    call nudge(t)
    call spread(t, n)
    call tally(t, u)
    y = scaled(x, n)
    where (y > 0.0)
      x = y * 0.1d0
    elsewhere
      x = -y
    end where
    z = x
    call smooth(z, n)
    call smooth(z(2:n), n - 1)
    x(1:2) = z(3:4)
    k = int(t * 3.0)
    j = k + 1
    flag = (t > u) .and. (c%h < 2.0d0)
    if (flag) then
      out = sum(z) + maxval(x) + c%h + u + j
    else
      out = -1.0d0
    end if
    out = out + sqrt(abs(c%w(1) - c%w(2))) + min(t, u, 0.5)
    out = out + maxval(scaled(y * 0.5, n))
  end subroutine driver
end module cov
"""

#: sha256 of the recorder statistics of one ``driver`` call per overlay.
COVERAGE_SHA256 = {
    "declared": (
        "017c1b7d18f0bce02a7283428361c9b62f1b3a1e750e07bb1e52de0a22065fc7"),
    "mixed": (
        "769077f94d23e98660d5a7ddc409d528e111b7e8be2631b675991de776fcdee5"),
}
COVERAGE_OVERLAYS = {
    "declared": {},
    "mixed": {"cov::driver::y": 8, "cov::scaled::r": 8,
              "cov::nudge::x": 8, "cov::bias": 8},
}


def _coverage_run(factory, overlay):
    index = analyze(parse_source(COVERAGE_SRC))
    interp = factory(index, overlay=dict(overlay),
                     vec_info=analyze_program(index))
    x = make_array((6,), kind=4)
    x.data[:] = np.array([0.3, -1.7, 2.2, 0.01, -0.6, 5.5],
                         dtype=np.float32)
    box = OutBox(None)
    interp.call("driver", [6, x, box])
    return interp, repr(box.value), x.data.tobytes()


class TestConstructCoverage:
    @pytest.mark.parametrize("name", sorted(COVERAGE_OVERLAYS))
    def test_statistics_pinned_and_primary_transparent(self, name):
        overlay = COVERAGE_OVERLAYS[name]
        tree, tree_out, tree_x = _coverage_run(Interpreter, overlay)
        shadow, out, x = _coverage_run(ShadowInterpreter, overlay)
        assert (out, x) == (tree_out, tree_x)
        assert shadow.ledger.total_ops == tree.ledger.total_ops
        rec = shadow.recorder
        assert rec.counters_dict()["cancellations"] == 2
        text = json.dumps([rec.variables_dict(), rec.statements_dict(),
                           rec.counters_dict()], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == COVERAGE_SHA256[name]


class TestProfileArtifact:
    def test_byte_identical_across_runs(self):
        model = build_model("funarc")
        first = profile_model(model)
        second = profile_model(build_model("funarc"))
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()

    def test_sim_seconds_accounting(self):
        model = build_model("funarc")
        profile = profile_model(model)
        # compile once + shadow run at 3x the nominal runtime.
        assert profile.sim_seconds == pytest.approx(
            model.compile_seconds + 3.0 * model.nominal_runtime_seconds)
        assert profile_sim_seconds(model) == profile.sim_seconds

    def test_save_load_roundtrip(self, tmp_path):
        profile = profile_model(build_model("funarc"))
        path = tmp_path / "prof.json"
        profile.save(path)
        loaded = NumericalProfile.load(path)
        assert loaded.to_json() == profile.to_json()
        assert loaded.digest() == profile.digest()
        assert loaded.ranked_atoms() == profile.ranked_atoms()

    def test_load_missing_raises_profile_error(self, tmp_path):
        with pytest.raises(ProfileError):
            NumericalProfile.load(tmp_path / "absent.json")
        assert issubclass(ProfileError, ReproError)

    def test_load_rejects_unknown_format(self, tmp_path):
        profile = profile_model(build_model("funarc"))
        path = tmp_path / "prof.json"
        payload = profile.to_payload()
        payload["format"] = 99
        import json
        path.write_text(json.dumps(payload))
        with pytest.raises(ProfileError):
            NumericalProfile.load(path)


class TestBlameRanking:
    def test_funarc_blames_the_accumulator(self):
        """The paper's headline finding: the s1 accumulator carries the
        model's sensitivity, everything else is safe to demote."""
        model = build_model("funarc")
        profile = profile_model(model)
        ranked = profile.ranked_atoms()
        assert ranked[0] == "funarc_mod::funarc::s1"
        # s1's all-single error tops the ranking by a wide margin and
        # sits above the acceptance threshold — which is what lets the
        # profile-guided polish prune its singleton demotion unevaluated.
        scores = dict(profile.blame())
        s1 = scores["funarc_mod::funarc::s1"]
        assert s1 > model.error_threshold
        runner_up = max(v for q, v in scores.items()
                        if q != "funarc_mod::funarc::s1")
        assert s1 > 3 * runner_up

    def test_ranking_is_total_and_deterministic(self):
        profile = profile_model(build_model("funarc"))
        ranked = profile.ranked_atoms()
        assert sorted(ranked) == sorted(profile.atom_names)
        scores = [score for _q, score in profile.blame()]
        assert scores == sorted(scores, reverse=True)

    def test_score_of_unknown_atom_is_zero(self):
        profile = profile_model(build_model("funarc"))
        assert profile.score_of("no::such::atom") == 0.0
