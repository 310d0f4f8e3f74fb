"""Property tests for the variant-batched backend (repro.fortran.batch).

The lockstep engine's contract is simple: every lane of a
:class:`VariantBatch` is **bit-identical** — observable bytes, stdout,
ledger fingerprint, raised errors — to a scalar compiled run of the
same precision overlay, no matter how the wave is shaped.  These tests
pin the three shape properties the campaign integration relies on:

* batch-of-one: a width-1 wave is the compiled backend, bit for bit;
* wave invariance: permuting lanes or re-chunking one wave into
  several must not move a single bit of any lane's artifacts (the
  oracle chunks waves by search-algorithm batch size, and resume can
  re-chunk differently than the original run);
* the fallback valve: lanes the engine sends to the scalar path (here:
  a NaN store, whose scalar/array bit semantics NumPy does not keep
  consistent) are byte-identical to a pure compiled run, and lanes
  that stay vectorized are unaffected by their fallen-back neighbours.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.assignment import PrecisionAssignment
from repro.core.evaluation import Evaluator
from repro.fortran import (CompiledInterpreter, OutBox, VariantBatch,
                           analyze, analyze_program, parse_source)
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from repro.models import FunarcCase
from repro.perf import ledger_fingerprint


def _artifacts(interp):
    """Full artifact set of one driver() run, bitwise-comparable."""
    box = OutBox(None)
    error = None
    try:
        interp.call("driver", [box])
    except Exception as exc:  # noqa: BLE001 - errors must match too
        error = (type(exc).__name__, str(exc))
    value = box.value
    observable = (value.tobytes(), str(value.dtype)) \
        if hasattr(value, "tobytes") else repr(value)
    return {
        "observable": observable,
        "stdout": tuple(interp.stdout),
        "ledger": ledger_fingerprint(interp.ledger),
        "error": error,
    }


_SOURCE = """\
module pb
  implicit none
  real(kind=8) :: acc
contains
  function step(x, y) result(r)
    implicit none
    real(kind=8) :: x
    real(kind=4) :: y
    real(kind=8) :: r
    r = x * 1.000001d0 + sin(y) * 0.125d0
    acc = acc + r * 1.0d-3
  end function step

  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t
    real(kind=4) :: s
    acc = 0.25d0
    t = 1.5d0
    s = 0.5
    do i = 1, 12
      t = step(t, s)
      s = s + 0.125
      if (s > 1.0) then
        t = t - 0.0625d0
      end if
    end do
    out = t + s + acc
  end subroutine driver
end module pb
"""

#: Overlay-targetable reals of the miniature above.
_ATOMS = ("pb::acc", "pb::step::x", "pb::step::y", "pb::step::r",
          "pb::driver::t", "pb::driver::s")

#: driver() stores sqrt(-t) when t's overlay kind makes epsilon large —
#: i.e. exactly the single-precision lanes hit the NaN store and must
#: take the scalar fallback while double lanes stay vectorized.
_FALLBACK_SOURCE = """\
module fb
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t, bad
    t = 2.0d0
    do i = 1, 6
      t = t * 1.25d0 - 0.5d0
    end do
    if (epsilon(t) > 1.0d-10) then
      bad = sqrt(-1.0d0)
      t = t + bad
    end if
    out = t
  end subroutine driver
end module fb
"""


def _analyzed(source):
    index = analyze(parse_source(source))
    return index, analyze_program(index)


def _overlays(seed, count):
    rng = random.Random(seed)
    return [
        {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
         for atom in _ATOMS if rng.random() < 0.6}
        for _ in range(count)
    ]


def _compiled(index, vec, overlay):
    return _artifacts(CompiledInterpreter(
        index, overlay=dict(overlay), vec_info=vec, max_ops=1_000_000))


def _wave(index, vec, overlays):
    batch = VariantBatch(index, [dict(o) for o in overlays],
                         vec_info=vec, max_ops=1_000_000)
    arts = [_artifacts(batch.lane(i)) for i in range(len(overlays))]
    return batch, arts


class TestBatchOfOne:
    def test_width_one_is_compiled_bit_for_bit(self):
        index, vec = _analyzed(_SOURCE)
        for overlay in _overlays("batch-of-one", 8):
            _, arts = _wave(index, vec, [overlay])
            assert arts[0] == _compiled(index, vec, overlay)

    def test_evaluator_batch_of_one_matches_scalar_record(self):
        model = FunarcCase(n=60)
        space = model.space
        rng = random.Random("batch-of-one-evaluator")
        kinds = tuple(rng.choice(space.levels) for _ in space.atoms)
        assignment = PrecisionAssignment(atoms=space.atoms, kinds=kinds)
        batched = Evaluator(model, backend="batched")
        compiled = Evaluator(model, backend="compiled")
        (record,) = batched.evaluate_assigned_batch([(assignment, 7)])
        assert record == compiled.evaluate_assigned(assignment, 7)


class TestWaveInvariance:
    def test_lane_results_invariant_under_permutation(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("permute", 9)
        _, base = _wave(index, vec, overlays)
        rng = random.Random("permute-order")
        perm = list(range(len(overlays)))
        rng.shuffle(perm)
        _, shuffled = _wave(index, vec, [overlays[i] for i in perm])
        for new_lane, old_lane in enumerate(perm):
            assert shuffled[new_lane] == base[old_lane], (
                f"lane {old_lane} drifted when moved to {new_lane}")

    def test_lane_results_invariant_under_rechunking(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("rechunk", 10)
        _, whole = _wave(index, vec, overlays)
        for split in (1, 4, 7):
            _, left = _wave(index, vec, overlays[:split])
            _, right = _wave(index, vec, overlays[split:])
            assert left + right == whole, f"re-chunk at {split} drifted"

    def test_every_lane_matches_compiled(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("vs-compiled", 12)
        _, arts = _wave(index, vec, overlays)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")


class TestScalarFallback:
    def test_fallback_lanes_byte_identical_to_pure_compiled(self):
        index, vec = _analyzed(_FALLBACK_SOURCE)
        # Alternate double (vectorized) and single (NaN store ->
        # fallback) lanes within one wave.
        overlays = [
            {"fb::driver::t": KIND_DOUBLE, "fb::driver::bad": KIND_DOUBLE},
            {"fb::driver::t": KIND_SINGLE},
            {},
            {"fb::driver::t": KIND_SINGLE, "fb::driver::bad": KIND_SINGLE},
        ]
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert stats.fallback_lanes == 2, vars(stats)
        assert stats.vector_lanes == 2
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")
        # The fallen-back lanes really did leave the vector path.
        assert batch.lanes[1].fell_back
        assert batch.lanes[3].fell_back
        assert not batch.lanes[0].fell_back
        assert not batch.lanes[2].fell_back

    def test_nan_observables_match_scalar_bitwise(self):
        # The NaN itself must round-trip bit-exactly through the
        # fallback (NumPy array ops would flip its sign bit).
        index, vec = _analyzed(_FALLBACK_SOURCE)
        overlay = {"fb::driver::t": KIND_SINGLE}
        _, arts = _wave(index, vec, [overlay, {}])
        compiled = _compiled(index, vec, overlay)
        obs_bytes, dtype = arts[0]["observable"]
        assert np.isnan(np.frombuffer(obs_bytes, dtype=dtype)[0])
        assert arts[0] == compiled


#: The differential fuzzer's shrunk reproducer (seed 977, program 54):
#: ``abs(3)`` is a NumPy integer in the scalar engines, so its product
#: with the float32 ``sign(3.0, d1)`` is float64 there and storing it
#: into ``f0`` charges a convert.
_NUMPY_INT_SOURCE = """\
module fz
  implicit none
  real(kind=8) :: acc
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: d0, d1, d2
    real(kind=4) :: f0, f1
    acc = 0.25d0
    d0 = 1.5d0
    d1 = -0.75d0
    d2 = 2.25d0
    f0 = 0.5
    f1 = 1.75
    f0 = (abs(3) * sign(3.0, d1))
    out = d0 + d1 + d2 + f0 + f1 + acc
  end subroutine driver
end module fz
"""


class TestNumpyIntegerOperands:
    def test_fuzz_reproducer_matches_compiled(self):
        index, vec = _analyzed(_NUMPY_INT_SOURCE)
        _, arts = _wave(index, vec, [{}])
        assert arts[0] == _compiled(index, vec, {})

    @pytest.mark.parametrize("expr", [
        "abs(7) * f1", "(abs(7) + 1) * f1", "-merge(1, 2, d1 > 0.0d0) * f1",
        "mod(f1, abs(3))", "atan2(abs(3), f1)", "merge(f1, abs(3), d1 > 0)",
    ])
    def test_only_float32_lanes_fall_back(self, expr):
        source = _NUMPY_INT_SOURCE.replace("(abs(3) * sign(3.0, d1))", expr)
        index, vec = _analyzed(source)
        overlays = [{}, {"fz::driver::f1": KIND_DOUBLE}]
        batch, arts = _wave(index, vec, overlays)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")
        assert batch.lanes[0].fell_back
        assert not batch.lanes[1].fell_back
