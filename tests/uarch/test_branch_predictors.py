"""Tests for YAGS, cascading indirect, RAS, and the composite predictor."""

from repro.isa import Assembler
from repro.uarch.branch import (
    BimodalPredictor,
    CascadingIndirectPredictor,
    FrontEndPredictor,
    GsharePredictor,
    ReturnAddressStack,
    YagsPredictor,
)


def train(predictor, pc, outcomes):
    """Feed a direction predictor an outcome sequence, return accuracy."""
    correct = 0
    for taken in outcomes:
        history = predictor.history
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.shift_history(taken)
        predictor.update(pc, taken, history)
    return correct / len(outcomes)


def test_yags_learns_biased_branch():
    yags = YagsPredictor()
    accuracy = train(yags, 0x1000, [True] * 200)
    assert accuracy > 0.95


def test_yags_learns_alternating_pattern():
    """A pattern predictable from global history: YAGS should lock on."""
    yags = YagsPredictor()
    pattern = [True, False] * 300
    accuracy = train(yags, 0x1000, pattern)
    assert accuracy > 0.9


def test_yags_learns_loop_exit_pattern():
    """TTTN repeating, the classic loop-branch pattern."""
    yags = YagsPredictor()
    pattern = ([True] * 3 + [False]) * 200
    accuracy = train(yags, 0x2000, pattern)
    assert accuracy > 0.9


def test_yags_random_branch_is_hard():
    """The paper's premise: data-dependent unbiased branches defeat YAGS."""
    import random

    rng = random.Random(42)
    yags = YagsPredictor()
    outcomes = [rng.random() < 0.5 for _ in range(2000)]
    accuracy = train(yags, 0x3000, outcomes)
    assert accuracy < 0.65


def test_yags_exception_cache_engages():
    """Two branches aliasing the same choice entry bias; history splits them."""
    yags = YagsPredictor()
    # One PC, direction fully determined by last outcome (period-2) —
    # requires the tagged caches, bimodal alone gets ~50%.
    accuracy = train(yags, 0x4000, [True, False] * 500)
    assert yags.cache_overrides > 0
    assert accuracy > 0.9


def test_yags_rejects_bad_geometry():
    import pytest

    with pytest.raises(ValueError):
        YagsPredictor(choice_entries=1000)


def test_cascading_learns_monomorphic_target():
    pred = CascadingIndirectPredictor()
    pc, target = 0x1000, 0x2000
    history = pred.path_history
    assert pred.predict(pc) in (None, target)
    pred.update(pc, target, history)
    assert pred.predict(pc) == target


def test_cascading_second_stage_separates_polymorphic_targets():
    """Targets alternate based on path: stage 2 should disambiguate."""
    pred = CascadingIndirectPredictor()
    pc = 0x1000
    correct = 0
    total = 400
    for i in range(total):
        # Path history differs because the preceding indirect target differs.
        lead_target = 0x8000 if i % 2 == 0 else 0x9000
        pred.shift_history(lead_target)
        target = 0x2000 if i % 2 == 0 else 0x3000
        history = pred.path_history
        if pred.predict(pc) == target:
            correct += 1
        pred.shift_history(target)
        pred.update(pc, target, history)
    assert correct / total > 0.8
    assert pred.stage2_hits > 0


def test_ras_push_pop_lifo():
    ras = ReturnAddressStack(4)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.predict_and_pop() == 0x200
    assert ras.predict_and_pop() == 0x100
    assert ras.predict_and_pop() == 0  # empty


def test_ras_checkpoint_restore():
    ras = ReturnAddressStack(8)
    ras.push(0x100)
    cp = ras.checkpoint()
    ras.push(0x200)
    ras.predict_and_pop()
    ras.predict_and_pop()
    ras.restore(cp)
    assert ras.predict_and_pop() == 0x100


def test_ras_wraps_when_overflowing():
    ras = ReturnAddressStack(2)
    ras.push(0x1)
    ras.push(0x2)
    ras.push(0x3)  # overwrites the slot that held 0x1
    assert ras.predict_and_pop() == 0x3
    assert ras.predict_and_pop() == 0x2
    # The wrapped slot was overwritten: hardware-faithfully, the stale
    # prediction is 0x3 (the overwriting value), not the lost 0x1.
    assert ras.predict_and_pop() == 0x3


def _branch_insts():
    asm = Assembler()
    asm.label("target")
    cond = asm.beq("r1", "target")
    call = asm.call("target")
    ret = asm.ret()
    jr = asm.jr("r5")
    br = asm.br("target")
    asm.build()
    return cond, call, ret, jr, br


def test_frontend_direct_branches_have_perfect_targets():
    cond, call, ret, jr, br = _branch_insts()
    fe = FrontEndPredictor()
    assert fe.predict(br).target == br.target
    assert fe.predict(call).target == call.target


def test_frontend_call_then_ret_uses_ras():
    cond, call, ret, jr, br = _branch_insts()
    fe = FrontEndPredictor()
    fe.predict(call)
    prediction = fe.predict(ret)
    assert prediction.target == call.pc + 4


def test_frontend_conditional_records_history_snapshot():
    cond, *_ = _branch_insts()
    fe = FrontEndPredictor()
    before = fe.direction.history
    prediction = fe.predict(cond)
    assert prediction.ghr_before == before
    assert fe.direction.history != before or prediction.taken is False


def test_frontend_restore_rewinds_all_histories():
    cond, call, ret, jr, br = _branch_insts()
    fe = FrontEndPredictor()
    ghr0 = fe.direction.history
    ras0 = fe.ras.checkpoint()
    prediction = fe.predict(call)
    fe.predict(cond)
    fe.restore(prediction)
    assert fe.direction.history == ghr0
    assert fe.ras.checkpoint() == ras0


def test_frontend_override_direction_rewrites_target_and_history():
    cond, *_ = _branch_insts()
    fe = FrontEndPredictor()
    prediction = fe.predict(cond)
    fe.override_direction(prediction, cond, taken=True)
    assert prediction.taken is True
    assert prediction.target == cond.target
    assert prediction.from_correlator
    fe.override_direction(prediction, cond, taken=False)
    assert prediction.target == cond.pc + 4


def test_frontend_unknown_indirect_falls_through():
    cond, call, ret, jr, br = _branch_insts()
    fe = FrontEndPredictor()
    prediction = fe.predict(jr)
    assert prediction.target == jr.pc + 4  # no target known yet


def test_bimodal_and_gshare_interfaces():
    for predictor in (BimodalPredictor(), GsharePredictor()):
        accuracy = train(predictor, 0x100, [True] * 100)
        assert accuracy > 0.9
    # gshare handles history patterns that defeat bimodal.
    assert train(GsharePredictor(), 0x100, [True, False] * 200) > 0.85
    assert train(BimodalPredictor(), 0x100, [True, False] * 200) < 0.7


def test_tournament_chooser_picks_the_right_component():
    from repro.uarch.branch import TournamentPredictor

    # Period-2 pattern: global wins; a hammered bias: both fine.
    tournament = TournamentPredictor()
    accuracy = train(tournament, 0x500, [True, False] * 400)
    assert accuracy > 0.9
    accuracy = train(tournament, 0x600, [True] * 300)
    assert accuracy > 0.95


def test_tournament_history_interface_matches_protocol():
    from repro.uarch.branch import TournamentPredictor

    tournament = TournamentPredictor()
    before = tournament.history
    tournament.shift_history(True)
    assert tournament.history == ((before << 1) | 1) & tournament.history_mask
    tournament.history = before  # restorable (squash recovery)
    assert tournament.history == before


def test_tournament_rejects_bad_geometry():
    import pytest

    from repro.uarch.branch import TournamentPredictor

    with pytest.raises(ValueError):
        TournamentPredictor(chooser_entries=1000)


def _warmed_snapshot():
    from repro.harness.fastforward import fast_forward
    from repro.uarch.config import FOUR_WIDE
    from repro.workloads import registry

    return fast_forward(registry.build("mcf", scale=0.2), FOUR_WIDE, 3_000)


def test_load_warm_image_matches_deepcopy():
    """Restoring by list slicing is exactly the deep copy it replaced:
    the restored predictor pickles to the same bytes, and none of its
    tables is the image's own list."""
    import copy
    import pickle

    image = _warmed_snapshot().predictor_image
    image_bytes = pickle.dumps(image)
    restored = FrontEndPredictor()
    restored.load_warm_image(image)
    reference = FrontEndPredictor()
    reference.direction, reference.indirect, reference.ras = copy.deepcopy(
        image
    )
    assert pickle.dumps(restored) == pickle.dumps(reference)
    for mine, source in zip(
        (restored.direction, restored.indirect, restored.ras), image
    ):
        assert mine is not source
        for name, value in vars(source).items():
            if isinstance(value, list):
                assert getattr(mine, name) is not value, name
    assert pickle.dumps(image) == image_bytes


def test_cores_restored_from_one_snapshot_share_no_predictor_state():
    """Training one restored Core's predictor leaves a sibling restored
    from the same in-memory snapshot, and the snapshot, unchanged."""
    import pickle

    from repro.uarch.config import FOUR_WIDE
    from repro.uarch.core import Core
    from repro.workloads import registry

    snap = _warmed_snapshot()
    program = registry.build("mcf", scale=0.2).program
    image_bytes = pickle.dumps(snap.predictor_image)
    trained = Core(program, FOUR_WIDE, snapshot=snap, region=2_000)
    sibling = Core(program, FOUR_WIDE, snapshot=snap, region=2_000)
    sibling_bytes = pickle.dumps(sibling.predictor)
    assert pickle.dumps(trained.predictor) == sibling_bytes

    trained.run()
    assert pickle.dumps(trained.predictor) != sibling_bytes
    assert pickle.dumps(sibling.predictor) == sibling_bytes
    assert pickle.dumps(snap.predictor_image) == image_bytes
