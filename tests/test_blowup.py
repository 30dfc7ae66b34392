"""Tests for the blow-up multiplicity simulator."""

import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest

from slopelab import blowup
from slopelab.blowup import (
    BlowupStep,
    ComponentKind,
    Fan,
    blow_up,
    initial_state,
    replay,
    report_to_dict,
    report_to_text,
    step_from_dict,
    verify_inequality,
)
from slopelab.cli import main as cli_main
from slopelab.errors import FalsificationError, ScriptError
from slopelab.randomgen import random_abstract_step, random_chain_script, random_toric_step
from slopelab.selftest import check_blowup

F = Fraction


def origin_blowup_state():
    # Z = div(x1 x2) with a = (1,1); S = 2 D1 + 3 D2.
    state = initial_state(2, [1, 1], [2, 3], "toric")
    return blow_up(state, BlowupStep(center=("D1", "D2")))


def test_origin_blowup_multiplicities():
    state = origin_blowup_state()
    new = state.components[-1]
    assert new.kind is ComponentKind.EXCEPTIONAL
    assert new.ray == (1, 1)
    assert new.vZ == 2  # toric valuation of x1*x2 along (1,1)
    assert new.vS == 5
    assert state.degS == 5
    report = verify_inequality(state)
    assert report.ok
    row = next(r for r in report.rows if r.id == new.id)
    assert row.bound == 10 and row.margin == 5


def test_base_case_rows_hold_initially():
    # r_i <= deg S <= deg S * a_i on every checked row, for any initial state.
    rng = random.Random(56)
    states = [initial_state(2, [1, 2], [F(1, 2), 3], "toric")]
    for _ in range(200):
        dim = rng.randint(1, 4)
        a = [rng.choice((0, 0, 1, 2, 3)) for _ in range(dim)]
        a[rng.randrange(dim)] = rng.randint(1, 3)
        r = [F(rng.randint(0, 7), rng.randint(1, 4)) for _ in range(dim)]
        states.append(initial_state(dim, a, r, rng.choice(("toric", "abstract"))))
    for state in states:
        report = verify_inequality(state)
        assert report.ok
        for row in report.rows:
            if row.checked:
                assert row.vS <= state.degS * row.vZ
                assert row.margin >= 0


def test_center_meeting_only_one_component():
    # Abstract center with alpha = (1, 0) and all eps zero.
    state = initial_state(2, [2, 1], [0, 3], "abstract")
    out = blow_up(state, BlowupStep(alpha=(1, 0), epsS=(), epsE=()))
    new = out.components[-1]
    assert new.vZ == 2  # a_1 * alpha_1
    assert new.vS == 0


def test_second_blowup_follows_recursion():
    state = origin_blowup_state()
    # Center {E1, D1}: vZ(P') = vZ(E1) + a_1, vS(P') = vS(E1) + r_1.
    out = blow_up(state, BlowupStep(center=("E1", "D1")))
    first = state.components[-1]
    new = out.components[-1]
    assert new.ray == (2, 1)
    assert new.vZ == first.vZ + 1
    assert new.vS == first.vS + 2
    assert verify_inequality(out).ok


def test_toric_rejects_inadmissible_centers():
    state = initial_state(2, [1, 0], [2, 3], "toric")
    with pytest.raises(ScriptError, match="condition \\(i\\)"):
        blow_up(state, BlowupStep(center=("D2",)))
    with pytest.raises(ScriptError, match="condition \\(ii\\)"):
        blow_up(state, BlowupStep(center=("D1",)))
    with pytest.raises(ScriptError, match="unknown component"):
        blow_up(state, BlowupStep(center=("D1", "D9")))
    # After subdividing at {D1, D2}, the pair (D1, D2) is no longer a cone.
    once = blow_up(state, BlowupStep(center=("D1", "D2")))
    with pytest.raises(ScriptError, match="condition \\(iii\\)"):
        blow_up(once, BlowupStep(center=("D1", "D2")))


def test_abstract_rejects_bad_incidences():
    state = initial_state(2, [1, 1], [2, 0], "abstract")
    with pytest.raises(ScriptError, match="condition \\(i\\)"):
        blow_up(state, BlowupStep(alpha=(0, 0)))
    with pytest.raises(ScriptError, match="one incidence per strict-Z"):
        blow_up(state, BlowupStep(alpha=(1,)))
    with pytest.raises(ScriptError, match="0 or 1"):
        # D1 carries S (r_1 = 2 > 0): its incidence must stay within {0, 1}.
        blow_up(state, BlowupStep(alpha=(2, 0)))
    # A pure strict-Z component (r = 0) may have incidence > 1.
    out = blow_up(state, BlowupStep(alpha=(0, 2)))
    assert out.components[-1].vZ == 2
    with pytest.raises(ScriptError, match="in \\{0, 1\\}"):
        blow_up(out, BlowupStep(alpha=(1, 0), epsE=(2,)))


@pytest.mark.parametrize("mode, step, message", [
    # Toric: distinct ids, then unknown ids, then (i), (ii), (iii).
    ("toric", BlowupStep(center=("D9", "D9")), "nonempty set of distinct ids"),
    ("toric", BlowupStep(center=("D2", "D2")), "nonempty set of distinct ids"),
    ("toric", BlowupStep(center=()), "nonempty set of distinct ids"),
    ("toric", BlowupStep(center=("D2", "D9")), "unknown component id 'D9'"),
    # Abstract: the list lengths, then alpha >= 0, then eps in {0, 1}, then
    # (i), then a strict-Z component that also carries S; these last two
    # never fail together.
    ("abstract", BlowupStep(alpha=(0, 0)), "one incidence per strict-Z"),
    ("abstract", BlowupStep(alpha=(0,), epsS=(1, 1)), "one flag per strict-S"),
    ("abstract", BlowupStep(alpha=(0,), epsE=(2,)), "one flag per exceptional"),
    ("abstract", BlowupStep(alpha=(-1,), epsS=(2,)), "must be nonnegative"),
    ("abstract", BlowupStep(alpha=(0,), epsS=(2,)), "in \\{0, 1\\}"),
])
def test_the_first_violated_rule_names_the_error(mode, step, message):
    # D1 carries Z and S, D2 only S.  Each step breaks the named rule and
    # a later one, or (for the empty center) only the first rule.
    state = initial_state(2, [1, 0], [2, 3], mode)
    with pytest.raises(ScriptError, match=message):
        blow_up(state, step)


def test_toric_steps_agree_with_their_abstract_incidences():
    # The indicator of a toric center, read as an abstract step on the same
    # components, must give the new component the same multiplicities.
    rng = random.Random(54)
    steps = 0
    for _ in range(200):
        script = random_chain_script(rng, mode="toric")
        after = initial_state(script["dim"], script["Z"]["a"], script["S"]["r"],
                              "toric")
        for raw in script["steps"]:
            before, after = after, blow_up(after, step_from_dict(raw, "toric"))
            def indicator(kind):
                return tuple(int(c.id in raw["center"]) for c in before.by_kind(kind))

            abstract = blow_up(
                dataclasses.replace(before, mode="abstract", fan=None),
                BlowupStep(alpha=indicator(ComponentKind.STRICT_Z),
                           epsS=indicator(ComponentKind.STRICT_S),
                           epsE=indicator(ComponentKind.EXCEPTIONAL)))
            toric_new, abstract_new = after.components[-1], abstract.components[-1]
            assert (abstract_new.id, abstract_new.vZ, abstract_new.vS) == \
                (toric_new.id, toric_new.vZ, toric_new.vS), script
            steps += 1
    assert steps > 500


@pytest.mark.parametrize("mode", ["toric", "abstract"])
def test_blowup_failures_print_a_replayable_script(tmp_path, capsys,
                                                   monkeypatch, mode):
    rng = random.Random(55)
    script = random_chain_script(rng, mode=mode, max_steps=6)
    state = replay(script)
    last = state.steps_applied
    assert last >= 2
    # Flag the last state of the chain, so that only the check goes red.
    real = blowup.verify_inequality

    def flag_last(state):
        report = real(state)
        if state.steps_applied < last:
            return report
        return dataclasses.replace(report, violations=(state.components[-1].id,))

    monkeypatch.setattr(blowup, "verify_inequality", flag_last)
    (failure,) = check_blowup([script]).failures
    monkeypatch.undo()
    assert failure.startswith("case 0: chain: inequality violated at ")
    assert f"after step {last}; script for slopelab blowup -s: " in failure
    replay_path = tmp_path / "replay.blowup"
    replay_path.write_text(failure.split("blowup -s: ")[1])
    assert cli_main(["blowup", "-s", str(replay_path), "--verify", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == last and data["mode"] == mode


def test_per_step_verdicts_match_a_verify_of_every_prefix(tmp_path, capsys):
    # Oracle: build every prefix state step by step and verify each one.
    rng = random.Random(57)
    for i in range(120):
        script = random_chain_script(rng, mode="toric" if i % 2 else "abstract")
        state = initial_state(script["dim"], script["Z"]["a"], script["S"]["r"],
                              script["mode"])
        per_step = []
        for step, raw in enumerate(script["steps"], start=1):
            state = blow_up(state, step_from_dict(raw, script["mode"]))
            per_step.append({"step": step, "ok": verify_inequality(state).ok})
        path = tmp_path / f"chain{i}.blowup"
        path.write_text(json.dumps(script))
        assert cli_main(["blowup", "-s", str(path), "--verify", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["per_step"] == per_step, script
        assert data["steps"] == len(per_step), script
        assert data["components"] == report_to_dict(verify_inequality(state))["components"]


def test_per_step_verdicts_turn_red_from_the_first_violated_row(tmp_path, capsys,
                                                                 monkeypatch):
    rng = random.Random(58)
    script = random_chain_script(rng, mode="toric")
    while len(script["steps"]) < 3:
        script = random_chain_script(rng, mode="toric")
    path = tmp_path / "chain.blowup"
    path.write_text(json.dumps(script))
    real = blowup.verify_inequality

    def flag_e2(state):
        report = real(state)
        if all(c.id != "E2" for c in state.components):
            return report
        return dataclasses.replace(report, violations=("E2",))

    monkeypatch.setattr(blowup, "verify_inequality", flag_e2)
    assert cli_main(["blowup", "-s", str(path), "--verify"]) == 2
    captured = capsys.readouterr()
    verdicts = [line for line in captured.out.splitlines() if line.startswith("step ")]
    assert verdicts == ["step 1: ok"] + [
        f"step {i}: INEQUALITY VIOLATED" for i in range(2, len(script["steps"]) + 1)]
    assert "E2" in captured.err


def test_exceptional_components_accumulate_and_keep_values():
    state = initial_state(3, [1, 1, 1], [1, 0, 2], "toric")
    s1 = blow_up(state, BlowupStep(center=("D1", "D2")))
    v1 = s1.components[-1]
    s2 = blow_up(s1, BlowupStep(center=("E1", "D3")))
    assert s2.components[-1].id == "E2"
    # Strict transforms and older exceptional components keep their values.
    assert s2.components[s1.components.index(v1)].vZ == v1.vZ
    assert [c.id for c in s2.components] == ["D1", "D2", "D3", "E1", "E2"]
    assert verify_inequality(s2).ok


def test_toric_valuation_linearity_on_deeper_chains():
    rng = random.Random(51)
    res = check_blowup([random_chain_script(rng, mode="toric", max_steps=5)
                        for _ in range(30)])
    assert res.ok, res.failures


def test_random_chains_never_violate_the_inequality():
    rng = random.Random(52)
    res = check_blowup([random_chain_script(rng) for _ in range(120)])
    assert res.ok, res.failures


def test_smooth_fan_invariant_unimodular_cones():
    # Every maximal cone of every toric chain stays unimodular.
    def det(mat):
        mat = [row[:] for row in mat]
        n = len(mat)
        result = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if mat[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                result = -result
            for r in range(col + 1, n):
                while mat[r][col]:
                    q = mat[r][col] // mat[col][col]
                    if q:
                        mat[r] = [x - q * y for x, y in zip(mat[r], mat[col])]
                    if mat[r][col]:
                        mat[col], mat[r] = mat[r], mat[col]
                        result = -result
            result *= mat[col][col]
        return result

    rng = random.Random(53)
    for _ in range(20):
        state = replay(random_chain_script(rng, mode="toric", max_steps=4))
        fan = state.fan
        for cone in fan.max_cones:
            rays = [list(fan.rays[i]) for i in sorted(cone)]
            assert abs(det(rays)) == 1


# ---------------------------------------------------------------------------
# Scripts.
# ---------------------------------------------------------------------------

def test_abstract_step_defaults_missing_eps_to_zero():
    state = initial_state(2, [1, 1], [2, 0], "abstract")
    out = blow_up(state, BlowupStep(alpha=(1, 1)))
    new = out.components[-1]
    assert new.vZ == 2
    assert new.vS == 2  # only D1's r contributes, through its alpha


def test_empty_script_gives_initial_state():
    state = replay({"dim": 2, "Z": {"a": [1, 1]},
                    "S": {"r": ["2", "3"]}, "mode": "toric",
                    "steps": []})
    assert state.steps_applied == 0
    assert [c.id for c in state.components] == ["D1", "D2"]


def test_one_step_script_matches_directly_built_state():
    script = {"dim": 2, "Z": {"a": [1, 1]}, "S": {"r": ["2", "3"]},
              "mode": "toric", "steps": [{"center": ["D1", "D2"]}]}
    state = replay(script)
    assert state == origin_blowup_state()


def test_script_errors_cite_the_step_index():
    script = {"dim": 2, "Z": {"a": [1, 0]}, "S": {"r": ["2", "3"]},
              "mode": "toric",
              "steps": [{"center": ["D1", "D2"]}, {"center": ["D2", "E1"]}]}
    with pytest.raises(ScriptError, match="step 2.*condition \\(i\\)"):
        replay(script)


def test_abstract_script_round_trip():
    script = {"dim": 3, "Z": {"a": [1, 2, 0]}, "S": {"r": ["1/2", "0", "3"]},
              "mode": "abstract",
              "steps": [{"alpha": [1, 0], "epsS": [1], "epsE": []},
                        {"alpha": [0, 2], "epsS": [0], "epsE": [1]}]}
    state = replay(script)
    assert state.steps_applied == 2
    e1, e2 = state.components[-2], state.components[-1]
    assert e1.vZ == 1 and e1.vS == F(1, 2) + 3
    assert e2.vZ == 4 + e1.vZ and e2.vS == e1.vS
    report = report_to_dict(verify_inequality(state))
    assert report["ok"] is True
    assert report["degS"] == "7/2"


def test_report_text_mentions_violations_loudly():
    state = origin_blowup_state()
    text = report_to_text(verify_inequality(state))
    assert "inequality: OK" in text
    assert "E1" in text and "deg S = 5" in text


# ---------------------------------------------------------------------------
# Integer multiplicities over S's common denominator, and the checks on them.
# ---------------------------------------------------------------------------

MIXED = {"dim": 3, "mode": "toric", "Z": {"a": [1, 1, 0]},
         "S": {"r": ["1/3", "1/4", "5/6"]},
         "steps": [{"center": ["D1", "D2"]}, {"center": ["D1", "E1"]},
                   {"center": ["D2", "D3", "E1"]}]}


def _with_last_row(state, row):
    return dataclasses.replace(state, components=state.components[:-1] + (row,))


def test_mixed_denominator_script_prints_reduced_fractions(tmp_path, capsys):
    path = tmp_path / "mixed.blowup"
    path.write_text(json.dumps(MIXED))
    assert cli_main(["blowup", "-s", str(path), "--verify"]) == 0
    assert capsys.readouterr().out == (
        'step 1: ok\n'
        'step 2: ok\n'
        'step 3: ok\n'
        'deg S = 17/12\n'
        'id    kind         ray              vZ       vS    bound   margin\n'
        'D1    strict-Z     (1,0,0)           1      1/3    17/12    13/12\n'
        'D2    strict-Z     (0,1,0)           1      1/4    17/12      7/6\n'
        'D3    strict-S     (0,0,1)           0      5/6        0     -5/6  (not over Z)\n'
        'E1    exceptional  (1,1,0)           2     7/12     17/6      9/4\n'
        'E2    exceptional  (2,1,0)           3    11/12     17/4     10/3\n'
        'E3    exceptional  (1,2,1)           3      5/3     17/4    31/12\n'
        'inequality: OK\n'
    )


def test_rows_compare_by_value_whatever_the_denominator():
    # D2 carries r = 1 and vZ = 0 in both states; S's common denominator is
    # 2 in the first and 1 in the second.
    halves = initial_state(2, [1, 0], [F(1, 2), 1]).components[1]
    units = initial_state(2, [1, 0], [F(2), 1]).components[1]
    assert halves.den != units.den
    assert halves == units and hash(halves) == hash(units)
    assert halves != initial_state(2, [1, 0], [F(1, 2), 2]).components[1]


def test_rows_follow_the_fraction_rule_for_mixed_denominators():
    # Oracle: each new row's vZ and vS as Fraction sums of w(C) vZ(C) and
    # w(C) vS(C), with w read off the step kind by kind; bound, margin and
    # the toric pairing recomputed from them.
    rng = random.Random(59)
    steps = 0
    for i in range(200):
        mode = "toric" if i % 2 else "abstract"
        dim = rng.randint(2, 4)
        a = [rng.randint(0, 3) for _ in range(dim)]
        a[rng.randrange(dim)] = rng.randint(1, 3)
        r = [F(rng.randint(0, 7), rng.choice((1, 2, 3, 4, 6))) for _ in range(dim)]
        degS = sum(r, F(0))
        state = initial_state(dim, a, r, mode)
        values = list(zip(a, r))
        for _ in range(rng.randint(1, 6)):
            if mode == "toric":
                step = random_toric_step(rng, state)
                if step is None:
                    break
                w = [int(c.id in step.center) for c in state.components]
            else:
                step = random_abstract_step(rng, state)
                given = {ComponentKind.STRICT_Z: iter(step.alpha),
                         ComponentKind.STRICT_S: iter(step.epsS),
                         ComponentKind.EXCEPTIONAL: iter(step.epsE)}
                w = [next(given[c.kind]) for c in state.components]
            state = blow_up(state, step)
            values.append((sum(x * z for x, (z, _) in zip(w, values)),
                           sum((x * v for x, (_, v) in zip(w, values)), F(0))))
            assert len(state.components) == len(values)
            for row, (vZ, vS) in zip(state.components, values):
                assert (row.vZ, row.vS, row.bound, row.margin) == \
                    (vZ, vS, degS * vZ, degS * vZ - vS), (a, r, row)
                if mode == "toric":
                    assert sum(n * z for n, z in zip(row.ray, a)) == vZ
                    assert sum((n * v for n, v in zip(row.ray, r)), F(0)) == vS
            assert verify_inequality(state).ok
            assert (state.degS, state.s_vector) == (degS, tuple(r))
            steps += 1
    assert steps > 400


def test_verify_lists_a_row_a_twelfth_over_its_bound():
    # E3 has vZ = 3 and bound 17/4 over deg S = 17/12; one twelfth more vS
    # puts its margin at -1/12, and the derived margin must show it.
    state = replay(MIXED)
    e3 = state.components[-1]
    assert (e3.bound, e3.margin) == (F(17, 4), F(31, 12))
    bad = dataclasses.replace(e3, nS=e3.ndeg * e3.vZ + 1)
    assert (bad.vS, bad.bound, bad.margin) == (F(13, 3), F(17, 4), F(-1, 12))
    report = verify_inequality(_with_last_row(state, bad))
    assert report.violations == ("E3",) and not report.ok


def test_the_induction_chain_fires_on_an_exceptional_row_above_its_bound():
    # E1 (vZ 2, vS 5/4 over deg S = 5/4) pushed to vS = 11/4; a step that
    # meets it breaks the chain's last line, sum eps_E vS(E) <= degS *
    # sum eps_E vZ(E).
    state = blow_up(initial_state(2, [1, 1], [F(1, 2), F(3, 4)], "abstract"),
                    BlowupStep(alpha=(1, 1)))
    e1 = state.components[-1]
    state = _with_last_row(state, dataclasses.replace(e1, nS=e1.ndeg * e1.vZ + 1))
    with pytest.raises(FalsificationError, match=re.escape(
            "induction chain failed: 15/4 >= 15/4 >= 3 >= 13/4 (degS=5/4)")):
        blow_up(state, BlowupStep(alpha=(1, 0), epsE=(1,)))


def test_the_pairing_check_fires_on_a_wrong_ray(monkeypatch):
    real = Fan.star_subdivide

    def shifted(fan, indices):
        new_fan, ray = real(fan, indices)
        return new_fan, (ray[0] + 1,) + ray[1:]

    monkeypatch.setattr(Fan, "star_subdivide", shifted)
    state = initial_state(2, [1, 1], [F(1, 2), F(3, 4)], "toric")
    with pytest.raises(FalsificationError, match=re.escape(
            "ray (2, 1) gives (3, 7/4), recursion gives (2, 5/4)")):
        blow_up(state, BlowupStep(center=("D1", "D2")))


def test_star_subdivide_refuses_a_non_smooth_fan():
    fan = Fan(((1, 0), (1, 2)), (frozenset({0, 1}),))
    with pytest.raises(FalsificationError, match=re.escape("non-primitive ray (2, 2)")):
        fan.star_subdivide(frozenset({0, 1}))
