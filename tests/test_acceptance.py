"""Acceptance gate: one test per shipping criterion, one status line each.

Every criterion is exercised end to end at its stated tolerance (exact
values unless the criterion itself says otherwise) and reports a single
``PASS criterion N: ...`` line, or a ``FAIL criterion N: ...`` line right
before the assertion error."""

import contextlib
import random
from fractions import Fraction

from xresp import (
    ConstraintSet,
    Entity,
    emit_cip,
    enumerate_counterfactuals,
    explanations_of,
    load_dataset,
    min_change_versions,
    model_atom_sets,
    parse_facts,
    parse_program,
    stable_models,
    to_percent,
    train,
    xresp,
)
from xresp.queries import answer, parse_query

from conftest import DEMO_PROGRAM
from oracles import (
    oracle_minimal_models,
    oracle_stable_models,
    strict_actual_cause,
    random_instance,
    random_positive_program,
    random_program,
)
from test_emitter import LEGACY, assert_matches_handwritten_reference
from test_engine import EXPECTED_SCORES, EXPECTED_VERSIONS
from test_naive_bayes import EXACT_CONDITIONALS, PERCENT_CONDITIONALS, STAGED_TABLE
from test_queries import REFERENCE_ANSWERS


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except AssertionError:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def test_criterion_01_training_tables(weather_model, weather_percent):
    with criterion(1, "exact training probabilities and all 22 percent facts"):
        assert weather_model.prior == {
            "yes": Fraction(9, 14), "no": Fraction(5, 14)
        }
        for (feature, value), (p_yes, p_no) in EXACT_CONDITIONALS.items():
            assert weather_model.conditional[(feature, value, "yes")] == p_yes
            assert weather_model.conditional[(feature, value, "no")] == p_no
        assert weather_percent.prior == {"yes": 64, "no": 36}
        for (feature, value), (pct_yes, pct_no) in PERCENT_CONDITIONALS.items():
            assert weather_percent.conditional[(feature, value, "yes")] == pct_yes
            assert weather_percent.conditional[(feature, value, "no")] == pct_no
        assert len(weather_percent.prior) + len(weather_percent.conditional) == 22


def test_criterion_02_staged_scores(weather_percent):
    listed = {
        20665, 4608, 10156, 18432, 5004, 27648, 6777, 10368,
        6771, 10304, 7513, 13824, 13977, 6880, 41472, 20736,
    }
    with criterion(2, "staged pipeline reproduces every published score"):
        produced = set()
        for state, (f_yes, f_no) in STAGED_TABLE.items():
            _, got_yes, got_no = weather_percent.classify(state)
            assert (got_yes, got_no) == (f_yes, f_no)
            produced |= {got_yes, got_no}
        assert produced == listed


def test_criterion_03_exact_classification(weather_model, weather_entity):
    with criterion(3, "exact rational scores 4/189 vs 4/875, labeled yes"):
        label, f_yes, f_no = weather_model.classify(weather_entity.values)
        assert label == "yes"
        assert (f_yes, f_no) == (Fraction(4, 189), Fraction(4, 875))


def test_criterion_04_the_ten_versions(weather_versions):
    with criterion(4, "exactly the ten counterfactual versions, as a set"):
        assert {v.final: set(v.changed) for v in weather_versions} == (
            EXPECTED_VERSIONS
        )


def test_criterion_05_min_change(weather_versions):
    with criterion(5, "unique minimum-change version rain,high,high,weak"):
        assert [v.final for v in min_change_versions(weather_versions)] == [
            ("rain", "high", "high", "weak")
        ]


def test_criterion_06_xresp_scores(weather_percent, weather_entity,
                                   weather_versions):
    with criterion(6, "x-resp 1, 1/2, 1/3, 1/2 with oracle cross-check"):
        report = xresp(
            explanations_of(
                weather_versions, weather_entity, weather_percent.schema
            ),
            weather_percent.schema,
        )
        assert dict(report.scores) == EXPECTED_SCORES
        # brute-force contingency search agrees wherever it finds a cause
        for feature, size in (("Humidity", 0), ("Outlook", 1), ("Wind", 1)):
            assert strict_actual_cause(
                weather_percent, weather_entity, feature
            ) == (True, size)
            assert report.scores[feature] == Fraction(1, size + 1)


def test_criterion_07_forbidden_pair(weather_percent, weather_entity,
                                     weather_versions):
    with criterion(7, "forbidding Temperature=high & Wind=strong removes "
                      "exactly the two matching versions"):
        constraints = ConstraintSet(
            schema=weather_percent.schema,
            forbidden=({"Temperature": "high", "Wind": "strong"},),
        )
        kept = enumerate_counterfactuals(
            weather_percent, weather_entity, constraints
        )
        removed = {v.final for v in weather_versions} - {v.final for v in kept}
        assert removed == {
            ("rain", "high", "high", "strong"),
            ("sunny", "high", "normal", "strong"),
        }


def test_criterion_08_query_goldens(weather_atom_sets):
    from xresp.schema import render_row

    with criterion(8, "all five reference queries, byte-for-byte"):
        for text, expected in REFERENCE_ANSWERS.items():
            rows = answer(parse_query(text), weather_atom_sets, "brave")
            assert [render_row(row) for row in rows] == expected
        cautious = answer(
            parse_query("ent(e,_,_,_,Wp,s), ent(e,_,_,_,W,o), W = Wp?"),
            weather_atom_sets,
            "cautious",
        )
        assert cautious == []


def test_criterion_09_stable_model_kernel():
    with criterion(9, "two demo stable models; 200 random programs match "
                      "the definitional oracle"):
        program = parse_program(DEMO_PROGRAM.read_text(encoding="utf-8"))
        assert set(stable_models(program)) == {
            frozenset({"a", "e"}),
            frozenset({"b", "d", "e"}),
        }
        rng = random.Random(414243)
        for _ in range(200):
            candidate = random_program(rng)
            models = stable_models(candidate)
            assert set(models) == oracle_stable_models(candidate)
            for left in models:
                for right in models:
                    if left is not right:
                        assert not left < right
            positive = random_positive_program(rng)
            assert set(stable_models(positive)) == oracle_minimal_models(positive)


def test_criterion_10_emitted_program(weather_percent, weather_entity):
    with criterion(10, "emitted program matches the reference listing up to "
                       "fact order and its four recorded slips; emit-parse-"
                       "emit is a fixed point"):
        emitted = emit_cip(weather_percent, weather_entity)
        assert_matches_handwritten_reference(
            emitted, LEGACY.read_text(encoding="utf-8")
        )
        pmodel, entity = parse_facts(emitted)
        assert emit_cip(pmodel, entity) == emitted


def test_criterion_11_random_instance_properties(tmp_path):
    rng = random.Random(515253)
    instances_with_versions = 0
    with criterion(11, "100 random instances: cautious within brave, "
                       "constraints only shrink scores, labels flip, "
                       "inv_resp = |contingency| + 1"):
        for _ in range(100):
            csv_text, entity_values = random_instance(rng)
            path = tmp_path / "instance.csv"
            path.write_text(csv_text, encoding="utf-8")
            model = to_percent(train(load_dataset(str(path))))
            schema = model.schema
            entity = Entity("e", entity_values)
            original_label, _, _ = model.classify(entity_values)

            versions = enumerate_counterfactuals(model, entity)
            if versions:
                instances_with_versions += 1

            # (c) every version flips the label and changed-sets are exact
            for version in versions:
                label, _, _ = model.classify(version.final)
                assert label != original_label
                assert version.changed == frozenset(
                    name
                    for name, old, new in zip(
                        schema.names, entity_values, version.final
                    )
                    if old != new
                )

            # (d) inverse responsibility counts the contingency plus the cause
            explanations = explanations_of(versions, entity, schema)
            for ex in explanations:
                assert ex.inv_resp == len(ex.contingency) + 1

            # (a) cautious answers are a subset of brave answers
            atom_sets = model_atom_sets(versions, model, entity)
            feat_vars = ",".join(f"V{i}" for i in range(len(schema)))
            candidates = [
                f"ent(E,{feat_vars},s)?",
                f"cls(E,{feat_vars},_)?",
                "cause(E,U)?",
                "invResp(E,U,R)?",
                "invResp(E,U,R), R<3?",
                "fullExpl(E,U,R,S)?",
            ]
            for text in rng.sample(candidates, 2):
                query = parse_query(text)
                brave = set(answer(query, atom_sets, "brave"))
                cautious = set(answer(query, atom_sets, "cautious"))
                assert cautious <= brave

            # (b) forbidding a random combination never raises any score
            base_scores = xresp(explanations, schema).scores
            n_bound = rng.randint(1, 2)
            bound = rng.sample(list(schema.names), n_bound)
            combo = {
                name: rng.choice(schema.domain(name)) for name in bound
            }
            constrained_versions = enumerate_counterfactuals(
                model, entity, ConstraintSet(schema=schema, forbidden=(combo,))
            )
            assert {v.final for v in constrained_versions} <= {
                v.final for v in versions
            }
            constrained_scores = xresp(
                explanations_of(constrained_versions, entity, schema), schema
            ).scores
            for name in schema.names:
                assert constrained_scores[name] <= base_scores[name]

        # the generator must produce flippable instances, not vacuous ones
        assert instances_with_versions >= 40
