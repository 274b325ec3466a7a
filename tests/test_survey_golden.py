"""Full survey regression over the simple-group fixture family.

Rows are compared as multisets of (element_order, size, chi, real, components,
lambda_max, signature) per group: which letter a class draws within its order
(13A vs 13D) depends on enumeration order, but the statistics bundle must
match one-for-one.
"""
import pytest

from golden_survey import (GOLDEN, GROUP_ORDERS, GROUP_SPECS,
                           computed_multiset, expected_multiset)
from killform import exactlinalg, killing
from killform.cli import cmd_survey
from killform.groups import build_named_group


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_survey_matches_golden(survey, name):
    report = survey(GROUP_SPECS[name])
    assert report.exit_code == 0
    assert report.group_order == GROUP_ORDERS[name]
    assert computed_multiset(report) == expected_multiset(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_survey_rows_carry_the_class_labels_in_order(survey, name):
    # the multiset above drops the labels: here each row must sit under its
    # own class, so a row copied to an inverse class keeps no stale label
    G = build_named_group(GROUP_SPECS[name])
    labels = [c.label for c in G.classes()[1:]]
    assert len(set(labels)) == len(labels)
    rows = survey(GROUP_SPECS[name]).rows
    assert [row[0] for row in rows] == labels
    assert [int(row[1]) for row in rows] == [c.size for c in G.classes()[1:]]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_no_conjecture_violations_on_simple_groups(survey, name):
    # nondegeneracy of real classes, positive definiteness for involutions,
    # zero signature otherwise: the warning scan must stay silent on every
    # fixture group
    assert survey(GROUP_SPECS[name]).warnings == []


def test_fixture_class_counts(survey):
    # each group's row count equals its nontrivial class count; the label
    # runs in the fixture expand to exactly that many rows
    for name in GOLDEN:
        report = survey(GROUP_SPECS[name])
        assert len(report.rows) == len(expected_multiset(name)), name


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_fixture_class_takes_the_orbital_route(name):
    G = build_named_group(GROUP_SPECS[name])
    for C in G.classes()[1:]:
        assert killing._orbital_signature(killing.killing_matrix(G, C)) is not None, C.label


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_survey_fills_no_dense_form(name, dense_fills):
    assert cmd_survey(GROUP_SPECS[name]).exit_code == 0
    assert dense_fills == []


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_survey_signatures_take_no_exact_inertia(name, monkeypatch):
    # the float separation in `signature` decides every block: the columns
    # that _image_basis picks keep P^T S P well conditioned
    calls, inertia = [], exactlinalg._exact_inertia
    monkeypatch.setattr(exactlinalg, "_exact_inertia",
                        lambda M: calls.append(M.dim) or inertia(M))
    assert cmd_survey(GROUP_SPECS[name]).exit_code == 0
    assert calls == []
