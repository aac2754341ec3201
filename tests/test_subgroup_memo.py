"""groups.subgroup_as_group's memo, keyed on (parent, the parent's label,
sorted members, label): each distinct subgroup is tabled once per process,
and neither label is lost, since group equality ignores labels."""

from __future__ import annotations

from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L

from test_memos import _memos


def test_one_member_list_under_two_parent_labels_gives_two_subgroups():
    """Equal parents under other labels, and one parent under two subgroup
    labels: the memo keys on both labels."""
    s3 = G.symmetric(3)
    members = G.all_subgroups(s3)[1].members
    text = ",".join(map(str, members))
    for label in ("A", "B"):
        sub, incl = G.subgroup_as_group(G.make_group(s3.mul, s3.generators, label), reversed(members))
        assert (sub.label, incl.dst.label, incl.map) == (f"{label}<{text}>", label, members)
    for label in ("X", "Y"):
        assert G.subgroup_as_group(s3, members, label=label)[0].label == label


def test_a_survey_builds_each_distinct_subgroup_once(monkeypatch):
    """Every call names a subgroup by (parent, parent label, members, label);
    each distinct one is tabled once, though the survey asks again."""
    for _, memo in _memos():
        memo.cache_clear()
    keys, tabled = [], []
    for mod in (G, B, D):
        orig = mod.subgroup_as_group

        def spy(parent, members, label=None, _f=orig):
            members = tuple(members)
            keys.append((parent, parent.label, tuple(sorted(set(members))), label))
            return _f(parent, members, label)

        monkeypatch.setattr(mod, "subgroup_as_group", spy)
    orig_gens = G.generating_set
    monkeypatch.setattr(G, "generating_set", lambda *a: tabled.append(a) or orig_gens(*a))
    L.survey(L.TameParams(3, 4, 2), G.symmetric(4))
    assert len(tabled) == len(set(keys)) < len(keys)
