"""Text formats for groups, extensions, and registries, and the JSON
certificate encoding."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G
from bitorsor_kit import rclass as R
from bitorsor_kit.errors import DomainError


def s3_extension() -> D.SplitExtension:
    n, q, acts = G.cyclic_power_action(3, 2, 2)
    sd = G.semidirect_product(n, q, acts)
    return D.SplitExtension(
        sd.group, G.kernel(sd.projection), q, sd.projection, sd.section
    )


class TestGroupText:
    @pytest.mark.parametrize("name", ["cyclic:4", "symmetric:3", "dihedral:4"])
    def test_round_trip(self, name):
        g = F.resolve_group_spec(name)
        back = F.parse_group(F.format_group(g))
        assert back == g
        assert back.label == g.label
        assert back.generators == g.generators

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\ngroup C2 order 2\n0 1\n\n1 0\n# tail\ngenerators 1\n"
        assert F.parse_group(text) == G.cyclic(2)

    def test_missing_header(self):
        with pytest.raises(F.ParseError, match="'group' header"):
            F.parse_group("order 2\n0 1\n1 0\ngenerators 1\n")

    def test_bad_order_token_has_position(self):
        with pytest.raises(F.ParseError, match=r"line 1, column 16"):
            F.parse_group("group C2 order two\n")

    def test_short_row_rejected(self):
        with pytest.raises(F.ParseError, match="row 1 has 1 entries, expected 2"):
            F.parse_group("group C2 order 2\n0 1\n1\ngenerators 1\n")

    def test_out_of_range_entry_rejected(self):
        err = None
        with pytest.raises(F.ParseError) as err:
            F.parse_group("group C2 order 2\n0 5\n1 0\ngenerators 1\n")
        assert err.value.line == 2 and err.value.col == 3

    def test_truncated_input(self):
        with pytest.raises(F.ParseError, match="unexpected end of input"):
            F.parse_group("group C3 order 3\n0 1 2\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(F.ParseError, match="trailing content"):
            F.parse_group("group C2 order 2\n0 1\n1 0\ngenerators 1\nextra\n")

    def test_corrupted_table_is_a_domain_error_not_a_parse_error(self):
        text = "group X order 3\n0 1 2\n1 2 0\n2 0 1\ngenerators 1\n"
        F.parse_group(text)
        broken = text.replace("2 0 1", "2 0 0")
        with pytest.raises(DomainError) as err:
            F.parse_group(broken)
        assert not isinstance(err.value, F.ParseError)


class TestGroupSpecs:
    def test_constructors(self):
        assert F.resolve_group_spec("cyclic:6") == G.cyclic(6)
        assert F.resolve_group_spec("symmetric:3") == G.symmetric(3)
        d4 = F.resolve_group_spec("dihedral:4")
        assert d4.order == 8 and not d4.is_abelian()
        assert F.resolve_group_spec("dihedral:1").order == 2

    def test_semidirect_constructor(self, s3):
        g = F.resolve_group_spec("semidirect:3:2:2")
        assert g.order == 6 and G.isomorphisms_between(g, s3)

    def test_semidirect_bad_action_is_a_domain_error(self):
        with pytest.raises(G.NotAnAction):
            F.resolve_group_spec("semidirect:4:2:2")

    def test_bad_arguments(self):
        with pytest.raises(F.ParseError, match="integer"):
            F.resolve_group_spec("cyclic:x")
        with pytest.raises(F.ParseError, match="1..5"):
            F.resolve_group_spec("symmetric:6")
        with pytest.raises(F.ParseError, match="takes 1 integer"):
            F.resolve_group_spec("cyclic:2:3")

    def test_path_resolution(self, tmp_path, z4):
        (tmp_path / "g.grp").write_text(F.format_group(z4))
        assert F.resolve_group_spec("g.grp", base_dir=tmp_path) == z4
        assert F.resolve_group_spec(str(tmp_path / "g.grp")) == z4

    def test_missing_file(self, tmp_path):
        with pytest.raises(F.ParseError, match="cannot read group"):
            F.resolve_group_spec("nope.grp", base_dir=tmp_path)


class TestExtensionText:
    def test_round_trip(self):
        e = s3_extension()
        text = F.format_extension(e, "semidirect:3:2:2", label="tame")
        back = F.parse_extension(text)
        assert back.pi_big == e.pi_big
        assert back.gamma.members == (0, 2, 4)
        assert back.p.map == e.p.map
        assert back.s.map == e.s.map
        assert back.pi_small == e.pi_small

    def test_small_group_is_derived(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2 4\n"
            "p 0 1 0 1 0 1\ns 0 1\n"
        )
        e = F.parse_extension(text)
        assert e.pi_small == G.cyclic(2)

    def test_noncontiguous_labels_rejected(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2 4\n"
            "p 0 2 0 2 0 2\ns 0 1\n"
        )
        with pytest.raises(F.ParseError, match="exactly 0..1"):
            F.parse_extension(text)

    def test_incompatible_labels_rejected(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 3 4\n"
            "p 0 1 1 0 0 1\ns 0 1\n"
        )
        with pytest.raises(F.ParseError, match="not compatible with the product"):
            F.parse_extension(text)

    def test_section_that_is_not_a_hom_rejected(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2 4\n"
            "p 0 1 0 1 0 1\ns 0 2\n"
        )
        with pytest.raises(G.NotAHomomorphism):
            F.parse_extension(text)

    def test_section_that_does_not_split_rejected(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2 4\n"
            "p 0 1 0 1 0 1\ns 0 0\n"
        )
        with pytest.raises(DomainError, match="fails to split"):
            F.parse_extension(text)

    def test_wrong_gamma_is_a_domain_error(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2\n"
            "p 0 1 0 1 0 1\ns 0 1\n"
        )
        with pytest.raises(DomainError):
            F.parse_extension(text)

    def test_gamma_element_out_of_range(self):
        text = (
            "extension t\npi_big semidirect:3:2:2\ngamma 0 2 9\n"
            "p 0 1 0 1 0 1\ns 0 1\n"
        )
        with pytest.raises(F.ParseError, match="out of range"):
            F.parse_extension(text)

    def test_pi_big_file_reference(self, tmp_path, z6):
        (tmp_path / "z6.grp").write_text(F.format_group(z6))
        text = "extension t\npi_big z6.grp\ngamma 0 2 4\np 0 1 0 1 0 1\ns 0 3\n"
        e = F.parse_extension(text, base_dir=tmp_path)
        assert e.pi_big == z6 and e.pi_small.order == 2


class TestRegistryText:
    def test_parse_and_format_round_trip(self, z4):
        text = "elementary cyclic:2 0\nelementary cyclic:2 1\nelementary cyclic:4 0\n"
        r = F.parse_registry(text, z4)
        assert len(r.universe) == 2
        assert r.members == {(0, 0), (0, 1), (1, 0)}
        back = F.parse_registry(F.format_registry(r, ["cyclic:2", "cyclic:4"]), z4)
        assert back == r

    def test_duplicate_groups_rejected(self, z2):
        text = "elementary cyclic:2 0\nelementary dihedral:1 0\n"
        with pytest.raises(R.InvalidRegistry):
            F.parse_registry(text, z2)

    def test_class_index_out_of_range(self, z2):
        with pytest.raises(R.InvalidRegistry):
            F.parse_registry("elementary cyclic:2 7\n", z2)

    def test_empty_registry_rejected(self, z2):
        with pytest.raises(F.ParseError, match="at least one"):
            F.parse_registry("# nothing\n", z2)

    def test_junk_line_rejected(self, z2):
        with pytest.raises(F.ParseError, match="elementary"):
            F.parse_registry("wedge cyclic:2 0\n", z2)


@pytest.fixture(scope="module")
def s3_certificate(s3):
    e = s3_extension()
    classes = E.h1(e.pi_big, s3)
    rep = classes[-1]
    d = D.decompose(rep, e)
    return rep, e, d


class TestCertificateJson:
    def test_round_trip_and_verify(self, s3_certificate):
        t, e, d = s3_certificate
        doc = json.loads(json.dumps(F.decomposition_to_json(t, e, d)))
        t2, e2, d2 = F.decomposition_from_json(doc)
        assert t2 == t
        assert (e2.pi_big, e2.gamma, e2.p.map, e2.s.map) == (
            e.pi_big, e.gamma, e.p.map, e.s.map
        )
        assert (d2.y, d2.z) == (d.y, d.z)
        assert D.verify_decomposition(t2, d2, e2)

    def test_encoding_is_deterministic(self, s3_certificate):
        t, e, d = s3_certificate
        a = json.dumps(F.decomposition_to_json(t, e, d), sort_keys=True)
        b = json.dumps(F.decomposition_to_json(t, e, d), sort_keys=True)
        assert a == b

    def test_small_tables_are_embedded(self, s3_certificate):
        t, e, d = s3_certificate
        assert "sha256" not in json.dumps(F.decomposition_to_json(t, e, d))

    def test_wrong_schema_rejected(self, s3_certificate):
        t, e, d = s3_certificate
        doc = F.decomposition_to_json(t, e, d)
        doc = dict(doc, schema="bitorsor-kit/0")
        with pytest.raises(F.ParseError, match="unsupported schema"):
            F.decomposition_from_json(doc)

    def test_missing_key_rejected(self, s3_certificate):
        t, e, d = s3_certificate
        doc = copy.deepcopy(F.decomposition_to_json(t, e, d))
        del doc["decomposition"]["certificate"]["s_low"]
        with pytest.raises(F.ParseError, match="malformed certificate"):
            F.decomposition_from_json(doc)

    def test_corrupted_witness_rejected(self, s3_certificate):
        t, e, d = s3_certificate
        doc = copy.deepcopy(F.decomposition_to_json(t, e, d))
        pm = doc["decomposition"]["witness_iso"]["point_map"]
        pm[0], pm[1] = pm[1], pm[0]
        with pytest.raises(DomainError):
            F.decomposition_from_json(doc)

    def test_repeated_sub_documents_are_built_once(self, s3_certificate):
        t, e, d = s3_certificate
        doc = json.loads(json.dumps(F.decomposition_to_json(t, e, d)))
        dd = doc["decomposition"]
        assert dd["certificate"]["w_inclusion"]["dst"] == dd["y"]
        _, _, d2 = F.decomposition_from_json(doc)
        assert d2.certificate.w_inclusion.dst is d2.y
        assert d2.certificate.w_inclusion.src is d2.certificate.w_witness

    def test_corrupted_group_table_rejected(self, s3_certificate):
        t, e, d = s3_certificate
        doc = copy.deepcopy(F.decomposition_to_json(t, e, d))
        row = doc["groups"][0]["mul"][0]
        row[0], row[1] = row[1], row[0]
        with pytest.raises(DomainError):
            F.decomposition_from_json(doc)


class TestLargeTables:
    def test_group_json_uses_hash_above_threshold(self):
        g = G.cyclic(30)
        entry = F.group_to_json(g)
        assert entry["mul"] == {"sha256": F.table_digest(g.mul)}
        resolver = F.resolver_for_groups([g])
        assert F.group_from_json(entry, resolver) == g

    def test_unresolved_reference_rejected(self):
        entry = F.group_to_json(G.cyclic(30))
        with pytest.raises(F.ParseError, match="unresolved table reference"):
            F.group_from_json(entry)

    def test_small_group_embeds_table(self, z6):
        entry = F.group_to_json(z6)
        assert entry["mul"] == [list(r) for r in z6.mul]
        assert F.group_from_json(entry) == z6


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(-(2**40), 2**40), max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


class TestIndentedWriter:
    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"": [], "b": {}, "a": [[]]},
            [True, False, 1, 0, None],
            [True, 1, False],
            {"\u00e9\u2603\U0001f600": "tab\tquote\"back\\slash\u0000"},
            (1, -2, 3),
            [2**100, -(2**100), 1.0, -0.0, 1e300],
        ],
    )
    def test_edge_cases(self, value):
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_certificate_bytes(self, s3_certificate):
        doc = F.decomposition_to_json(*s3_certificate)
        assert F.dumps_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)
