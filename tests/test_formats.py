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

    @pytest.mark.parametrize(
        "spec, order",
        [("cyclic:201", 201), ("dihedral:101", 202), ("semidirect:67:3:2", 201)],
    )
    def test_orders_above_the_ceiling_fail_before_any_table(self, monkeypatch, spec, order):
        def boom(*args):
            raise AssertionError("a table was built")

        for name in ("cyclic", "dihedral", "cyclic_power_action"):
            monkeypatch.setattr(F, name, boom)
        with pytest.raises(F.ParseError, match=f"order {order}, above the supported maximum 200"):
            F.resolve_group_spec(spec)

    def test_group_file_above_the_ceiling_fails_at_its_header(self, tmp_path):
        (tmp_path / "big.grp").write_text("group Big order 1000\n")
        with pytest.raises(F.ParseError, match=r"order 1000 exceeds the supported maximum 200 \(line 1"):
            F.resolve_group_spec("big.grp", base_dir=tmp_path)

    def test_the_ceiling_is_reachable(self):
        assert G.MAX_ORDER == 200
        assert F.resolve_group_spec("dihedral:100").order == 200

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

    # Each kind of integer list in a certificate, by its key: the path to
    # one list of it, a table's row 1 for a table.
    INT_LISTS = {
        "mul": ("groups", 0, "mul", 1),
        "generators": ("groups", 0, "generators"),
        "left_act": ("input", "bitorsor", "left_act", 1),
        "right_act": ("input", "bitorsor", "right_act", 1),
        "action": ("decomposition", "y", "left", "action", 1),
        "points_action": ("decomposition", "y", "points_action", 1),
        "map": ("input", "theta", "map"),
        "members": ("decomposition", "certificate", "h_prime", "members"),
        "point_map": ("decomposition", "witness_iso", "point_map"),
        "gamma": ("extension", "gamma"),
    }

    @pytest.mark.parametrize("key", list(INT_LISTS))
    def test_a_float_in_any_integer_list_is_a_parse_error(self, s3_certificate, key):
        """An entry written as the float equal to it is refused while the
        document is read, naming the list and the entry's position."""
        doc = json.loads(F.dumps_indented(F.decomposition_to_json(*s3_certificate)))
        row = doc
        for step in self.INT_LISTS[key]:
            row = row[step]
        j = len(row) - 1
        row[j] = float(row[j])
        where = f"{key} entry (1,{j})" if key in ("mul", "left_act", "right_act", "action", "points_action") else f"{key}[{j}]"
        with pytest.raises(F.ParseError) as err:
            F.decomposition_from_json(doc)
        assert str(err.value) == f"{where} = {row[j]!r} is not an int"

    def test_repeated_sub_documents_are_built_once_per_process(self, s3_certificate):
        t, e, d = s3_certificate
        doc = json.loads(json.dumps(F.decomposition_to_json(t, e, d)))
        dd = doc["decomposition"]
        assert dd["certificate"]["w_inclusion"]["dst"] == dd["y"]
        t2, _, d2 = F.decomposition_from_json(doc)
        assert d2.certificate.w_inclusion.dst is d2.y
        assert d2.certificate.w_inclusion.src is d2.certificate.w_witness
        # a second document with the same values, read later in the process
        t3, _, d3 = F.decomposition_from_json(json.loads(json.dumps(doc)))
        assert t3.bitorsor is t2.bitorsor
        assert (d3.y, d3.z, d3.y.left, d3.z.right) == (d2.y, d2.z, d2.y.left, d2.z.right)
        assert d3.y is d2.y and d3.z is d2.z and d3.y.left is d2.y.left and d3.z.right is d2.z.right
        assert d3.certificate.w_witness is d2.certificate.w_witness

    def test_action_row_at_a_non_generator_is_refused_by_the_law(self, s3_certificate):
        """Only the rows at pi's generators are read as homs; a row elsewhere
        that is still a permutation is refused by the composition law, as a
        DomainError, also when values built by formula are checked."""
        doc = json.loads(json.dumps(F.decomposition_to_json(*s3_certificate)))
        pg = doc["decomposition"]["y"]["left"]
        pi = doc["groups"][pg["pi"]]
        c = next(c for c in range(1, pi["order"]) if c not in pi["generators"])
        row = pg["action"][c]
        row[1], row[2] = row[2], row[1]
        with pytest.raises(G.NotAnAction, match=r"action breaks at symmetry pair"):
            F.decomposition_from_json(doc)

    def test_corrupted_group_table_rejected(self, s3_certificate):
        t, e, d = s3_certificate
        doc = json.loads(json.dumps(F.decomposition_to_json(t, e, d)))
        row = doc["groups"][0]["mul"][0]
        row[0], row[1] = row[1], row[0]
        with pytest.raises(DomainError):
            F.decomposition_from_json(doc)

    def test_group_above_the_ceiling_is_refused_while_read(self, s3_certificate, monkeypatch):
        def boom(*args):
            raise AssertionError("a table was built")

        t, e, d = s3_certificate
        doc = copy.deepcopy(F.decomposition_to_json(t, e, d))
        doc["groups"][0]["mul"] = [[(i + j) % 201 for j in range(201)] for i in range(201)]
        monkeypatch.setattr(F, "make_group", boom)
        with pytest.raises(F.ParseError, match="201 rows, above the supported maximum 200"):
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
        assert list(map(list, entry["mul"])) == [list(r) for r in z6.mul]
        assert F.group_from_json(entry) == z6


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
NEWLINE_TEXT = st.text(alphabet="a\n\"\\ \u00e9", max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(-(2**40), 2**40), max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@st.composite
def tables(draw):
    """Lists of int lists, as certificates hold them, and their near misses:
    one-entry rows (the tables of C1), an empty row, a True, None or float
    entry, a tuple row, a tuple of rows."""
    rows = draw(
        st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4), min_size=1, max_size=5)
    )
    i = draw(st.integers(0, len(rows) - 1))
    kinds = ["plain", "one-entry rows", "empty row", "odd entry", "tuple row", "tuple of rows"]
    kind = draw(st.sampled_from(kinds))
    if kind == "one-entry rows":
        rows = [r[:1] for r in rows]
    elif kind == "empty row":
        rows[i] = []
    elif kind == "odd entry":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from([True, None, 2.5]))
    elif kind == "tuple row":
        rows[i] = tuple(rows[i])
    elif kind == "tuple of rows":
        rows = tuple(rows)
    return rows


class TestIndentedWriter:
    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(
        shared=st.one_of(
            st.dictionaries(NEWLINE_TEXT, JSON_VALUES, min_size=1, max_size=4),
            st.lists(JSON_VALUES | NEWLINE_TEXT, min_size=1, max_size=4),
        ),
        text=NEWLINE_TEXT,
        depth=st.integers(0, 3),
    )
    def test_one_object_at_two_depths(self, shared, text, depth):
        """One dict or list object met at several depths is written at each
        depth's indent; strings with a newline in them come out escaped."""
        nested = {"s": text, "v": shared}
        deeper = nested
        for _ in range(depth):
            deeper = {"k": [deeper, text]}
        value = {"a": nested, "b": [deeper, shared], text: [shared]}
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(table=tables(), depth=st.integers(0, 3))
    def test_tables_match_json_dumps(self, table, depth):
        """A plain table and its near misses are written item by item.  The
        same table object sits at two depths, and inside a list of tables
        (three levels of lists)."""
        assert F.dumps_indented(table) == json.dumps(table, indent=2, sort_keys=True)
        value = [table, [table]]
        for _ in range(depth):
            value = {"t": value, "n": 1, "s": "x"}
        value = {"at": table, "deeper": value}
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            [[0]],
            {"generators": [0], "label": "C1", "mul": [[0]], "order": 1},
            {"": [], "b": {}, "a": [[]]},
            [True, False, 1, 0, None],
            [True, 1, False],
            {"\u00e9\u2603\U0001f600": "tab\tquote\"back\\slash\u0000"},
            (1, -2, 3),
            [2**100, -(2**100), 1.0, -0.0, 1e300],
            [1, True, 2],
            [0, 1, None],
            [3, 2.5, -0.0, float("nan")],
            {"rows": [[0, 1], [1, False], [None, 0]]},
        ],
    )
    def test_edge_cases(self, value):
        assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_every_criterion_6_certificate_in_one_process(self, sweep_decompositions):
        """One certificate after another, so the memo of record tables is
        warm across documents and depths: each is written as json.dumps
        writes it."""
        rows = sweep_decompositions[0]["criterion-6"]
        hits = F._table_text.cache_info().hits
        for t, e, d, _ in rows:
            doc = F.decomposition_to_json(t, e, d)
            assert F.dumps_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert len(rows) > 100 and F._table_text.cache_info().hits > hits

    def test_a_missed_table_is_joined_from_kept_rows(self, sweep_decompositions):
        """With the table memo emptied before each certificate, every table
        is joined from the texts of its rows, kept per (row, indent): each
        certificate is still written as json.dumps writes it, and the rows
        of a repeated certificate are all read from the row memo."""
        t, e, d, _ = sweep_decompositions[0]["criterion-6"][-1]
        doc = F.decomposition_to_json(t, e, d)
        for _ in range(2):
            F._table_text.cache_clear()
            before = F._row_text.cache_info()
            assert F.dumps_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)
        after = F._row_text.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_a_record_table_at_two_depths(self, s3):
        table = F._emit_table(s3.mul, s3.order)
        for value in (table, {"a": table, "b": [{"c": table}], "d": [[table, 1]]}):
            assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_a_plain_table_is_checked_after_an_equal_record_table(self):
        """A plain table takes the checked path: a True in it is written
        true, even once an equal table of ints is kept by the memo."""
        record_table = F._emit_table(((0, 1), (1, 0)), 2)
        for value in (record_table, [[0, True], [True, 0]], [[0, 1], [1, 0]], ((0, True), (1, 0))):
            assert F.dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True)
        assert "true" in F.dumps_indented([[0, True], [True, 0]])

    def test_a_record_table_writes_one_text_whether_or_not_an_equal_one_is_kept(self):
        """A record table is a checked record's rows, so it is written as
        ints: one holding True for 1 (built directly, as no checked
        constructor takes one) writes the text of its equal table of ints,
        before that table is kept, from the kept table, and from kept rows."""
        ints = F._emit_table(((0, 1), (1, 0)), 2)
        text = json.dumps(ints, indent=2, sort_keys=True)
        F._table_text.cache_clear()
        F._row_text.cache_clear()
        for value in (F._Table(((0, 1), (True, 0))), ints, F._Table(((0, True), (True, 0)))):
            assert F.dumps_indented(value) == text
        F._table_text.cache_clear()  # the rows' texts stay kept
        assert F.dumps_indented(F._Table(((0, True), (1, 0)))) == text

    def test_certificate_bytes(self, s3_certificate):
        doc = F.decomposition_to_json(*s3_certificate)
        assert F.dumps_indented(doc) == json.dumps(doc, indent=2, sort_keys=True)
