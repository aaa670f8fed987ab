"""Port types: the scalar lattice, records, lists, and value checking."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    BOOL,
    FLOAT,
    HOSTNAME,
    INT,
    PASSWORD,
    PATH,
    STRING,
    TCP_PORT,
    Binding,
    ListType,
    Port,
    RecordType,
    scalar_by_name,
)
from repro.core.errors import PortError
from repro.core.ports import neutral_value

SCALARS = [STRING, INT, FLOAT, BOOL, PATH, HOSTNAME, TCP_PORT, PASSWORD]


class TestScalarSubtyping:
    def test_reflexive(self):
        for scalar in SCALARS:
            assert scalar.is_subtype_of(scalar)

    @pytest.mark.parametrize(
        "sub, sup",
        [
            (PATH, STRING),
            (HOSTNAME, STRING),
            (PASSWORD, STRING),
            (TCP_PORT, INT),
            (INT, FLOAT),
            (TCP_PORT, FLOAT),  # transitive
        ],
    )
    def test_lattice_edges(self, sub, sup):
        assert sub.is_subtype_of(sup)
        assert not sup.is_subtype_of(sub)

    def test_unrelated(self):
        assert not BOOL.is_subtype_of(INT)
        assert not STRING.is_subtype_of(FLOAT)
        assert not HOSTNAME.is_subtype_of(PATH)


class TestScalarAccepts:
    def test_string_like(self):
        for scalar in (STRING, PATH, HOSTNAME, PASSWORD):
            assert scalar.accepts("x")
            assert not scalar.accepts(3)

    def test_int(self):
        assert INT.accepts(5)
        assert not INT.accepts(5.5)
        assert not INT.accepts(True)  # bool is not an int here

    def test_tcp_port_bounds(self):
        assert TCP_PORT.accepts(0)
        assert TCP_PORT.accepts(65535)
        assert not TCP_PORT.accepts(65536)
        assert not TCP_PORT.accepts(-1)

    def test_float_accepts_int(self):
        assert FLOAT.accepts(3)
        assert FLOAT.accepts(3.5)
        assert not FLOAT.accepts(True)

    def test_bool(self):
        assert BOOL.accepts(True)
        assert not BOOL.accepts(1)


class TestRecordType:
    def test_width_subtyping(self):
        wide = RecordType.of(a=STRING, b=INT)
        narrow = RecordType.of(a=STRING)
        assert wide.is_subtype_of(narrow)
        assert not narrow.is_subtype_of(wide)

    def test_depth_subtyping(self):
        sub = RecordType.of(p=TCP_PORT)
        sup = RecordType.of(p=INT)
        assert sub.is_subtype_of(sup)
        assert not sup.is_subtype_of(sub)

    def test_not_subtype_of_scalar(self):
        assert not RecordType.of(a=STRING).is_subtype_of(STRING)

    def test_accepts_exact_fields(self):
        record = RecordType.of(host=HOSTNAME, port=TCP_PORT)
        assert record.accepts({"host": "h", "port": 80})
        assert not record.accepts({"host": "h"})  # missing field
        assert not record.accepts({"host": "h", "port": 80, "x": 1})  # extra
        assert not record.accepts({"host": "h", "port": "80"})  # wrong type
        assert not record.accepts("not a mapping")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(PortError):
            RecordType((("a", STRING), ("a", INT)))

    def test_str(self):
        assert str(RecordType.of(a=STRING)) == "{a: string}"


class TestListType:
    def test_accepts(self):
        t = ListType(STRING)
        assert t.accepts(["a", "b"])
        assert t.accepts(())
        assert not t.accepts(["a", 3])
        assert not t.accepts("abc")

    def test_covariance(self):
        assert ListType(TCP_PORT).is_subtype_of(ListType(INT))
        assert not ListType(INT).is_subtype_of(ListType(TCP_PORT))


class TestScalarByName:
    def test_known(self):
        assert scalar_by_name("tcp_port") is TCP_PORT
        assert scalar_by_name("hostname") is HOSTNAME

    def test_unknown(self):
        with pytest.raises(PortError):
            scalar_by_name("complex")


class TestPort:
    def test_valid_names(self):
        Port("manager_port", TCP_PORT)
        Port("a1", STRING)

    @pytest.mark.parametrize("bad", ["", "with space", "a-b", "a.b"])
    def test_invalid_names(self, bad):
        with pytest.raises(PortError):
            Port(bad, STRING)

    def test_default_binding_dynamic(self):
        assert Port("p", STRING).binding == Binding.DYNAMIC


class TestNeutralValue:
    @pytest.mark.parametrize(
        "port_type, expected",
        [
            (STRING, ""),
            (PATH, ""),
            (INT, 0),
            (TCP_PORT, 0),
            (FLOAT, 0.0),
            (BOOL, False),
        ],
    )
    def test_scalars(self, port_type, expected):
        assert neutral_value(port_type) == expected

    def test_list(self):
        assert neutral_value(ListType(STRING)) == []

    def test_record(self):
        t = RecordType.of(host=HOSTNAME, port=TCP_PORT)
        assert neutral_value(t) == {"host": "", "port": 0}

    def test_neutral_inhabits_type(self):
        for port_type in SCALARS + [
            ListType(INT),
            RecordType.of(a=STRING, b=BOOL),
        ]:
            assert port_type.accepts(neutral_value(port_type))


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(SCALARS),
        min_size=1,
        max_size=4,
    )
)
def test_record_subtype_reflexive_property(fields):
    record = RecordType.of(**fields)
    assert record.is_subtype_of(record)
    assert record.accepts(neutral_value(record))
