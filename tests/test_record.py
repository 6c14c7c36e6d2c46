"""The value contract of boolrep's frozen records, and the CLI's import set.

Each record compares and hashes by the tuple of its fields, refuses
assignment and deletion, and prints as Name(field=value, ...).  Instances are
built as the library builds them; a second instance with equal fields comes
from the same builder (for the three classes with their own constructor) or
from the class itself, positionally and by keyword.
"""

import os
import subprocess
import sys
from functools import lru_cache

import pytest

import boolrep
from boolrep.errors import FormatError, NotAClosure, NotACongruence, NotALattice
from boolrep.geometry import MPeg, PEG, ValidationReport, geo_of_lattice, \
    mpeg_of_atomic_lattice, validate_peg
from boolrep.hereditary import HereditaryCollection, RankFunction, RepresentabilityResult, \
    boolean_representability, fano, flat_lattice, rank_function, uniform
from boolrep.lattice import FlatFamily, VGenLattice, lattice_from_covers
from boolrep.maps import ClosureOp, MpiStep, MpsStep, VCongruence, VMap, \
    closure_from_congruence, identity_map, mpi_factorize, mps_factorize
from boolrep.reps import RepRecord, RepresentationLattice
from boolrep.sbcore import BoolMatrix, Witness, witness_for

SRC = os.path.dirname(os.path.dirname(os.path.abspath(boolrep.__file__)))


def chain(labels):
    return lattice_from_covers(labels, list(zip(labels, labels[1:])))


@lru_cache(maxsize=None)
def fano_lattice() -> VGenLattice:
    return flat_lattice(fano())


@lru_cache(maxsize=None)
def walk() -> RepresentationLattice:
    return RepresentationLattice(uniform(3, 4))


def discrete(lat) -> VCongruence:
    return VCongruence(lat, tuple(frozenset({x}) for x in lat.labels))


@lru_cache(maxsize=None)
def steps():
    big, small = chain(["c0", "c1", "c2"]), chain(["c0", "c1"])
    surj = VMap(big, small, {"c0": "c0", "c1": "c0", "c2": "c1"})
    inc = VMap(small, big, {"c0": "c0", "c1": "c2"})
    return mps_factorize(surj)[0], mpi_factorize(inc)[0]


# class -> (field names in order, builder of one instance as the library builds it)
RECORDS = {
    BoolMatrix: (("ones_masks", "col_labels", "row_labels"),
                 lambda: BoolMatrix.build([[1, 0, 1], [0, 1, 1]], ["a", "b", "c"])),
    Witness: (("row_order", "col_order"),
              lambda: witness_for(BoolMatrix.build([[1, 0], [1, 1]], ["a", "b"]), ["a", "b"])),
    VGenLattice: (("lattice", "gens"), lambda: fano_lattice()),
    FlatFamily: (("ground", "masks"), lambda: fano().flats()),
    HereditaryCollection: (("ground", "h_masks"), fano),
    RankFunction: (("ground", "table"), lambda: rank_function(uniform(2, 3))),
    RepresentabilityResult: (("holds", "counterexample"),
                             lambda: boolean_representability(uniform(3, 5))),
    RepRecord: (("hc", "family"), lambda: walk().record(walk().sji_families()[0])),
    PEG: (("points", "lines"), lambda: geo_of_lattice(fano_lattice())),
    ValidationReport: (("ok", "violations"),
                       lambda: validate_peg(PEG(("1", "2"), frozenset({frozenset({"1", "3"})})))),
    MPeg: (("ground", "strata"), lambda: mpeg_of_atomic_lattice(fano_lattice().lattice)),
    VMap: (("source", "target", "mapping", "source_gens", "target_gens"),
           lambda: identity_map(fano_lattice().lattice, fano_lattice().gens)),
    VCongruence: (("lattice", "blocks"), lambda: discrete(fano_lattice().lattice)),
    ClosureOp: (("lattice", "mapping"),
                lambda: closure_from_congruence(discrete(fano_lattice().lattice))),
    MpsStep: (("upper", "lower", "map"), lambda: steps()[0]),
    MpiStep: (("added", "map"), lambda: steps()[1]),
}
OWN_CONSTRUCTOR = (BoolMatrix, FlatFamily, HereditaryCollection)
CLASSES = list(RECORDS)


def fields(rec):
    return tuple(getattr(rec, name) for name in RECORDS[type(rec)][0])


def twin(rec):
    """Another instance with equal fields, built as the library builds it."""
    cls = type(rec)
    if cls in OWN_CONSTRUCTOR:
        return RECORDS[cls][1]()
    return cls(*fields(rec))


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def rec(request):
    return RECORDS[request.param][1]()


class TestValueSemantics:
    def test_equal_fields_equal_records(self, rec):
        other = twin(rec)
        assert other is not rec
        assert rec == other and not rec != other
        assert fields(rec) == fields(other)
        if type(rec) not in OWN_CONSTRUCTOR:
            assert type(rec)(**dict(zip(RECORDS[type(rec)][0], fields(rec)))) == rec

    def test_hash_is_the_field_tuple_hash(self, rec):
        try:
            expected = hash(fields(rec))
        except TypeError:  # a dict field, such as VMap.mapping: unhashable both ways
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == hash(twin(rec)) == expected

    def test_never_equal_to_another_class(self, rec):
        for cls in CLASSES:
            if cls is not type(rec):
                other = RECORDS[cls][1]()
                assert rec.__eq__(other) is NotImplemented
                assert rec != other
        assert rec.__eq__(fields(rec)) is NotImplemented
        assert rec != fields(rec)

    def test_differing_fields_differ(self):
        assert fano() != uniform(3, 7)
        assert Witness((0,), (0,)) != Witness((0,), (1,))
        assert RepresentabilityResult(True, None) != RepresentabilityResult(False, None)
        assert rank_function(uniform(2, 3)) != rank_function(uniform(3, 3))


class TestFrozen:
    def test_assign_and_delete_refused(self, rec):
        before = fields(rec)
        for name in RECORDS[type(rec)][0] + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert fields(rec) == before
        assert "not_a_field" not in vars(rec)

    def test_cached_property_caches(self):
        r = walk().record(walk().sji_families()[0])
        assert r.matrix is r.matrix and vars(r)["matrix"] is r.matrix
        m = BoolMatrix.build([[1, 0], [1, 1]])
        assert m.rows is m.rows == ((1, 0), (1, 1))
        rho = discrete(fano_lattice().lattice)
        assert rho.block_of is rho.block_of
        hc = fano()
        assert hc._gidx is hc._gidx


class TestRepr:
    def test_dataclass_format(self, rec):
        names = RECORDS[type(rec)][0]
        body = ", ".join(f"{n}={getattr(rec, n)!r}" for n in names)
        if isinstance(rec, HereditaryCollection):  # the class's own repr wins
            assert repr(rec) == "HereditaryCollection(|E|=7, |H|=57, rank=3)"
        else:
            assert repr(rec) == f"{type(rec).__name__}({body})"

    def test_witness(self):
        assert repr(Witness((1, 0), (0, 1))) == "Witness(row_order=(1, 0), col_order=(0, 1))"


class TestConstruction:
    def test_keywords_and_defaults(self):
        lat = fano_lattice().lattice
        mapping = {x: x for x in lat.labels}
        phi = VMap(lat, lat, mapping)
        assert phi.source_gens is None and phi.target_gens is None
        assert VMap(mapping=mapping, target=lat, source=lat) == phi
        assert VMap(lat, lat, mapping, target_gens=("a",)).target_gens == ("a",)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                                 # every field missing
        (((0,),), {}),                            # one missing
        (((0,), (0,), (0,)), {}),                 # too many
        (((0,),), {"row_order": (0,)}),           # given twice
        (((0,), (0,)), {"colour": 1}),            # unknown keyword
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Witness(*args, **kwargs)

    def test_post_init_refusals(self):
        vg = fano_lattice()
        lat = vg.lattice
        with pytest.raises(FormatError):
            VGenLattice(lat, vg.gens + vg.gens[:1])
        with pytest.raises(NotALattice):
            VGenLattice(chain(["only"]), ())
        partial = {x: x for x in lat.labels[1:]}
        with pytest.raises(FormatError):
            VMap(lat, lat, partial)
        with pytest.raises(FormatError):
            VMap(lat, lat, {x: "nowhere" for x in lat.labels})
        with pytest.raises(NotACongruence):
            VCongruence(lat, (frozenset(lat.labels[:1]),))
        with pytest.raises(NotAClosure):
            ClosureOp(lat, {x: lat.bottom for x in lat.labels})


class TestImportSet:
    def test_cli_imports_no_dataclasses_inspect_or_typing(self):
        # -S: no site hooks, which may import typing themselves and hide a regression
        code = ("import boolrep.cli, sys; "
                "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert proc.stdout.split() == []
