import gc
import math
import weakref

import numpy as np
import pytest

from homprod import chain, css, gf2, product, soundness
from homprod.chain import ChainComplex

from dense_reference import cobetti

REP3 = gf2.as_bin([[1, 1, 0], [0, 1, 1]])
CYC3 = gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def rep3_minimal():
    return ChainComplex([REP3], j_min=0)


def cyc3_complex():
    return ChainComplex([CYC3], j_min=0)


class TestValidate:
    def test_single_map_vacuous(self):
        assert chain.validate(rep3_minimal()) is None

    def test_product_validates(self):
        s = product.single_product(rep3_minimal())
        assert chain.validate(s) is None

    def test_dimension_violation(self):
        with pytest.raises(chain.ValidationError, match="dimension mismatch between levels 0 and 1"):
            ChainComplex([gf2.as_bin([[1, 1]]), gf2.as_bin([[1, 1]])], j_min=0)

    def test_composition_violation(self):
        with pytest.raises(chain.ValidationError, match=r"^composition d_1 d_0 is nonzero$"):
            ChainComplex([gf2.identity(2), gf2.identity(2)], j_min=0)


class TestValidateOnce:
    def test_maps_reject_writes(self):
        h = REP3.copy()
        c = ChainComplex([h], j_min=0)
        with pytest.raises(ValueError):
            c.delta(0)[0, 0] ^= 1
        # the caller's array stays writable and no longer aliases the map
        h[0, 0] ^= 1
        assert (c.delta(0) == REP3).all()

    def test_maps_cannot_be_replaced(self):
        c = rep3_minimal()
        assert isinstance(c.boundaries, tuple)
        with pytest.raises(TypeError):
            c.boundaries[0] = gf2.identity(3)

    def test_each_pair_multiplied_once_per_complex(self, monkeypatch):
        built = product.double_product(product.single_product(rep3_minimal()))
        products = []
        real = gf2.product_is_zero

        def counting(a, b):
            products.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(gf2, "product_is_zero", counting)
        fresh = ChainComplex(built.boundaries, j_min=built.j_min)
        assert len(products) == fresh.length - 1
        # a built complex is never checked again
        for c in (fresh, built):
            chain.betti_number(c, 0)
            css.from_complex(c)
        assert len(products) == fresh.length - 1


class TestCanonicalMaps:
    """Maps are stored reduced mod 2, whatever dtype they came in."""

    @pytest.mark.parametrize(
        "maps, valid",
        [
            # 2 is 0 mod 2, so d_1 d_0 = [[1]]: invalid
            ([[[1], [1]], [[2, 1]]], False),
            ([[[1], [1]], [[3, 1]]], True),
            ([[[3, 0], [1, 2]], [[1, 0], [0, 1]]], False),
            ([[[1, 1, 0], [0, 1, 1]], [[2, 4], [3, 1]]], False),
            ([[[1, 1, 0], [0, 1, 1]], [[2, 4]]], True),
        ],
    )
    def test_uint8_and_int64_twins_agree(self, maps, valid):
        given = [[np.array(m, dtype=dtype) for m in maps] for dtype in (np.uint8, np.int64)]
        if not valid:
            # both twins raise the same message
            for twin in given:
                with pytest.raises(chain.ValidationError, match="^composition d_1 d_0 is nonzero$"):
                    ChainComplex(twin, j_min=0)
            return
        u8, i64 = (ChainComplex(twin, j_min=0) for twin in given)
        for c in (u8, i64):
            for stored, given_ in zip(c.boundaries, maps):
                assert stored.dtype == np.uint8
                assert stored.tolist() == (np.array(given_) % 2).tolist()
        assert [chain.betti_number(u8, j) for j in u8.levels()] == [
            chain.betti_number(i64, j) for j in i64.levels()
        ]

    def test_read_only_owner_is_kept_only_when_0_1(self):
        kept = REP3.copy()
        kept.setflags(write=False)
        twos = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.uint8)
        twos.setflags(write=False)
        c = ChainComplex([kept], j_min=0)
        assert c.delta(0) is kept
        stored = ChainComplex([twos], j_min=0).delta(0)
        assert stored is not twos and stored.tolist() == [[1, 0, 0], [0, 1, 1]]

    def test_transposed_input_stored_as_contiguous_owner(self):
        # a transposed view, then a view of a view: each column of REP3^T
        # has even weight, so the all-ones row composes with it to zero
        c = ChainComplex([np.asarray(REP3.T), gf2.as_bin([[1, 1, 1]]).T.T], j_min=0)
        for m in c.boundaries:
            assert m.base is None and m.flags.c_contiguous
            assert not m.flags.writeable


class TestMemo:
    def test_memo_dies_with_the_complex(self):
        tilde = product.single_product(rep3_minimal())
        breve = product.double_product(tilde)
        code = css.from_complex(breve)
        chain.betti_number(breve, 0)
        e = np.eye(breve.size(0), dtype=np.uint8)[0]
        error = css.PauliError(e, np.zeros_like(e))
        assert not code.obstructed(code.syndrome(error))
        assert css.pauli_min_weight(code, error, 2) == 1
        s = gf2.mat_vec(breve.delta(0), error.e)
        soundness.double_product_preimage(REP3, tilde, breve, s, threshold=3)
        maps = tilde.boundaries + breve.boundaries
        memoised = {id(m) for m in maps} & set(gf2._MEMO)
        assert len(memoised) >= 4
        alive = [weakref.ref(m) for m in maps]
        del tilde, breve, code, maps
        gc.collect()
        assert not memoised & set(gf2._MEMO)
        # no memoised value kept its matrix alive
        assert all(ref() is None for ref in alive)


    def test_end_maps_are_memoised_owners(self):
        c = cyc3_complex()
        for j, shape in ((c.j_min - 1, (3, 0)), (c.j_max, (0, 3))):
            m = c.delta(j)
            assert m is c.delta(j) and m.shape == shape
            assert m.base is None and not m.flags.writeable
            assert gf2.get_solver(m) is gf2.get_solver(c.delta(j))
            assert gf2.get_solver(m.T) is gf2.get_solver(c.delta(j).T)


class TestBetti:
    def test_rep3_minimal(self):
        c = rep3_minimal()
        assert chain.betti_number(c, 0) == 1
        assert chain.betti_number(c, 1) == 0

    def test_cyclic(self):
        c = cyc3_complex()
        assert chain.betti_number(c, 0) == 1
        assert chain.betti_number(c, 1) == 1

    def test_no_maps_full_homology(self):
        # a single zero check over 4 bits: kernel is everything
        c = ChainComplex([gf2.zeros(0, 4)], j_min=0)
        assert chain.betti_number(c, 0) == 4

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            chain.betti_number(rep3_minimal(), 5)


class TestCobetti:
    def test_rep3(self):
        assert cobetti(rep3_minimal(), 0) == 1

    def test_cyclic(self):
        assert cobetti(cyc3_complex(), 1) == 1

    def test_duality_on_products(self):
        for h in (REP3, CYC3):
            s = product.single_product(ChainComplex([h], j_min=0))
            for j in s.levels():
                assert chain.betti_number(s, j) == cobetti(s, j)


class TestHomologicalDistance:
    def test_rep3_level0(self):
        d = chain.homological_distance(rep3_minimal(), 0, 4)
        assert d.value == 3 and d.is_exact()
        assert d.witness.tolist() == [1, 1, 1]

    def test_rep3_level1_infinite(self):
        d = chain.homological_distance(rep3_minimal(), 1, 4)
        assert math.isinf(d.value) and d.is_exact()

    def test_rep3_single_product_level0(self):
        s = product.single_product(rep3_minimal())
        d = chain.homological_distance(s, 0, 6)
        assert d.value == 3 and d.is_exact()
        # cross-check the generic product lower bound min(d_0, d_0^T) = 3
        assert d.value >= 3

    def test_lower_bound_status(self):
        s = product.single_product(rep3_minimal())
        d = chain.homological_distance(s, 0, 2)
        assert d.status == "lower_bound" and d.value == 3
        assert d.witness is None

    def test_search_that_finds_no_cycle_builds_no_solver(self, monkeypatch):
        # the rep-3 double product (241 qubits) has no logical of weight <= 2
        breve = product.double_product(product.single_product(rep3_minimal()))
        built = []
        real = gf2.Gf2Solver.__init__

        def counting(self, m):
            built.append(m.shape)
            real(self, m)

        monkeypatch.setattr(gf2.Gf2Solver, "__init__", counting)
        d = chain.homological_distance(breve, 0, 2)
        assert d.status == "lower_bound" and d.value == 3
        assert built == []
        # at weight 4 the first cycle found is a check, so the solver is built
        assert chain.homological_distance(breve, 0, 4).value == 5
        assert built == [(breve.size(0), breve.size(-1))]

    def test_witness_properties(self):
        s = product.single_product(cyc3_complex())
        d = chain.homological_distance(s, 0, 4)
        assert d.is_exact() and d.value == 3
        w = d.witness
        assert gf2.weight(w) == d.value
        assert not gf2.mat_vec(s.delta(0), w).any()
        assert gf2.Gf2Solver(s.delta(-1)).solve(w) is None


class TestCohomologicalDistance:
    def test_rep3_level0_infinite(self):
        d = chain.cohomological_distance(rep3_minimal(), 0, 4)
        assert math.isinf(d.value) and d.is_exact()

    def test_cyclic_level0(self):
        d = chain.cohomological_distance(cyc3_complex(), 0, 4)
        assert d.value == 3 and d.is_exact()
        assert d.witness.tolist() == [1, 1, 1]

    def test_rep3_single_product_level_m1(self):
        s = product.single_product(rep3_minimal())
        d = chain.cohomological_distance(s, -1, 6)
        assert d.value == 3 and d.is_exact()

    def test_consistency_with_betti(self):
        # finite distance exactly when the level-(j+1) homology is nontrivial
        s = product.single_product(cyc3_complex())
        for j in range(s.j_min - 1, s.j_max + 1):
            d = chain.cohomological_distance(s, j, 9)
            k_next = (
                chain.betti_number(s, j + 1) if s.has_level(j + 1) else 0
            )
            assert math.isinf(d.value) == (k_next == 0)


class TestLevelReport:
    def test_rep3_product_level0(self):
        s = product.single_product(rep3_minimal())
        assert s.size(0) == 13
        assert chain.betti_number(s, 0) == cobetti(s, 0) == 1
        assert chain.homological_distance(s, 0, 6).value == 3
        assert math.isinf(chain.cohomological_distance(s, 0, 6).value)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        s = product.single_product(rep3_minimal())
        chain.save_complex(tmp_path / "c", s)
        loaded = chain.load_complex(tmp_path / "c")
        assert loaded.j_min == s.j_min and loaded.j_max == s.j_max
        for j in range(s.j_min, s.j_max):
            assert (loaded.delta(j) == s.delta(j)).all()

    def test_a_loaded_complex_has_no_factor(self, tmp_path):
        # whatever it was saved from: a loaded complex has no provenance
        s = product.single_product(rep3_minimal())
        chain.save_complex(tmp_path / "c", s)
        assert s.factor is not None and chain.load_complex(tmp_path / "c").factor is None

    def test_manifest_contents(self, tmp_path):
        chain.save_complex(tmp_path / "c", rep3_minimal())
        text = (tmp_path / "c" / "manifest.txt").read_text()
        assert text == "LEVELS 0 1 QUBIT_LEVEL 0\n"

    def test_load_rejects_invalid(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "manifest.txt").write_text("LEVELS 0 2 QUBIT_LEVEL 0\n")
        gf2.write_pcm(d / "delta_0.pcm", gf2.identity(2))
        gf2.write_pcm(d / "delta_1.pcm", gf2.identity(2))
        with pytest.raises(chain.ValidationError):
            chain.load_complex(d)
        # a valid complex under a manifest with another qubit level
        gf2.write_pcm(d / "delta_1.pcm", gf2.zeros(2, 2))
        chain.load_complex(d)
        (d / "manifest.txt").write_text("LEVELS 0 2 QUBIT_LEVEL 7\n")
        with pytest.raises(ValueError, match="bad manifest .*manifest.txt"):
            chain.load_complex(d)
