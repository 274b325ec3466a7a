"""Shared fixtures: survey reports are expensive, so cache them per session."""
from functools import cached_property, lru_cache

import pytest

from killform import exactlinalg, killing
from killform.cli import cmd_survey
from killform.perms import Perm


# S5 on the points {2, 256, 257, 259, 300}: degree 300 needs uint16 image rows
WIDE_S5_GRP = "name S5@300\ndegree 300\n(2,256,257,259,300)\n(2,256)\n"


@pytest.fixture(scope="session")
def wide_s5_file(tmp_path_factory):
    """Path of a .grp file holding S5 acting inside degree 300."""
    path = tmp_path_factory.mktemp("groups") / "s5_300.grp"
    path.write_text(WIDE_S5_GRP, encoding="utf-8")
    return path


@pytest.fixture
def count_perms(monkeypatch):
    """Callable fn -> the number of Perms constructed while fn() runs."""
    def count(fn) -> int:
        n = 0
        init = Perm.__init__

        def counting(self, images):
            nonlocal n
            n += 1
            init(self, images)

        with monkeypatch.context() as m:
            m.setattr(Perm, "__init__", counting)
            fn()
        return n
    return count


@pytest.fixture
def dense_fills(monkeypatch):
    """The dims of the lazy forms whose dense matrix is filled during the test."""
    dims = []
    fill = killing._FormMatrix.data.func
    recording = cached_property(lambda M: dims.append(M.dim) or fill(M))
    recording.__set_name__(killing._FormMatrix, "data")
    monkeypatch.setattr(killing._FormMatrix, "data", recording)
    return dims


@pytest.fixture
def class_sum_reads(monkeypatch):
    """The orbital data of each `_OrbitalData.class_sum` call during the
    test, one entry per call."""
    reads = []
    class_sum = killing._OrbitalData.class_sum
    monkeypatch.setattr(killing._OrbitalData, "class_sum",
                        lambda D, u: reads.append(D) or class_sum(D, u))
    return reads


@pytest.fixture
def eliminations(monkeypatch):
    """The shapes of the GF(p) eliminations `exactlinalg` runs during the test
    (its `_echelon` calls)."""
    shapes = []
    echelon = exactlinalg._echelon

    def recording(A, p):
        shapes.append(A.shape)
        return echelon(A, p)

    monkeypatch.setattr(exactlinalg, "_echelon", recording)
    return shapes


@lru_cache(maxsize=None)
def _survey(spec: str):
    return cmd_survey(spec)


@pytest.fixture(scope="session")
def survey():
    """Callable spec -> survey Report, computed at most once per session."""
    return _survey
