"""The benchmark tracer wraps braidalg functions, methods and field ops by
name; every name it lists must exist, so a cleanup in ``src/`` cannot
silently break a traced benchmark run.  The tracer is only read here."""

import importlib
import importlib.util
import pathlib

import pytest

from braidalg.fields import RATIONALS, FieldSpec
from braidalg.gallery import flip_braiding

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("braidalg_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_spans_exist(tracer):
    for modname, names in tracer.FUNCTION_SPANS.values():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(vars(module).get(name)), f"{modname}.{name}"


def test_method_spans_exist(tracer):
    for modname, clsname, names in tracer.METHOD_SPANS.values():
        cls = vars(importlib.import_module(modname))[clsname]
        for name in names:
            assert callable(vars(cls).get(name)), f"{modname}.{clsname}.{name}"


def test_field_ops_exist(tracer):
    for op in tracer.FIELD_OPS:
        assert callable(vars(FieldSpec).get(op)), op


def test_nnz_reads_matrix_data(tracer):
    assert tracer.nnz(flip_braiding(RATIONALS, 2).c) == 4
