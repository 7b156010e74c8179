"""The package's public surface: ``__all__`` is what its import block binds."""

import ast
import inspect
import pydoc
import types
from pathlib import Path

import statesum


def _imported_names():
    tree = ast.parse(Path(statesum.__file__).read_text("utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_is_the_import_block():
    assert sorted(statesum.__all__) == sorted(_imported_names())
    assert not [name for name in statesum.__all__
                if isinstance(getattr(statesum, name), types.ModuleType)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from statesum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(statesum.__all__)


def test_pydoc_documents_every_public_class_and_function():
    # pydoc documents a re-exported name only when ``__all__`` lists it.
    text = pydoc.render_doc(statesum, renderer=pydoc.plaintext)
    for name in _imported_names():
        value = getattr(statesum, name)
        if inspect.isclass(value):
            assert f"\n    class {name}(" in text, name
        elif inspect.isfunction(value):
            assert f"\n    {name}(" in text, name
