"""The package has no runtime dependency: every absolute import in
src/plink is plink itself or a standard-library module."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plink"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [f"{path.name}:{line}: {name}"
               for path in sources
               for line, name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"plink"}]
    assert not foreign, foreign
