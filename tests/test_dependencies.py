import ast
import sys
from pathlib import Path

import eegstrata


def test_numpy_is_the_only_runtime_dependency():
    """Every import in the package is relative, numpy, or standard library."""
    outside = []
    for path in sorted(Path(eegstrata.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {module}")
    assert not outside, outside
