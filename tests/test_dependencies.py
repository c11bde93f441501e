import ast
import importlib.util
import re
import sys
import types
from pathlib import Path

import eegstrata
from eegstrata import classifiers


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


def test_each_artifact_path_is_defined_once():
    """Each artifact's file or directory name appears once in the package, in
    pipeline's artifact table; a name followed by a letter (confidence_levels,
    selection_mode) is another word."""
    package = Path(eegstrata.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    table = [node for node in ast.parse(sources["pipeline.py"]).body
             if isinstance(node, ast.Assign)
             and {getattr(t, "id", None) for t in node.targets} & {"_LEVEL", "_ARTIFACTS"}]
    table_lines = {n for node in table for n in range(node.lineno, node.end_lineno + 1)}
    for name in ("manifest.json", "report.json", "confidence_", "sampling_", "features_",
                 "selection_", "evaluation_", "/reduced"):
        found = [(file, text.count("\n", 0, match.start()) + 1) for file, text in sources.items()
                 for match in re.finditer(re.escape(name) + "(?![a-z])", text)]
        assert len(found) == 1 and found[0][0] == "pipeline.py", (name, found)
        assert found[0][1] in table_lines, (name, found)


def test_feature_names_are_built_in_one_place():
    """Only features.feature_names formats an s{stratum}_{feature} name: a
    string literal that starts with s, a replacement field or %d, then _."""
    package = Path(eegstrata.__file__).parent
    found = [(path.name, path.read_text().count("\n", 0, match.start()) + 1)
             for path in sorted(package.glob("*.py"))
             for match in re.finditer(r"""['"]s(\{[^}]*\}|%d)_""", path.read_text())]
    tree = ast.parse((package / "features.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "feature_names")
    assert len(found) == 1 and found[0][0] == "features.py", found
    assert func.lineno <= found[0][1] <= func.end_lineno, found


def test_channel_file_names_are_formed_in_one_place():
    """Only corpus.py holds a string naming a .txt file, so no other module
    forms a channel's file name, and _file_name, whose names a set is written
    and read in the order of, is defined once, there."""
    package = Path(eegstrata.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    literals = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".txt" in node.value.lower() and name != "corpus.py"]
    defined = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_file_name"]
    assert literals == [], literals
    assert defined == ["corpus.py"], defined


def test_scale_rule_is_stated_once():
    """np.frexp, which gives the power of two of a value, is named only in
    sampler._unit_scale, so every rescale by a power of two goes through that
    one function, and _unit_scale is defined once, there."""
    package = Path(eegstrata.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    named = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
             if "frexp" in (getattr(node, "attr", None), getattr(node, "id", None),
                            getattr(node, "name", None))]
    defined = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_unit_scale"]
    assert [name for name, _ in defined] == ["sampler.py"], defined
    func = defined[0][1]
    assert len(named) == 1 and named[0][0] == "sampler.py", named
    assert func.lineno <= named[0][1] <= func.end_lineno, named


def test_only_sample_makes_channels():
    """Inside the package, generate_synthetic_case and load_set are called
    only by the one per-run hand-off, pipeline._Run: generate_synthetic_case
    and the corpus's load_set in _Run.classes, which sample calls, and the
    reduced channels' load_set in _Run.take_reduced, which extract calls."""
    package = Path(eegstrata.__file__).parent
    callers = {"generate_synthetic_case": set(), "load_set": set()}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {func: f"{cls.name}.{func.name}" for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for func in cls.body
                   if isinstance(func, ast.FunctionDef)}
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(func):
                name = (getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                        if isinstance(node, ast.Call) else None)
                if name in callers:
                    callers[name].add(f"{path.name}:{methods.get(func, func.name)}")
    assert callers == {"generate_synthetic_case": {"pipeline.py:_Run.classes"},
                       "load_set": {"pipeline.py:_Run.classes", "pipeline.py:_Run.take_reduced"}}


def test_all_lists_the_public_names():
    """__all__ holds exactly the package's public names that are not its submodules,
    so a deleted name cannot linger there and a new export cannot be left out."""
    public = {name for name, value in vars(eegstrata).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(eegstrata.__all__) == sorted(public)


def test_each_public_name_is_used_by_program_code():
    """Every name in __all__ is loaded by name somewhere in the package's
    modules other than __init__.py, or in the benchmark's, so a public name
    that only tests or demos use fails here."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for path in sorted(Path(eegstrata.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"] + sorted((root / "bench").glob("*.py"))
    loaded = {node.id for path in paths for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(eegstrata.__all__) - loaded) == []


def test_classifier_methods_stay_on_their_classes():
    """bench/tracing.py times fit and predict by wrapping them on each class in
    classifiers, so moving one elsewhere must fail here, not in the benchmark."""
    for cls in (classifiers.RandomForestClassifier, classifiers.NaiveBayesClassifier,
                classifiers.KNNClassifier):
        for name in ("fit", "predict"):
            assert callable(vars(cls).get(name)), (cls.__name__, name)


def test_bench_patch_points_exist():
    """bench/tracing.py wraps each (owner, attr) of its TARGETS where callers
    look the name up, so a rename or move must fail here, by name, rather
    than as a KeyError inside the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing, f"bench/tracing.py patches names that are gone: {missing}"


def test_stream_constants_are_stated_once():
    """PCG64's 128-bit multiplier and SeedSequence's hash constants each
    appear once in the package, as a hexadecimal or decimal literal, so the
    forest's word source has one copy of each; and classifiers.py names no
    numpy PCG64 or SeedSequence, so no tree's words come from a numpy bit
    generator."""
    package = Path(eegstrata.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    constants = {"PCG64 multiplier": 0x2360ED051FC65DA44385DF649FCCF645,
                 "INIT_A": 0x43B0D7E5, "MULT_A": 0x931E8875, "INIT_B": 0x8B51F9DD,
                 "MULT_B": 0x58F38DED, "MIX_MULT_L": 0xCA01F9DD, "MIX_MULT_R": 0x4973F715}
    for name, value in constants.items():
        literal = re.compile(rf"(?i)\b(0x0*{value:x}|{value})\b")
        found = [(file, text.count("\n", 0, match.start()) + 1) for file, text in sources.items()
                 for match in literal.finditer(text)]
        assert len(found) == 1, (name, found)
    named = [node.lineno for node in ast.walk(ast.parse(sources["classifiers.py"]))
             if {getattr(node, "attr", None), getattr(node, "id", None)}
             & {"PCG64", "SeedSequence"}]
    assert named == [], named


def test_exact_decimal_limits_are_stated_once():
    """The array paths' limits, integers below 2^53 and decimals of at most
    15 digits, are each one integer literal in corpus.py (53 and 15), so the
    formatter and the parser cannot drift apart from them."""
    tree = ast.parse((Path(eegstrata.__file__).parent / "corpus.py").read_text())
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and type(node.value) is int]
    for value in (53, 15):
        assert literals.count(value) == 1, (value, literals)
    assert 2 ** 53 not in literals and 2 ** 53 - 1 not in literals, literals
