import ast
import importlib
import json
import pkgutil
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import funcutpoint
from conftest import uniform_day_rows, write_labels_file, write_series_file

MODULES = sorted(info.name for info in pkgutil.iter_modules(funcutpoint.__path__))


@pytest.mark.parametrize("name", ["funcutpoint"] + [f"funcutpoint.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


ARTIFACT_WRITERS = {("json", "dumps"), ("json", "dump"), ("csv", "writer")}


def _artifact_writer_uses(path: Path):
    """The json.dump(s) and csv.writer references in a source file, whether
    written as attributes or imported by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in ARTIFACT_WRITERS):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if (node.module, alias.name) in ARTIFACT_WRITERS]
    return found


def test_artifact_format_lives_in_quantiles():
    """Only quantiles.write_json and write_csv serialise artifacts."""
    src = Path(funcutpoint.__file__).parent
    uses = {path.name: _artifact_writer_uses(path) for path in sorted(src.glob("*.py"))}
    assert uses.pop("quantiles.py") != []
    assert {name: found for name, found in uses.items() if found} == {}


SHARED_ROW_MESSAGES = ("empty subject_id", "duplicate subject_id", "fields, got")


def _row_rule_sites(path: Path):
    """The top-level functions of a source file that read csv records
    (csv.reader) or word a shared row-rule message, as "file:function"."""
    sites = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and (node.value.id, node.attr) == ("csv", "reader"))
                    or (isinstance(node, ast.ImportFrom) and node.module == "csv"
                        and any(alias.name == "reader" for alias in node.names))
                    or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and any(m in node.value for m in SHARED_ROW_MESSAGES))):
                sites.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return sites


def test_row_rules_live_in_the_shared_reader():
    """Only quantiles.subject_rows reads CSV records and checks the row
    rules every subject-keyed reader shares: field count, empty and
    repeated ids (and so words their messages)."""
    src = Path(funcutpoint.__file__).parent
    sites = set().union(*(_row_rule_sites(path) for path in src.glob("*.py")))
    assert sites == {"quantiles.py:subject_rows"}


def _name_sites(path: Path, names):
    """The top-level functions of a source file that use any of `names`, as
    a name, an attribute or an import, as "file:function"."""
    sites = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr in names)
                    or (isinstance(node, ast.ImportFrom)
                        and any(alias.name in names for alias in node.names))):
                sites.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return sites


def test_sweep_arithmetic_lives_in_cutpoint():
    """Only cutpoint turns a sweep into numbers: the zero-sign rule and the
    trapezoidal area appear nowhere else (the glucose AUC of indices aside),
    and neither bootstrap nor simulate defines a sweep or AUC helper."""
    src = Path(funcutpoint.__file__).parent
    sites = set().union(*(_name_sites(path, {"zero_candidate", "trapezoid"})
                          for path in src.glob("*.py")))
    sites.discard("indices.py:_auc_index")
    assert {site.split(":")[0] for site in sites} == {"cutpoint.py"}
    for name in ("bootstrap.py", "simulate.py"):
        helpers = {node.name for node in ast.walk(ast.parse((src / name).read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and re.search("sweep|auc", node.name) and not node.name.startswith("write_")}
        assert (name, helpers) == (name, set())


BLAS_NAMES = {"dot", "matmul", "einsum", "linalg"}


def _blas_sites(path: Path):
    """The top-level functions of a source file that may reach BLAS: a
    matrix product `@`, or dot, matmul, einsum or linalg by any spelling,
    as "file:function"."""
    sites = _name_sites(path, BLAS_NAMES)
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                    or (isinstance(node, ast.Import) and any(
                        BLAS_NAMES & set(alias.name.split(".")) for alias in node.names))):
                sites.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return sites


def test_no_float_blas_call():
    """The CLI runs numpy with one OpenBLAS thread because the program makes
    no float BLAS call. The one matrix product is in the glucose decoder,
    where `@` multiplies integer arrays, which numpy computes without BLAS.
    A new site fails here, so the thread default is revisited on purpose."""
    src = Path(funcutpoint.__file__).parent
    sites = set().union(*(_blas_sites(path) for path in src.glob("*.py")))
    assert sites == {"ingest.py:_decode_glucose"}


def test_cli_reads_curves_as_one_matrix():
    """The CLI takes each curves file as one (ids, matrix) pair: it names
    neither per-row QuantileCurve objects nor curve_matrix, which stacks them."""
    tree = ast.parse((Path(funcutpoint.__file__).parent / "cli.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert names & {"QuantileCurve", "curve_matrix"} == set()


def test_curve_modules_leave_the_series_decoder_unloaded():
    """threshold, bootstrap and simulate read subject tables through
    quantiles: in a fresh process, importing them loads no funcutpoint.ingest."""
    src = str(Path(funcutpoint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, funcutpoint.threshold, funcutpoint.bootstrap, funcutpoint.simulate; "
             "print(*sorted(m for m in sys.modules if m.startswith('funcutpoint.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = proc.stdout.split()
    assert "funcutpoint.simulate" in loaded
    assert "funcutpoint.ingest" not in loaded


def _imported_modules(tree) -> set[str]:
    """The modules a syntax tree imports, by any spelling, relative imports
    resolved against funcutpoint."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "funcutpoint." * bool(node.level) + (node.module or "")
            if module.rstrip(".") == "funcutpoint":
                found.update(f"funcutpoint.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return found


def test_only_cli_and_indices_import_ingest():
    """Only the commands that read series import the series decoder: the
    CLI and indices, whose input is a SubjectSeries."""
    src = Path(funcutpoint.__file__).parent
    importers = {path.name for path in src.glob("*.py")
                 if "funcutpoint.ingest" in _imported_modules(ast.parse(path.read_text()))}
    assert importers == {"cli.py", "indices.py"}


def _referenced_names(tree) -> set[str]:
    """The names a syntax tree uses as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_top_level_definition_is_test_only():
    """Every top-level function and class in src/ (the package's lazy
    __getattr__ and __dir__ aside) is used in src/ outside its own
    definition, or is an entry point that the acceptance gates or the
    oracles import. A name that only the tests call fails here."""
    src = Path(funcutpoint.__file__).parent
    tops = [(path.name, top) for path in sorted(src.glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    uses = [_referenced_names(top) for _, top in tops]
    tests = Path(__file__).parent
    imported = {alias.name for name in ("test_acceptance.py", "conftest.py")
                for node in ast.walk(ast.parse((tests / name).read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    test_only = [
        f"{name}:{top.name}" for k, (name, top) in enumerate(tops)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (name == "__init__.py" and top.name.startswith("__"))
        and top.name not in imported
        and not any(top.name in used for j, used in enumerate(uses) if j != k)]
    assert test_only == []


def _attributes(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_no_class_member_is_test_only():
    """Every method and property of a class in src/ (dunders aside) is read
    as an attribute in src/, or by the acceptance gates or the oracles. A
    member that only the tests use fails here."""
    src = Path(funcutpoint.__file__).parent
    tests = Path(__file__).parent
    paths = [*sorted(src.glob("*.py")), tests / "test_acceptance.py", tests / "conftest.py"]
    used = set().union(*map(_attributes, paths))
    test_only = [
        f"{path.name}:{top.name}.{member.name}" for path in sorted(src.glob("*.py"))
        for top in ast.parse(path.read_text()).body if isinstance(top, ast.ClassDef)
        for member in top.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in used]
    assert test_only == []


ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(root: Path, local) -> set[str]:
    """Top-level names of the absolute imports in the .py files under root
    that are neither the standard library nor in `local`."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n not in local}


def _names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower() for r in requirements}


def test_declared_dependencies_match_imports():
    """src/ imports exactly the runtime dependencies; tests/ imports
    exactly the test extra beyond them (pip install .[test] gives both)."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    test_extra = _names(project["optional-dependencies"]["test"])
    tests = ROOT / "tests"
    local = {"funcutpoint"} | {path.stem for path in tests.glob("*.py")}
    assert _third_party_imports(ROOT / "src", local) == runtime
    assert _third_party_imports(tests, local) - runtime == test_extra


CHOICE_CONSTANTS = {"CRITERIA", "MU_MODES", "GAP_MODES", "SPREAD_MODES", "U2_MODES"}


def test_choice_constants_have_one_home_and_cli_loads_no_submodule_eagerly():
    """Each option-choice constant is assigned once in src/, in the package
    __init__, so the parser reads it without loading a submodule; and
    cli.py's module-level imports name no funcutpoint submodule, so each
    command's modules are imported by its handler alone."""
    src = Path(funcutpoint.__file__).parent
    assigned = sorted(f"{path.name}:{node.id}" for path in sorted(src.glob("*.py"))
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                      and node.id in CHOICE_CONSTANTS)
    assert assigned == sorted(f"__init__.py:{name}" for name in CHOICE_CONSTANTS)
    top = ast.parse((src / "cli.py").read_text()).body
    imports = ast.Module(body=[node for node in top
                               if isinstance(node, (ast.Import, ast.ImportFrom))], type_ignores=[])
    eager = {module for module in _imported_modules(imports)
             if module.startswith("funcutpoint.") and module.split(".")[1] in MODULES}
    assert eager == set()


# Runs cli.main(argv) and prints, as JSON, its exit code and the modules
# loaded after `import funcutpoint.cli`, at the first input digest (once
# every artifact is written) and when main has returned.
LOAD_PROBE = """
import json, sys
import funcutpoint.cli as cli
loaded = {"import": sorted(sys.modules)}
sha256 = cli._sha256
def first_digest(path):
    loaded.setdefault("digest", sorted(sys.modules))
    return sha256(path)
cli._sha256 = first_digest
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, **loaded, "main": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory):
    """The probe's record for `ingest` on a canonical two-subject series,
    then `fit` and `bootstrap` on the curves it wrote, `bootstrap` on
    scores, and a small `simulate` study."""
    root = tmp_path_factory.mktemp("loads")
    series, labels, scores = root / "series.csv", root / "labels.csv", root / "scores.csv"
    write_series_file(series, [row for day in range(2) for sid, level in (("a", 100), ("b", 180))
                               for row in uniform_day_rows(sid, day, level, step_minutes=15)])
    series.write_bytes(series.read_bytes().replace(b"\r\n", b"\n"))
    write_labels_file(labels, {"a": 0, "b": 1})
    scores.write_text("subject_id,score\na,1.5\nb,2.5\n")
    src = str(Path(funcutpoint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argvs = {
        "ingest": ["ingest", "--series", series, "--labels", labels, "--nominal-interval", "15",
                   "--out", root / "ingest"],
        "fit": ["fit", "--curves", root / "ingest" / "curves.csv", "--grid",
                root / "ingest" / "grid.json", "--labels", labels, "--out", root / "fit"],
        "bootstrap": ["bootstrap", "--curves", root / "ingest" / "curves.csv", "--grid",
                      root / "ingest" / "grid.json", "--labels", labels, "--B", "50",
                      "--out", root / "bootstrap"],
        "bootstrap-scores": ["bootstrap", "--scores", scores, "--labels", labels, "--B", "50",
                             "--out", root / "bootstrap-scores"],
        "simulate": ["simulate", "--a", "1", "--b", "1", "--n", "20", "--R", "10",
                     "--out", root / "simulate"],
    }
    loads = {}
    for command, argv in argvs.items():
        proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        loads[command] = json.loads(proc.stdout.splitlines()[-1])
        assert loads[command]["code"] == 0, proc.stderr
    return loads


def test_importing_the_cli_loads_no_submodule_and_no_hashlib(command_loads):
    """`import funcutpoint.cli` loads the package and the cli module alone,
    and neither hashlib nor its OpenSSL module."""
    for record in command_loads.values():
        assert [m for m in record["import"] if m.startswith("funcutpoint.")] == ["funcutpoint.cli"]
        assert {"hashlib", "_hashlib"} & set(record["import"]) == set()


def test_each_command_loads_only_its_modules(command_loads):
    """fit loads no series decoder, bootstrap, study, indices or normal
    quantiles; ingest loads no bootstrap, study, cut-point sweep, threshold
    family or smoother; bootstrap, on either route, and simulate load no
    series decoder, indices or smoother, nor each other."""
    unused = {"fit": ["ingest", "simulate", "bootstrap", "indices", "normal"],
              "ingest": ["bootstrap", "simulate", "cutpoint", "threshold", "monotone"],
              "bootstrap": ["ingest", "simulate", "indices", "monotone", "normal"],
              "bootstrap-scores": ["ingest", "simulate", "indices", "monotone", "normal"],
              "simulate": ["ingest", "bootstrap", "indices", "monotone"]}
    for command, names in unused.items():
        assert "funcutpoint.quantiles" in command_loads[command]["main"]
        assert {f"funcutpoint.{n}" for n in names} & set(command_loads[command]["main"]) == set()


def test_ingest_loads_openssl_only_after_its_artifacts(command_loads):
    """The input digests, taken once every artifact is written, are the
    first thing in an ingest run to load hashlib's OpenSSL module."""
    record = command_loads["ingest"]
    assert "funcutpoint.ingest" in record["digest"]
    assert "_hashlib" not in record["digest"]
    assert "_hashlib" in record["main"]


def test_no_command_loads_numpy_ma(command_loads):
    """No command loads numpy.ma, about 1.9 MB resident: the bootstrap's
    intervals and bands and the study's summary take np.quantile's linear
    quantiles with quantiles.linear_quantiles, and np.quantile's kth set,
    built with np.unique, would load it."""
    loaded = {command: "numpy.ma" in record["main"] for command, record in command_loads.items()}
    assert loaded == dict.fromkeys(command_loads, False)
