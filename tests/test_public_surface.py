"""The package's public names, and the annotations of everything it defines.

The package root's names are pinned as a literal list, so that removing a
routine or re-exporting one always shows up as a diff of this file.
"""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing

import quandlekit

PUBLIC_NAMES = [
    "AffineResult", "AffineSpec", "AnalysisReport", "AxiomDiagnosis",
    "BoundExceeded", "CapExceeded", "ClassQuandle", "CrosscheckResult",
    "CycleType", "DegreeMismatch", "FiberPartition", "HayashiVerdict",
    "HomogeneousSpec", "IntersectionEvidence", "IsoWitness", "KERNEL_BACKEND",
    "NotARack", "NotConnected", "NotTransitive", "OrbitSizes", "ParseError",
    "Permutation", "PermutationGroup", "PrimitivityReport", "Profile",
    "QuandlekitError", "RackTable", "TheoremViolation", "affine_quandle",
    "alternating_class_divisibility_check", "alternating_class_scan",
    "alternating_group", "analysis", "center_check", "conjecture",
    "conjugacy_class_quandle", "conjugation_rack_quotient_check",
    "constructors", "cyclic_permutation_rack", "dihedral_quandle",
    "divisibility_crosscheck", "emit_rtbl", "enumerate_connected_quandles",
    "enumerate_connected_racks", "errors", "fibers", "fingerprint",
    "fixtures", "full_report", "hayashi_check", "homogeneous_quandle",
    "inner_action_primitivity", "inner_group", "intersection_evidence",
    "is_connected", "is_faithful", "is_isomorphic",
    "k_tilde_block_diagnostic", "lambda_part", "make_affine_spec",
    "make_homogeneous_spec", "orbit_divisibility", "parse_perm_file",
    "parse_rack_file", "parse_rtbl", "perm", "primitive_divisibility_check",
    "profile", "racktable", "smallquandle_12_4",
    "symmetric_class_divisibility_check", "symmetric_class_scan",
    "symmetric_group", "trivial_quandle", "validate",
]


def test_public_names_are_pinned():
    # a fresh interpreter: importing a submodule elsewhere in the test run
    # (quandlekit.cli, say) would add its name to the package's namespace
    src = os.path.dirname(os.path.dirname(os.path.abspath(quandlekit.__file__)))
    code = ("import quandlekit; print(sorted(n for n in vars(quandlekit) "
            "if not n.startswith('_')))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    assert proc.stdout == f"{sorted(PUBLIC_NAMES)}\n"


def _modules():
    yield quandlekit
    for info in pkgutil.walk_packages(quandlekit.__path__, "quandlekit."):
        yield importlib.import_module(info.name)


def _defined_callables():
    """(qualified name, function) for every function and method whose code
    lives in a quandlekit module."""
    for module in _modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    elif isinstance(attr, property):
                        attr = attr.fget
                    if (inspect.isfunction(attr)
                            and attr.__module__ == module.__name__):
                        yield f"{module.__name__}.{attr.__qualname__}", attr


def test_every_annotation_resolves():
    unresolved = []
    for name, fn in _defined_callables():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
