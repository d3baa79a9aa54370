"""The options ledger: every defaulted parameter of the public API.

Each public function of a primeavg module, and each public method of a
public class defined there, is inspected for parameters with a default.
The set must equal the table below, so that adding an option (or leaving
one behind when its last caller goes) is a visible edit here.
"""

import importlib
import inspect

import pytest

import primeavg

LEDGER = {
    "characters": {"exceptional_zero_scan": ("c",)},
    "cli": {"run": ("argv",)},
    "ergodic": {"DynamicalSystem.rotation": ("cf_depth",),
                "convergence_diagnostic": ("reference",),
                "transference_sample": ("lambda_grid",)},
    "gauss": {"verify_quadratic_range": ("q_min",),
              "verify_quadratic_rows": ("q_min",)},
    "maximal": {"Signal.delta": ("at",),
                "random_signal": ("complex_values", "offset"),
                "maximal_dyadic": ("table",),
                "default_lambda_grid": ("j_max",),
                "residue_equidistribution": ("resolution",),
                "l2_arc_maximal_decay": ("resolution",),
                "ab_split_apply": ("resolution",),
                "b_part_maximal_l2": ("resolution",)},
    "multipliers": {"approximant_hat": ("exceptional",),
                    "nu_n_s": ("exceptional",),
                    "nu_n": ("s_max",),
                    "nu_n_s_grid": ("exceptional",),
                    "nu_n_grid": ("s_max", "exceptional"),
                    "approximation_error": ("s_max", "exceptional")},
    "orlicz": {"orlicz_norm": ("tol",),
               "dyadic_layers": ("j_max",),
               "layer_lower_bound": ("j_max",)},
}


def _public_callables(module):
    """(qualified name, function) for the module's own public functions and
    the public methods of its own public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for meth, attr in vars(obj).items():
                fn = getattr(attr, "__func__", attr)  # unwrap class/static methods
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{meth}", fn


def _defaulted(fn):
    return tuple(p.name for p in inspect.signature(fn).parameters.values()
                 if p.default is not inspect.Parameter.empty)


def _options(layer):
    module = importlib.import_module(f"primeavg.{layer}")
    table = {name: _defaulted(fn) for name, fn in _public_callables(module)}
    return {name: opts for name, opts in table.items() if opts}


@pytest.mark.parametrize("layer", primeavg.__all__)
def test_defaulted_parameters_match_the_ledger(layer):
    assert _options(layer) == LEDGER.get(layer, {})


def test_the_public_api_has_27_options():
    assert sum(len(opts) for layer in primeavg.__all__
               for opts in _options(layer).values()) == 27
