"""The options ledger: every defaulted parameter of the public API, and
every flag of the command line.

Each public function of a primeavg module, and each public method of a
public class defined there, is inspected for parameters with a default,
and each subcommand of cli.build_parser() for its flags.  Both must equal
the tables below, so that adding an option or a flag (or leaving one
behind when its last caller goes) is a visible edit here.
"""

import argparse
import importlib
import inspect

import pytest

import primeavg
from primeavg import cli

LEDGER = {
    "characters": {"exceptional_zero_scan": ("c",)},
    "cli": {"run": ("argv",)},
    "ergodic": {"DynamicalSystem.rotation": ("cf_depth",),
                "convergence_diagnostic": ("reference",),
                "transference_sample": ("lambda_grid",)},
    "gauss": {"verify_quadratic_rows": ("q_min",)},
    "maximal": {"Signal.delta": ("at",),
                "random_signal": ("complex_values", "offset"),
                "b_part_maximal_l2": ("resolution",)},
    "multipliers": {"approximant_hat": ("exceptional",),
                    "nu_n_s": ("exceptional",),
                    "nu_n": ("s_max",),
                    "nu_n_s_grid": ("exceptional",),
                    "nu_n_grid": ("s_max", "exceptional"),
                    "approximation_error": ("s_max", "exceptional")},
    "orlicz": {"dyadic_layers": ("j_max",),
               "layer_lower_bound": ("j_max",)},
}

# every subcommand takes the common report flags; the two that measure a
# constant also take the frozen-fixture flags
_COMMON = ("--out", "--format", "--threads", "--seed")
_FROZEN = ("--fixtures", "--refreeze")
CLI_FLAGS = {
    "gauss-verify": _COMMON + ("--q-max",),
    "multiplier-error": _COMMON + ("--n-min", "--n-max", "--grid", "--s-max",
                                   "--inject-beta", "--inject-q"),
    "weak-type-sweep": _COMMON + _FROZEN + ("--family", "--size", "--n-max",
                                            "--lambda-grid"),
    "lp-sweep": _COMMON + ("--p-list", "--seeds", "--support", "--n-max"),
    "residue-equidist": _COMMON + _FROZEN + ("--q", "--s", "--beta", "--n-max",
                                             "--support", "--resolution"),
    "ergodic-demo": _COMMON + ("--system", "--alpha", "--alpha-cf-depth",
                               "--modulus", "--set", "--x0", "--n-max", "--seeds"),
    "orlicz-norm": _COMMON + ("--input", "--j-max"),
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


def test_the_public_api_has_20_options():
    assert sum(len(opts) for layer in primeavg.__all__
               for opts in _options(layer).values()) == 20


def _cli_flags():
    """{subcommand: its flags in parser order}, --help left out."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: tuple(a.option_strings[-1] for a in parser._actions
                        if a.option_strings and not isinstance(a, argparse._HelpAction))
            for name, parser in sub.choices.items()}


def test_cli_flags_match_the_ledger():
    assert _cli_flags() == CLI_FLAGS


def test_the_command_line_has_63_flags():
    assert sum(len(flags) for flags in _cli_flags().values()) == 63
