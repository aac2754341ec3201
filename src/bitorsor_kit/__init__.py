"""Finite bitorsor calculus with equivariant classification and decomposition.

Public names are loaded on first use (PEP 562): importing the package, or
one of its modules, imports no module that it does not itself need."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bitorsors": (
        "Bitorsor", "BitorsorMorphism", "from_right_torsor", "inverse", "isom_bitorsor",
        "pushforward", "trivial_bitorsor",
    ),
    "devissage": (
        "Decomposition", "SplitExtension", "decompose", "is_type_pi",
        "th_ppal_membership", "verify_decomposition",
    ),
    "equivariant": (
        "PiBitorsor", "PiGroup", "PiMorphism", "ThetaBitorsor", "classify", "compose_pi",
        "from_theta", "h1", "inverse_pi", "pi_isomorphism", "to_theta",
    ),
    "errors": ("DomainError",),
    "formats": (
        "ParseError", "decomposition_from_json", "decomposition_to_json", "format_extension",
        "format_group", "format_registry", "parse_extension", "parse_group", "parse_registry",
        "resolve_group_spec",
    ),
    "groups": (
        "FiniteGroup", "GroupHom", "Subgroup", "cyclic", "cyclic_power_action", "dihedral",
        "direct_product", "enumerate_homs", "iter_isomorphisms", "make_group",
        "semidirect_product", "subgroup", "symmetric",
    ),
    "local_model": ("BadParams", "SurveyReport", "TameParams", "build_tame_quotient", "survey"),
    "rclass": (
        "ElementaryClassRegistry", "fixed_point_closure", "in_closure", "requiv_related",
        "validate_registry",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Read each public name from its module at every access, so the value
    is always the module's current binding.  The modules that export names
    are attributes too, as they were when this file imported them all."""
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
