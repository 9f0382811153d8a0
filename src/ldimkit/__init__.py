"""ldimkit: build, verify, and bound local realizers of finite posets.

The names below are read from their modules on first access (PEP 562), so
importing the package, or running one CLI subcommand, loads only the
modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": [
        "LdimkitError", "ParameterError", "RangeError", "FormatError",
        "ContractError", "DecodeError", "SolverEnvironmentError",
        "SolverProtocolError", "BoundExceededError"],
    "posets": [
        "Poset", "BooleanLattice", "SingletonPoset", "MultisetLattice",
        "MultisetSingletonPoset", "Chain", "Antichain", "ProductPoset",
        "build_poset", "canonical_linear_extension", "id_to_set",
        "set_to_id"],
    "realizers": [
        "RealizerFamily", "VerificationReport", "Violation", "validate_ple",
        "verify_local_realizer", "lift_product", "build_standard_realizer",
        "build_bn_realizer"],
    "orders_io": [
        "parse_orders_text", "parse_orders_family", "emit_orders_text",
        "read_orders_family", "write_orders_file"],
    "fixtures": ["b4_family", "b7_family", "fixture_text"],
    "singletons": [
        "default_block_width", "singleton_frequency_bound", "block_partition",
        "build_singleton_plan", "build_singleton_realizer"],
    "sat": [
        "VarMap", "CnfFormula", "SolverResult", "encode",
        "expected_clause_count", "decode_realizer", "solve_instance",
        "ldim_certificate"],
    "dimacs": [
        "write_dimacs", "parse_dimacs", "parse_model_text", "read_model",
        "run_solver"],
    "bounds": [
        "ConflictGraph", "BoundReport", "SignatureAuditReport",
        "conflict_graph", "independent_set", "iter_independent_sets",
        "check_ind_freq_claim", "turan_independence_floor",
        "multiset_lower_bound", "min_m_certifying", "signature_audit_report"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
