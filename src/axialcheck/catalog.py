"""Catalog of the dihedral Majorana-type algebras the verifier knows about,
plus instantiation and per-entry verification.

Each entry is a symbolic algebra document over Q(eta), in the layout that
``catalog emit`` writes, plus its documented relation.  The nine entries are
data, read once from ``catalog.json`` beside this module.  ``instantiate``
substitutes a field and an eta and hands the document to the one loader,
``algfile.load_document``, so one table serves the symbolic, rational,
prime-field and number-field instantiations alike.  Shift images for
out-of-window axes are frozen linear combinations derived from each entry's
documented relation.  The claim suite lives in ``derive``, compiled when
``check_claims`` first runs.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import cache
from types import MappingProxyType, SimpleNamespace

from . import algfile
from .axial import CheckResult, axial_dimension, check_dihedral, check_fusion, identity_suite
from .errors import AlgebraFileError, AxialError, ConstraintViolation, UnknownEntry
from .fields import FieldDescriptor, parse_scalar, render


class CatalogEntry(namedtuple(
    "CatalogEntry",
    "name doc document expected_adim expected_case expected_relation default_field fixed_eta",
    defaults=(None,),
)):
    """One encoded entry: document is the symbolic algebra document in the
    ``catalog emit`` layout, and expected_relation holds the documented
    relation's literal coefficients, leading one last."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.document["basis"])

    @property
    def required_char(self):
        return self.document.get("constraints", {}).get("characteristic")


@cache
def _entries():
    with open(os.path.join(os.path.dirname(__file__), "catalog.json"), encoding="utf-8") as handle:
        rows = json.load(handle)
    built = (CatalogEntry(**dict(row, expected_relation=tuple(row["expected_relation"]))) for row in rows)
    return {e.name.lower(): e for e in built}


def list_entries():
    """The fully encoded entries, in catalog order."""
    return tuple(_entries().values())


def get_entry(name: str) -> CatalogEntry:
    entry = _entries().get(name.lower())
    if entry is None:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    return entry


def _field_block(spec: str) -> dict:
    """The file field block that a spec string, q | qeta | gf:<p> |
    nf:<c0,c1,...>, names: a gf: prime is that block's "p" string, and the
    nf: coefficients its "minpoly" strings."""
    if spec.startswith("gf:"):
        return {"kind": "prime", "p": spec[3:]}
    if spec.startswith("nf:"):
        return {"kind": "number_field", "minpoly": spec[3:].split(",")}
    if spec in ("q", "qeta"):
        return {"kind": "rationals" if spec == "q" else "rational_functions"}
    raise ConstraintViolation(f"unknown field spec {spec!r}")


def field_from_spec(spec: str) -> FieldDescriptor:
    """The field of a spec string, read by algfile.field_from_dict from the
    file field block it names (_field_block)."""
    try:
        return algfile.field_from_dict(_field_block(spec))
    except AlgebraFileError:
        raise ConstraintViolation(f"malformed number in field spec {spec!r}") from None


_instantiate_cache: dict = {}
_verify_cache: dict = {}


def clear_caches():
    _instantiate_cache.clear()
    _verify_cache.clear()


def instantiate(name, field=None, eta=None, enforce=True):
    """Build (AlgebraDef, DihedralData) for a catalog entry.

    ``field`` is a spec string (field_from_spec), or None for the entry's
    default field; ``eta`` is a scalar literal, or None for the entry's fixed
    eta, else the field's variable.  Only the entry's own rules are checked
    here (its fixed eta unless ``enforce`` is false; no symbolic eta where
    the default field is a number field); the document, at this field and
    eta, then goes through algfile.load_document.  The rules are checked
    before the cache lookup, so the cache is keyed on (entry, field, eta)
    alone: ``enforce`` decides which calls are refused, not what an admitted
    call returns, and each instantiation is loaded once.
    """
    entry = get_entry(name)
    spec = entry.default_field if field is None else field
    field = field_from_spec(spec)
    eta = None if eta is None else parse_scalar(eta, field)
    if entry.fixed_eta is not None and (eta is None or enforce):
        fixed = parse_scalar(entry.fixed_eta, field)
        if eta is not None and eta != fixed:
            raise ConstraintViolation(f"{entry.name} is defined at eta = {entry.fixed_eta} only")
        eta = fixed
    if eta is None:
        if field.variable is None:
            raise ConstraintViolation(f"{entry.name} needs an explicit eta over {field!r}")
        eta = field.generator()
    if field.kind == FieldDescriptor.RATIONAL_FUNCTIONS and entry.default_field.startswith("nf:"):
        raise ConstraintViolation(
            f"{entry.name} needs eta bound by its minimal polynomial; "
            "a symbolic eta is not admissible"
        )
    key = (entry.name, field, render(eta))
    cached = _instantiate_cache.get(key)
    if cached is not None:
        return cached
    document = dict(  # its field block is the one field_from_spec read, so it loads as field
        entry.document,
        field=_field_block(spec),
        dihedral=dict(entry.document["dihedral"], eta=render(eta)),
    )
    alg, dd, _ = algfile.load_document(document, entry.name)
    _instantiate_cache[key] = alg, dd
    return alg, dd


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class EntryReport(namedtuple(
    "EntryReport", "entry field_repr eta_repr checks scalars relation dimensions"
)):
    """A verification report.  Frozen, with read-only mappings and tuples,
    since verify_entry hands one cached report to every caller."""

    __slots__ = ()

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def structurally_passed(self):
        """Axis/fusion/Miyamoto/dihedral/relation checks, identity rows aside."""
        return all(
            c.status != "fail"
            for c in self.checks
            if not c.name.startswith("identity:")
        )

    def canonical(self):
        def thawed(mapping):
            return {k: list(v) if isinstance(v, tuple) else v for k, v in mapping.items()}

        return {
            "entry": self.entry,
            "field": self.field_repr,
            "eta": self.eta_repr,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "scalars": dict(sorted(self.scalars.items())),
            "relation": thawed(self.relation),
            "dimensions": thawed(self.dimensions),
        }


def _fusion_pass(report, alg, dd, documented):
    dec = dd.base_split
    report.dimensions["parts"] = tuple(dec.dims())
    violations = check_fusion(alg, dec)
    detail = "; ".join(
        f"parts ({v.part_i},{v.part_j}) escape {v.allowed}" for v in violations[:4]
    )
    report.checks.append(CheckResult("fusion", "fail" if violations else "pass", detail))


def _dihedral_pass(report, alg, dd, documented):
    violations = check_dihedral(alg, dd)
    detail = "; ".join(f"{v.condition}@{v.index}: {v.detail}" for v in violations[:6])
    report.checks.append(CheckResult("dihedral", "fail" if violations else "pass", detail))


def _relation_pass(report, alg, dd, documented):
    witness = axial_dimension(alg, dd)
    report.relation = {
        "adim": witness.adim,
        "case": witness.case,
        "parity": witness.parity,
        "coefficients": tuple(render(c) for c in witness.coefficients),
    }
    report.checks.append(CheckResult("relation", "pass", witness.describe()))
    if documented is None:
        return
    expected = tuple(
        parse_scalar(lit, alg.field, dd.eta) for lit in documented.expected_relation
    )
    ok = (
        witness.adim == documented.expected_adim
        and witness.case == documented.expected_case
        and witness.coefficients == expected
    )
    report.checks.append(
        CheckResult(
            "relation_documented",
            "pass" if ok else "fail",
            "" if ok else
            f"computed {witness.describe()}, documented case "
            f"{documented.expected_case} adim {documented.expected_adim} "
            f"coefficients {list(documented.expected_relation)}",
        )
    )


def _identity_pass(report, alg, dd, documented):
    ident = identity_suite(alg, dd)
    for c in ident.checks:
        report.checks.append(c._replace(name=f"identity:{c.name}"))
    for key, value in ident.scalars.items():
        report.scalars[key] = render(value)


# check name -> (row reported when the pass raises, pass), in report order
_PASSES = {
    "fusion": ("fusion", _fusion_pass),
    "dihedral": ("dihedral", _dihedral_pass),
    "relations": ("relation", _relation_pass),
    "identities": ("identities", _identity_pass),
}
ALL_CHECKS = tuple(_PASSES)


def verify(name, alg, dd, checks=ALL_CHECKS, documented=None):
    """Run the selected verification passes on an algebra and its dihedral data.

    ``documented`` is the CatalogEntry the algebra came from, if any; it adds
    the ``relation_documented`` row.  A pass that raises an AxialError fails
    with the error as its detail: the input was accepted, so a failure here
    is a failed check, not a rejected input.
    """
    report = SimpleNamespace(checks=[], scalars={}, relation={}, dimensions={"ambient": alg.dim})
    for check, (row, run) in _PASSES.items():
        if check not in checks:
            continue
        try:
            run(report, alg, dd, documented)
        except AxialError as exc:
            report.checks.append(CheckResult(row, "fail", str(exc)))
    return EntryReport(
        name, repr(alg.field), render(dd.eta), tuple(report.checks),
        MappingProxyType(report.scalars), MappingProxyType(report.relation),
        MappingProxyType(report.dimensions),
    )


def verify_entry(name, field=None, eta=None, checks=ALL_CHECKS):
    """Instantiate a catalog entry and verify it against its documentation."""
    entry = get_entry(name)
    alg, dd = instantiate(name, field, eta)
    key = (entry.name, alg.field, render(dd.eta), tuple(checks))
    report = _verify_cache.get(key)
    if report is None:
        report = _verify_cache[key] = verify(entry.name, alg, dd, checks, documented=entry)
    return report


def check_claims():
    """Discharge the catalog's existence, ideal, quotient and dimension claims
    (derive.check_claims, compiled on first use)."""
    from . import derive

    return derive.check_claims()
