"""Reading and writing form description documents.

The interchange format is JSON with exact rationals as strings, schema
version "1".  Indices are 1-based and strictly increasing inside each
multi-index; a flag is given by the coordinate indices spanning the
vertical space plus an optional splitting matrix (columns into the total
space).  See the shipped corpus files for worked examples.  Forms are
read straight into their reduced integer views, one (n, d) pair per
distinct coefficient string, a well-formed poly_form terms list is read
and written a list at a time, and subspace rows are written from echelons.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain, islice, repeat
from operator import itemgetter, ne
from dataclasses import dataclass, field
from fractions import Fraction
from io import BytesIO, TextIOWrapper
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from pathlib import Path

from .errors import DimensionMismatch, DocumentError, PreconditionError
from .exterior import (AlternatingForm, Flag, VectorValuedForm, _seeded, coordinate_flag,
                       indices_of, mask_of, with_splitting)
from .lie import LieAlgebra, lie_algebra
from .linalg import Matrix, Subspace, frac
from .polyforms import PolyForm, _pf_seeded

SCHEMA_VERSION = "1"

KINDS = ("scalar_form", "vector_valued_form", "poly_form", "lie_algebra")

# Budgets on the declared dimension, checked while a document is parsed,
# before any row is built: kernels hold dense rows of length dim, and a Lie
# algebra's dim^3 structure tensor takes about dim^4 steps to check.  The
# value dimension has its own: analyze projects a vector-valued form onto
# about value_dim^2 / 2 covectors, each a pass over every component, so its
# time grows as value_dim^3 (about a second at the budget, one term in R^4).
MAX_DIM = 1024
MAX_LIE_DIM = 16
MAX_VALUE_DIM = 100


@dataclass
class FormDocument:
    kind: str
    payload: object            # VectorValuedForm | AlternatingForm | PolyForm | LieAlgebra
    flag: Flag | None = None
    r: int | None = None
    frame: Matrix | None = None
    description: str = ""
    claims: dict = field(default_factory=dict)
    input_digest: str | None = None  # sha256 of the file's bytes, set by ``load_document``


def _shown(x) -> str:
    """repr(x), cut to its first 40 characters plus its length when longer."""
    r = repr(x)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def _rat(s) -> Fraction:
    try:
        return frac(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        shown = _shown(s)
        raise DocumentError(f"bad rational {shown}: {str(exc).replace(repr(s), shown)}") from exc


# the fields of poly_form terms and monomials, read a list at a time
_INDICES, _POLYNOMIAL, _COEFFICIENT, _EXPONENTS = map(
    itemgetter, ("indices", "polynomial", "coefficient", "exponents"))
_TERM_KEYS, _MONO_KEYS = {"indices", "polynomial"}, {"coefficient", "exponents"}

# a plain integer or p/q, ASCII digits only: ``_poly_pair`` reads these with int
_PLAIN_RAT = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?")


def _poly_pair(s) -> tuple[int, int]:
    """A polynomial coefficient as ``_rat`` reads it, as (n, d) with d > 0: a plain ``p`` or
    ``p/q`` string by ``int``, unreduced; any other value, or one ``int`` cannot read or with a
    zero denominator, by ``_rat``, so acceptance and every error text stay those of ``Fraction``."""
    if type(s) is str and _PLAIN_RAT.fullmatch(s):
        num, _, den = s.partition("/")
        try:
            if d := int(den or 1):
                return int(num), d
        except ValueError:  # past the int-string limit
            pass
    c = _rat(s)
    return c.numerator, c.denominator


def _pair(s, seen: dict) -> tuple[int, int]:
    """``_poly_pair(s)``, kept in ``seen`` under ``s`` if a string, else under itself."""
    c = _poly_pair(s)
    seen[s if type(s) is str else c] = c
    return c


def _need(doc: dict, key: str, kind: type | None = None, owner: str = "document"):
    """The field ``key`` of the JSON object ``doc``, which is refused by the name ``owner``
    if it is not one; given ``kind``, of exactly that JSON type."""
    if type(doc) is not dict:
        raise DocumentError(f"{owner} must be a JSON object, got {_shown(doc)}")
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    if kind is not None and type(doc[key]) is not kind:
        raise DocumentError(f"{key} must be a {kind.__name__}, got {_shown(doc[key])}")
    return doc[key]


def _int(x, what: str) -> int:
    """A JSON integer; bools, floats and strings are refused, not coerced."""
    if type(x) is not int:
        raise DocumentError(f"{what} must be an integer, got {_shown(x)}")
    return x


def _ints(x, what: str, dim: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, as a tuple; given ``dim``, each in 1..dim."""
    if type(x) is not list or not {int}.issuperset(map(type, x)):
        raise DocumentError(f"{what} must be a list of integers, got {_shown(x)}")
    if dim is not None and x and not (1 <= min(x) and max(x) <= dim):
        raise DocumentError(f"{what} {_shown(x)} leave the coordinates 1..{dim}")
    return tuple(x)


def parse_document(doc: dict) -> FormDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = _need(doc, "kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    r = doc.get("r")
    if r is not None and type(r) is not int:
        raise DocumentError(f"r must be an integer, got {r!r}")
    dim = doc.get("dim")
    if type(dim) is int and dim > MAX_DIM:
        raise PreconditionError(f"dimension {dim} exceeds the budget of {MAX_DIM} (MAX_DIM)")
    if kind == "lie_algebra" and type(dim) is int and dim > MAX_LIE_DIM:
        raise PreconditionError(
            f"Lie algebra dimension {dim} exceeds the budget of {MAX_LIE_DIM} (MAX_LIE_DIM)")
    value_dim = doc.get("value_dim")
    if type(value_dim) is int and value_dim > MAX_VALUE_DIM:
        raise PreconditionError(f"value dimension {value_dim} exceeds the budget of "
                                f"{MAX_VALUE_DIM} (MAX_VALUE_DIM)")
    try:
        if kind == "lie_algebra":
            payload = _parse_lie(doc)
        elif kind == "poly_form":
            payload = _parse_poly_form(doc)
        else:
            payload = _parse_alternating(doc, kind)
        flag = None
        if doc.get("flag") is not None:
            flag = _parse_flag(doc["flag"], doc)
        frame = doc.get("frame")
        if frame is not None:
            if type(frame) is not list or not {list}.issuperset(map(type, frame)):
                raise DocumentError(f"frame must be a list of lists, got {_shown(frame)}")
            frame = Matrix.from_rows([[_rat(x) for x in row] for row in frame])
    except DocumentError:
        raise
    except Exception as exc:  # invariant violations inside constructors
        raise DocumentError(f"invalid document: {exc}") from exc
    return FormDocument(kind, payload, flag, r, frame,
                        doc.get("description", ""), doc.get("claims", {}))


def _parse_alternating(doc: dict, kind: str):
    """The form, each component read straight into its integer view, as ``_parse_poly_form``."""
    dim = _int(_need(doc, "dim"), "dim")
    degree = _int(_need(doc, "degree"), "degree")
    value_dim = _int(doc.get("value_dim", 1), "value_dim")
    if kind == "scalar_form" and value_dim != 1:
        raise DocumentError("scalar_form must have value_dim 1")
    seen, parsed = {}, []  # coefficients as ``_pair`` keeps them; (component, mask, pair)
    for term in _need(doc, "terms", list):
        idx = _ints(_need(term, "indices", owner="term"), "indices", dim)
        if list(idx) != sorted(set(idx)):
            raise DocumentError(f"indices must be strictly increasing: {idx}")
        if len(idx) != degree:
            raise DocumentError(f"multi-index {idx} does not match degree {degree}")
        comp = _int(term.get("component", 1), "component")
        if not 1 <= comp <= value_dim:
            raise DocumentError(f"component {comp} out of range")
        s = _need(term, "coefficient", owner="term")
        parsed.append((comp - 1, mask_of(idx), (type(s) is str and seen.get(s)) or _pair(s, seen)))
    den = lcm(*(d for _, d in seen.values()))
    sums: list[dict] = [{} for _ in range(value_dim)]
    for a, m, (n, d) in parsed:
        sums[a][m] = sums[a].get(m, 0) + n * (den // d)
    comps = [_seeded(dim, degree, {m: n for m, n in nums.items() if n}, den) for nums in sums]
    return comps[0] if kind == "scalar_form" else VectorValuedForm(tuple(comps))


def _parse_poly_form(doc: dict) -> PolyForm:
    """The form, read straight into its integer view over the lcm of the denominators: a
    well-formed terms list by ``_read_terms``, any other term by term through ``_need`` and
    ``_ints`` and their texts."""
    dim = _int(_need(doc, "dim"), "dim")
    degree = _int(_need(doc, "degree"), "degree")
    split = _ints(_need(doc, "split"), "split")
    if len(split) != 2:
        raise DocumentError("split must be a pair")
    if min(split) < 0:
        raise DocumentError(f"split entries must be nonnegative: {split}")
    terms = _need(doc, "terms", list)
    read = _read_terms(terms, dim, degree)
    if read is None:
        seen: dict = {}  # coefficient string -> (n, d), as ``_pair`` keeps them
        parsed = []
        for term in terms:
            idx = _ints(_need(term, "indices", owner="term"), "indices", dim)
            if list(idx) != sorted(set(idx)):
                raise DocumentError(f"indices must be strictly increasing: {idx}")
            if len(idx) != degree:
                raise DocumentError(f"multi-index {idx} does not match degree {degree}")
            monos = []
            for mono in _need(term, "polynomial", list, "term"):
                exps = _ints(_need(mono, "exponents", owner="monomial"), "exponents")
                if len(exps) != dim:
                    raise DocumentError("exponent tuple does not match dimension")
                if exps and min(exps) < 0:
                    raise DocumentError(f"exponents must be nonnegative: {exps}")
                s = _need(mono, "coefficient", owner="monomial")
                monos.append((exps, (type(s) is str and seen.get(s)) or _pair(s, seen)))
            parsed.append((mask_of(idx), monos))
        den = lcm(*(d for _, d in seen.values()))
        nums: dict = {}
        for mask, monos in parsed:
            sums: dict = {}
            for exps, (n, d) in monos:
                n *= den // d
                sums[exps] = sums[exps] + n if exps in sums else n  # repeats add up
            slot = nums.setdefault(mask, {}) if any(sums.values()) else {}  # none for a zero term
            for exps, n in sums.items():
                if n:  # zeros are dropped at the term's end, cancellations as they happen
                    if nv := slot.get(exps, 0) + n:
                        slot[exps] = nv
                    else:
                        del slot[exps]
        read = {m: slot for m, slot in nums.items() if slot}, den
    if sum(split) != dim:
        raise DimensionMismatch("split does not sum to the dimension")
    return _pf_seeded(dim, degree, split, *read)


def _read_terms(terms: list, dim: int, degree: int) -> tuple[dict, int] | None:
    """The slots and den of a ``_term_fields`` list with ``degree`` indices per term rising
    strictly in 1..dim, no mask twice, ``dim`` exponents >= 0 per monomial, none twice in a
    term, and no coefficient that scales to 0, each slot ``dict(zip(exponents, numerators))``;
    None for any other list.  A bad coefficient raises as it does on the checked route."""
    if (fields := _term_fields(terms)) is None:
        return None
    idx, polys, coeffs, exps, flat_idx, flat_exp = fields
    if not ({degree}.issuperset(map(len, idx)) and {dim}.issuperset(map(len, exps))
            and (not flat_idx or 0 < min(flat_idx) and max(flat_idx) <= dim)
            and (not flat_exp or min(flat_exp) >= 0)
            and list(map(sorted, map(set, idx))) == idx):
        return None
    # sum of 2^i over the indices, halved: the mask of bits i - 1
    masks = list(map((1).__rrshift__, map(sum, map(map, repeat((1).__lshift__), idx))))
    pairs = {s: _poly_pair(s) for s in dict.fromkeys(coeffs)}
    den = lcm(*(d for _, d in pairs.values()))
    scaled = {s: n * (den // d) for s, (n, d) in pairs.items()}
    if len(set(masks)) != len(masks) or 0 in scaled.values():
        return None
    lens = list(map(len, polys))
    tuples, numerators = map(tuple, exps), map(scaled.__getitem__, coeffs)
    slots = list(map(dict, map(zip, map(islice, repeat(tuples), lens),
                               map(islice, repeat(numerators), lens))))
    if list(map(len, slots)) != lens:  # an exponent tuple repeated in a term
        return None
    return {m: slot for m, slot in zip(masks, slots) if slot}, den


def _term_fields(terms: list) -> tuple | None:
    """(indices, polynomials, coefficients, exponents, flat indices, flat exponents) of terms
    exactly ``{"indices": [int, ...], "polynomial": [...]}`` with monomials exactly
    ``{"coefficient": str, "exponents": [int, ...]}``, each check one pass over a whole list;
    None for any other list, a list of other dicts at its first item."""
    try:
        if any(map(ne, map(dict.keys, terms), repeat(_TERM_KEYS))):
            return None
        idx, polys = list(map(_INDICES, terms)), list(map(_POLYNOMIAL, terms))
        if not {list}.issuperset(map(type, chain(idx, polys))):
            return None
        monos = list(chain.from_iterable(polys))
        if any(map(ne, map(dict.keys, monos), repeat(_MONO_KEYS))):
            return None
    except TypeError:  # an item that is not a dict
        return None
    coeffs, exps = list(map(_COEFFICIENT, monos)), list(map(_EXPONENTS, monos))
    if not ({str}.issuperset(map(type, coeffs)) and {list}.issuperset(map(type, exps))):
        return None
    flat_idx, flat_exp = list(chain.from_iterable(idx)), list(chain.from_iterable(exps))
    if not {int}.issuperset(map(type, chain(flat_idx, flat_exp))):  # no bool: True hashes as 1
        return None
    return idx, polys, coeffs, exps, flat_idx, flat_exp


def _parse_lie(doc: dict) -> LieAlgebra:
    dim = _int(_need(doc, "dim"), "dim")
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in _need(doc, "structure_constants", list):
        idx = _ints(_need(entry, "indices", owner="structure constant"), "indices", dim)
        if len(idx) != 3:
            raise DocumentError(f"indices must be three integers, got {_shown(list(idx))}")
        a, b, k = idx
        c[a - 1][b - 1][k - 1] = _rat(_need(entry, "value", owner="structure constant"))
    return lie_algebra(dim, c)


def _parse_flag(flag_doc: dict, doc: dict) -> Flag:
    dim = _int(_need(doc, "dim"), "dim")
    vertical = _ints(_need(flag_doc, "vertical_indices", owner="flag"), "vertical_indices")
    flag = coordinate_flag(dim, vertical)
    split = flag_doc.get("splitting")
    if split is not None:
        if type(split) is not list or not {list}.issuperset(map(type, split)):
            raise DocumentError(f"splitting must be a list of lists, got {_shown(split)}")
        cols = tuple({i: c for i, x in enumerate(col) if x != "0" and (c := _rat(x))} for col in split)
        if any(len(col) != len(split[0]) for col in split):
            raise ValueError("ragged rows")
        flag = with_splitting(flag, Matrix(len(split[0]) if split else 0, cols))
    return flag


def load_document(path) -> FormDocument:
    """The document in the file ``path``, read once: its bytes are decoded as ``read_text``
    decodes them, and their sha256 is the document's ``input_digest``."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(TextIOWrapper(BytesIO(raw)).read())
    except (ValueError, RecursionError) as exc:  # also: bad bytes, int-string limit, deep nesting
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
    parsed = parse_document(doc)
    parsed.input_digest = hashlib.sha256(raw).hexdigest()
    return parsed


# ---------------------------------------------------------------------------
# serialization


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, faster.

    Takes dicts with str keys, lists, tuples, str, int, bool, None and
    float (floats are formatted by ``json.dumps``); anything else, a
    non-str key included, raises ``TypeError``.  The stdlib's indented
    encoder is a pure-Python generator chain; this writer appends to one
    list instead, and writes a poly_form terms list a list at a time
    (``_write_terms``).
    """
    out: list = []
    _write_json(obj, out, "\n")
    return "".join(out)


# encoders of the leaves that reports are made of, by exact type (bool is not int here)
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _write_json(obj, out: list, newline: str) -> None:
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        kind = kinds.pop() if len(kinds) == 1 else None
        encode = _LEAVES.get(kind)
        if encode is not None:
            out.append("[" + inner + sep.join(map(encode, obj)) + newline + "]")
            return
        if kind is dict and _write_terms(obj, out, newline):
            return
        out.append("[")
        for i, x in enumerate(obj):
            head = sep if i else inner
            encode = _LEAVES.get(type(x))
            if encode is None:
                out.append(head)
                _write_json(x, out, inner)
            else:
                out.append(head + encode(x))
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            head = (sep if i else inner) + encode_basestring_ascii(key) + ": "
            x = obj[key]
            encode = _LEAVES.get(type(x))
            if encode is None:
                out.append(head)
                _write_json(x, out, inner)
            else:
                out.append(head + encode(x))
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# the written form of each exponent and index a term list may hold; any other int falls back
_SMALL = {i: str(i) for i in range(256)}


def _write_terms(obj: list, out: list, newline: str) -> bool:
    """Write a ``_term_fields`` list with no empty polynomial, indices of one nonzero width,
    exponents of another and ints in 0..255 as ``_write_json`` would: each term and monomial
    from one template, all indices and exponents by one grouped join.  On any other list
    write nothing, return False."""
    if (fields := _term_fields(obj)) is None or not all(fields[1]):
        return False
    idx, polys, coeffs, exps, flat_idx, flat_exp = fields
    (n_idx, *more_idx), (n_exp, *more_exp) = set(map(len, idx)), set(map(len, exps))
    if more_idx or more_exp or not (n_idx and n_exp):
        return False
    inner = newline + "  "
    d2, d3, d4, d5 = (inner + "  " * i for i in range(1, 5))
    try:
        idx = map(("," + d3).join, zip(*[iter(map(_SMALL.__getitem__, flat_idx))] * n_idx))
        exps = map(("," + d5).join, zip(*[iter(map(_SMALL.__getitem__, flat_exp))] * n_exp))
        mono = ("{" + d4 + '"coefficient": %s,' + d4 + '"exponents": [' + d5 + "%s" + d4 + "]"
                + d3 + "}")
        written = map(mono.__mod__, zip(map(encode_basestring_ascii, coeffs), exps))
        term = ("{" + d2 + '"indices": [' + d3 + "%s" + d2 + "]," + d2 + '"polynomial": [' + d3
                + "%s" + d2 + "]" + inner + "}")
        polys = map(("," + d3).join, map(islice, repeat(written), map(len, polys)))
        out.append("[" + inner + ("," + inner).join(map(term.__mod__, zip(idx, polys)))
                   + newline + "]")
    except KeyError:  # an int outside ``_SMALL``
        return False
    return True


def alternating_to_document(x, *, flag: Flag | None = None, r: int | None = None,
                            description: str = "", claims: dict | None = None) -> dict:
    if isinstance(x, AlternatingForm):
        kind = "scalar_form"
        comps = [x]
    else:
        kind = "vector_valued_form"
        comps = list(x.components)
    terms = []
    for a, comp in enumerate(comps, start=1):
        nums, den = comp._numerators  # written from the integer view, in ``terms()`` order
        for m in sorted(nums):
            t = {"indices": list(indices_of(m)), "coefficient": _ratio_str(nums[m], den)}
            if kind == "vector_valued_form":
                t["component"] = a
            terms.append(t)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dim": comps[0].dim,
        "degree": comps[0].degree,
        "terms": terms,
    }
    if kind == "vector_valued_form":
        doc["value_dim"] = len(comps)
    if description:
        doc["description"] = description
    if flag is not None:
        doc["flag"] = flag_to_document(flag)
    if r is not None:
        doc["r"] = r
    if claims:
        doc["claims"] = claims
    return doc


def _ratio_str(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for den > 0, built from the ints."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def poly_form_to_document(x: PolyForm, *, description: str = "",
                          claims: dict | None = None) -> dict:
    nums, den = x._numerators  # written from the integer view, in ``terms()`` order
    text = dict.fromkeys(chain.from_iterable(map(dict.values, nums.values())))
    for n in text:  # each distinct numerator once
        text[n] = _ratio_str(n, den)
    terms = []
    for m in sorted(nums):
        terms.append({
            "indices": list(indices_of(m)),
            "polynomial": [{"exponents": list(e), "coefficient": text[n]}
                           for e, n in sorted(nums[m].items())],
        })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "poly_form",
        "dim": x.dim,
        "degree": x.degree,
        "split": list(x.split),
        "terms": terms,
    }
    if description:
        doc["description"] = description
    if claims:
        doc["claims"] = claims
    return doc


def flag_to_document(flag: Flag) -> dict:
    vertical = [p + 1 for p in flag.vertical.pivot_columns()]
    return {"vertical_indices": vertical, "splitting": matrix_columns(flag.splitting)}


def subspace_to_rows(sub: Subspace) -> list[list[str]]:
    """The RREF rows, as ``matrix_columns`` writes columns: each integer echelon row over its
    pivot entry, which is positive."""
    return [_written(sub.ambient_dim, row, row[p]) for p, row in zip(sub.pivot_columns(), sub.rows())]


def matrix_columns(m: Matrix) -> list[list[str]]:
    """The columns, written entry by entry: ``str`` of a stored entry, "0" for an absent one."""
    return [_written(m.rows, col) for col in m.columns]


def _written(n: int, vec: dict, den: int = 0) -> list[str]:
    """A sparse vector as n strings: ``str`` of each entry, or given ``den``, of entry / den."""
    written = ["0"] * n
    for i, x in vec.items():
        written[i] = _ratio_str(x, den) if den else str(x)
    return written
