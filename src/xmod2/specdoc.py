"""Ingestion of structure files: one JSON document naming everything.

Schema (all scalars are strings, e.g. "3/4" or "2 mod 5"; elements are
{key: scalar} maps where a key is a basis label or a monomial like
"x^2*y"; linear maps are {source-key: element}):

    {
      "ring": "Q" | {"prime": 5},
      "algebras": {
        NAME: {"type": "finite", "basis": [...], "products": {k: {k: elem}}}
            | {"type": "free", "generators": [...]}
            | {"type": "semidirect", "acting": NAME, "acted": NAME, "action": NAME}
      },
      "actions": {
        NAME: {"acting": NAME, "acted": NAME, "table": {k: {k: elem}}}
            | {"acting": NAME, "acted": NAME, "zero": true}
      },
      "precrossed":  {NAME: {"E": NAME, "R": NAME, "map": linmap, "action": NAME}},
      "crossed":     {NAME: {...same} | {"ideal": {"R": NAME, "labels": [...]}}},
      "two_crossed": {
        NAME: {"L": NAME, "E": NAME, "R": NAME, "d2": linmap, "d1": linmap,
               "action_e": NAME, "action_l": NAME,
               "lifting": {k: {k: elem}}, "free_basis": [...] | null}
            | {"kernel_of": NAME}
      },
      "maps": {
        NAME: {"kind": "crossed"|"two_crossed", "source": NAME, "target": NAME,
               "f0": linmap, "f1": linmap, "f2": linmap}      # or "identity": true
      },
      "derivations":            {NAME: {"base": NAME, "s": linmap}},
      "quadratic_derivations":  {NAME: {"base": NAME, "s": linmap, "t": linmap}}
    }

A 2-crossed module is free up to order one on R's generators when R is a
free algebra; an optional "free_basis" declaration must be those generators.

References resolve by name in dependency order.  A missing required
field, a reference or a label that is not a string, an unknown label,
monomial or map kind, a scalar that is not a JSON string or number, a
"zero" or "identity" that is not true or false, and a key or string
that UTF-8 cannot encode raise ParseError naming the
entry; a dangling or cyclic reference raises UnresolvedReference; a
failed law raises ValidationError(structure, cause) with the witness
preserved.
"""

import json
import re

from .algebra import FreeAlgebra, make_finite_algebra, make_free_algebra
from .cm_homotopy import make_cm_derivation
from .crossed import (
    ideal_inclusion_cm,
    identity_2cm_morphism,
    identity_cm_morphism,
    kernel_two_crossed,
    make_cm_morphism,
    make_crossed,
    make_precrossed,
    make_two_crossed,
    make_2cm_morphism,
)
from .errors import (
    BadShape,
    ParseError,
    UnresolvedReference,
    ValidationError,
    XmodError,
)
from .maps import (
    DEFAULT_POLICY,
    BilinearMap,
    algebra_morphism,
    make_action,
    semidirect,
    zero_action,
)
from .rings import ring_from_spec
from .tcm_homotopy import make_quadratic_derivation


class SpecDocument:
    def __init__(self, ring):
        self.ring = ring
        self.algebras = {}
        self.actions = {}
        self.precrossed = {}
        self.crossed = {}
        self.two_crossed = {}
        self.maps = {}
        self.derivations = {}
        self.quadratic = {}


def _shaped(value, kind, where):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ParseError("%s must be %s, got %r" % (where, shape, value))
    return value


def _names(value, where):
    """value, if it is a JSON array of strings (basis labels, generators)."""
    for name in _shaped(value, list, where):
        if not isinstance(name, str):
            raise ParseError("%s: %r is not a name" % (where, name))
    return value


def _refuse_surrogates(value, where):
    """Raise ParseError, naming where it sits, at the first key or string of
    the JSON value that UTF-8 cannot encode: a lone surrogate, which a \\u
    escape can write and no report could print."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("%s: %r is not UTF-8 text" % (where, value)) from None
    elif isinstance(value, dict):
        for key, item in value.items():
            _refuse_surrogates(key, where)
            _refuse_surrogates(item, "%s[%r]" % (where, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _refuse_surrogates(item, "%s[%d]" % (where, i))


# A \uD800-\uDFFF escape: the only way JSON text that decoded as UTF-8
# writes a surrogate.  Documents without one skip the walk above.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _entry(section, name):
    """An entry is named as its section, singular: "algebra 'N'", "map 'f'"."""
    return "%s %r" % (section.rstrip("s"), name)


def _required(spec, field, where):
    """spec[field] of a document entry; a missing field is a ParseError."""
    if field not in spec:
        raise ParseError("%s: missing required field %r" % (where, field))
    return spec[field]


def _parse_key(alg, key, where):
    """A basis label of a finite algebra, or a monomial like "x^2*y" of a
    free one."""
    try:
        if isinstance(alg, FreeAlgebra):
            return alg.parse_monomial(key)
        return alg.check_key(key)
    except BadShape as exc:
        raise ParseError("%s: %s" % (where, exc))


def _generator_key(alg, key, where):
    """The key a table or a linear map is given on: a basis label, or on a
    free algebra a single generator."""
    parsed = _parse_key(alg, key, where)
    if not isinstance(alg, FreeAlgebra):
        return parsed
    if len(parsed) != 1:
        raise ParseError("%s: %r is not a single generator" % (where, key))
    return parsed[0]


def _parse_scalar(ring, value, where):
    """A scalar given as a JSON string or number; bool is an int subclass
    and is refused by name."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError("%s: scalar %r is not a string or a number" % (where, value))
    return ring.parse(str(value))


def _parse_element(alg, data, where):
    if not isinstance(data, dict):
        raise ParseError("%s: element must be an object, got %r" % (where, data))
    coeffs = {}
    for key, scalar in data.items():
        coeffs[_parse_key(alg, key, where)] = _parse_scalar(alg.ring, scalar, where)
    return alg.element(coeffs)


def _parse_linmap_images(source, target, spec, field, entry):
    """The linear map spec[field] of a document entry as {source key:
    element of target}; an absent or null field is the zero map.  A key
    with no image goes to zero, as ``maps.generator_images`` reads it for
    every map, derivation and homotopy the images are given to."""
    where = "%s %s" % (entry, field)
    data = spec.get(field)
    images = {}
    for key, elem in ({} if data is None else _shaped(data, dict, where)).items():
        images[_generator_key(source, key, where)] = _parse_element(target, elem, where)
    return images


def _flag(spec, field, where):
    """spec[field] of a document entry, JSON true or false, false when
    absent; any other value is a ParseError."""
    value = spec.get(field, False)
    if not isinstance(value, bool):
        raise ParseError("%s: %r must be true or false, got %r" % (where, field, value))
    return value


class _Loader:
    def __init__(self, data, policy):
        if not isinstance(data, dict):
            raise ParseError("document root must be an object")
        self.data = data
        self.policy = policy
        self.doc = SpecDocument(ring_from_spec(data.get("ring", "Q")))
        self._building = []  # (section, name) of the entries being built, innermost last

    def _section(self, section):
        block = self.data.get(section, {})
        if not isinstance(block, dict):
            raise ParseError("section %r must be an object" % section)
        return block

    def _resolve(self, section, name, builder, store):
        if not isinstance(name, str):
            where = _entry(*self._building[-1]) if self._building else "section %r" % section
            raise ParseError("%s: reference %r is not a name" % (where, name))
        if name in store:
            return store[name]
        block = self._section(section)
        if name not in block:
            raise UnresolvedReference(name, section)
        tag = (section, name)
        if tag in self._building:
            raise UnresolvedReference(name, "cyclic " + section)
        spec = _shaped(block[name], dict, _entry(section, name))
        self._building.append(tag)
        try:
            value = builder(name, spec)
        except XmodError as exc:
            if isinstance(exc, (ParseError, UnresolvedReference, ValidationError)):
                raise
            raise ValidationError("%s %r" % (section, name), exc)
        finally:
            self._building.pop()
        store[name] = value
        return value

    # -- resolvers ---------------------------------------------------------

    def algebra(self, name):
        return self._resolve("algebras", name, self._build_algebra, self.doc.algebras)

    def _build_algebra(self, name, spec):
        where = "algebra %r" % name
        kind = spec.get("type")
        if kind == "finite":
            products = where + " products"
            constants = {}
            for k1, row in _shaped(spec.get("products", {}), dict, products).items():
                for k2, elem in _shaped(row, dict, products).items():
                    constants[(k1, k2)] = {
                        k: _parse_scalar(self.doc.ring, c, products)
                        for k, c in _shaped(elem, dict, products).items()
                    }
            basis = _names(_required(spec, "basis", where), where + " basis")
            known = set(basis)
            for pair, row in constants.items():
                for label in (*pair, *row):
                    if label not in known:
                        raise ParseError("%s: unknown basis label %r" % (products, label))
            return make_finite_algebra(basis, constants, self.doc.ring)
        if kind == "free":
            generators = _names(_required(spec, "generators", where), where + " generators")
            return make_free_algebra(generators, self.doc.ring)
        if kind == "semidirect":
            left = self.algebra(_required(spec, "acting", where))
            right = self.algebra(_required(spec, "acted", where))
            action = self.action(_required(spec, "action", where))
            return semidirect(left, right, action, self.policy)
        raise ParseError("algebra %r: unknown type %r" % (name, kind))

    def action(self, name):
        return self._resolve("actions", name, self._build_action, self.doc.actions)

    def _build_action(self, name, spec):
        where = "action %r" % name
        acting = self.algebra(_required(spec, "acting", where))
        acted = self.algebra(_required(spec, "acted", where))
        if _flag(spec, "zero", where):
            return zero_action(acting, acted)
        table = {}
        for actor, row in _shaped(spec.get("table", {}), dict, where + " table").items():
            table[_generator_key(acting, actor, where + " table")] = {
                _parse_key(acted, k, where): _parse_element(acted, elem, where)
                for k, elem in _shaped(row, dict, "%s table row %r" % (where, actor)).items()
            }
        return make_action(acting, acted, table, self.policy)

    def precrossed_module(self, name):
        return self._resolve("precrossed", name, self._build_precrossed, self.doc.precrossed)

    def _build_precrossed(self, name, spec, section="precrossed", make=make_precrossed):
        where = _entry(section, name)
        E = self.algebra(_required(spec, "E", where))
        R = self.algebra(_required(spec, "R", where))
        act = self.action(_required(spec, "action", where))
        d = algebra_morphism(
            E, R, images=_parse_linmap_images(E, R, spec, "map", where), policy=self.policy
        )
        return make(E, R, d, act, self.policy)

    def crossed_module(self, name):
        return self._resolve("crossed", name, self._build_crossed, self.doc.crossed)

    def _build_crossed(self, name, spec):
        if "ideal" not in spec:
            return self._build_precrossed(name, spec, "crossed", make_crossed)
        where = "crossed %r ideal" % name
        ideal = _shaped(spec["ideal"], dict, where)
        R = self.algebra(_required(ideal, "R", where))
        labels = _names(_required(ideal, "labels", where), where + " labels")
        return ideal_inclusion_cm(R, labels, self.policy)

    def two_crossed_module(self, name):
        return self._resolve("two_crossed", name, self._build_two_crossed, self.doc.two_crossed)

    def _build_two_crossed(self, name, spec):
        if "kernel_of" in spec:
            return kernel_two_crossed(self.precrossed_module(spec["kernel_of"]), self.policy)
        entry = "two_crossed %r" % name
        free_basis = spec.get("free_basis")
        if free_basis is not None:
            _shaped(free_basis, list, entry + " free_basis")
        L = self.algebra(_required(spec, "L", entry))
        E = self.algebra(_required(spec, "E", entry))
        R = self.algebra(_required(spec, "R", entry))
        d2 = algebra_morphism(
            L, E, images=_parse_linmap_images(L, E, spec, "d2", entry), policy=self.policy
        )
        d1 = algebra_morphism(
            E, R, images=_parse_linmap_images(E, R, spec, "d1", entry), policy=self.policy
        )
        lifting = entry + " lifting"
        table = {}
        for k1, row in _shaped(spec.get("lifting", {}), dict, lifting).items():
            for k2, elem in _shaped(row, dict, "%s row %r" % (lifting, k1)).items():
                value = _parse_element(L, elem, "lifting of %r" % name)
                table[(_parse_key(E, k1, lifting), _parse_key(E, k2, lifting))] = value
        if free_basis is not None and not (
            isinstance(R, FreeAlgebra) and tuple(free_basis) == R.generators
        ):
            raise BadShape("free basis %r does not present R" % (free_basis,))
        return make_two_crossed(
            L, E, R, d2, d1,
            act_e=self.action(_required(spec, "action_e", entry)),
            act_l=self.action(_required(spec, "action_l", entry)),
            lift=BilinearMap(E, E, L, table),
            policy=self.policy,
        )

    def module_map(self, name):
        return self._resolve("maps", name, self._build_map, self.doc.maps)

    def _build_map(self, name, spec):
        where = "map %r" % name
        kind = spec.get("kind", "two_crossed")
        if kind not in ("crossed", "two_crossed"):
            raise ParseError("%s: unknown kind %r" % (where, kind))
        crossed = kind == "crossed"  # a crossed module map is (f0, f1), without f2
        module = self.crossed_module if crossed else self.two_crossed_module
        src = module(_required(spec, "source", where))
        tgt = module(_required(spec, "target", where))
        if _flag(spec, "identity", where):
            if src is not tgt:
                raise ParseError("%s: identity needs source == target" % where)
            return identity_cm_morphism(src) if crossed else identity_2cm_morphism(src)
        make = make_cm_morphism if crossed else make_2cm_morphism
        maps = []
        for component, level in (("f0", "R"), ("f1", "E"), ("f2", "L"))[:2 if crossed else 3]:
            dom, cod = getattr(src, level), getattr(tgt, level)
            images = _parse_linmap_images(dom, cod, spec, component, where)
            maps.append(algebra_morphism(dom, cod, images=images, policy=self.policy))
        return make(src, tgt, *maps, self.policy)

    def derivation(self, name):
        return self._resolve("derivations", name, self._build_derivation, self.doc.derivations)

    def _build_derivation(self, name, spec):
        where = "derivation %r" % name
        f = self.module_map(_required(spec, "base", where))
        images = _parse_linmap_images(f.src.R, f.tgt.E, spec, "s", where)
        return make_cm_derivation(f, images, self.policy)

    def quadratic_derivation(self, name):
        return self._resolve(
            "quadratic_derivations", name, self._build_quadratic, self.doc.quadratic
        )

    def _build_quadratic(self, name, spec):
        entry = "quadratic_derivation %r" % name
        f = self.module_map(_required(spec, "base", entry))
        s_images = _parse_linmap_images(f.src.R, f.tgt.E, spec, "s", entry)
        t_images = _parse_linmap_images(f.src.E, f.tgt.L, spec, "t", entry)
        return make_quadratic_derivation(f, s_images, t_images, self.policy)

    def load_all(self):
        for section, resolver in (
            ("algebras", self.algebra),
            ("actions", self.action),
            ("precrossed", self.precrossed_module),
            ("crossed", self.crossed_module),
            ("two_crossed", self.two_crossed_module),
            ("maps", self.module_map),
            ("derivations", self.derivation),
            ("quadratic_derivations", self.quadratic_derivation),
        ):
            for name in self._section(section):
                resolver(name)
        return self.doc


def load_spec(path_or_dict, policy=DEFAULT_POLICY):
    """Load and fully validate a structure document.

    Raises ParseError (bytes that are not UTF-8, JSON syntax with line/col,
    JSON that ``json.loads`` cannot read, such as an integer past its digit
    limit or nesting past the recursion limit, or a key or string that
    UTF-8 cannot encode), UnresolvedReference, or
    ValidationError (named structure, law, witness).  On success every named
    structure has been constructed and certified in dependency order.
    """
    if isinstance(path_or_dict, dict):
        data = path_or_dict
        _refuse_surrogates(data, "document")
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("document is not UTF-8: %s" % exc)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno)
        except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep
            raise ParseError("document is not readable JSON: %s" % exc)
        if _SURROGATE_ESCAPE.search(text):
            _refuse_surrogates(data, "document")
    return _Loader(data, policy).load_all()
