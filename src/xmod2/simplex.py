"""Simplex algebras of a 2-crossed module and their simplicial structure.

Over A = (L -d2-> E -d1-> R) the levels are the iterated semidirect
products

    Lam0 = R
    Lam1 = R |x E
    Lam2 = (R |x E) |x (E |x L)          via the action >.
    Lam3 = Lam2 |x ((E |x L) |x L)       via the action >t

together with the auxiliary actions >*, >1e, >1r, >1, >2e, >2l, >2 that
assemble >t.  Each auxiliary action is materialized as a first-class
Action, so every construction lemma is a unit-testable object, and >1, >2
and >t are built from the very component objects kept in the tower.
A1/A2 are certified for >., >* and >t.  On the Lam1 side of Lam2, >t
restricts to >1 (and on R or E further to >1r or >1e); on the E |x L side
it restricts to >2 (to >2e or >2l).  Each of those sides is a subalgebra,
(x, 0)(x', 0) = (xx', 0), so once A1 and A2 of >t are proved for every
element, on bases or on generating sets, they hold for the six
components, which then carry >t's certificate.  Over a free R the
components are certified on their own.  Conversely a broken component
is a failure of >t on that component's side, so it raises >t's error.
Each semidirect product is certified by the semidirect lemma
(``maps.certify_algebra``).  The same restriction lemma evaluates the
sums: a key (side, k) of X |x Y is (k, 0) or (0, k), so
(x, y) > m = x >left m + y >right m reads the image of a key pair from the
component on the key's side (``_SumAction``).  The actor is never split,
and a sum keeps no memo of its own.

The tower is transcribed once, as three tables of terms on named component
slots.  Lam_n has the slots ``_NAMES[n]``: (r,), (r, e), (r, e, e', l) and
(r, e, e', l, e'', l', l'').  ``_FACES`` and ``_DEGENERACIES`` key (n, i)
to the terms of d_i : Lam_n -> Lam_{n-1} and s_i : Lam_n -> Lam_{n+1}; a
term (sign, out, arg) adds sign * arg to the output slot out, where arg is
an input slot or d1 or d2 of one.  ``_ACTIONS`` keys each leaf action >.,
>*, >1e, >1r, >2e, >2l by its note to the actor's slot names, the acted
slot names and its terms; a term (sign, out, op, x, y) adds sign * op(x, y)
to the acted slot out, op being the product ``mul`` or one of the
structure's ``act_e``, ``act_l``, ``act_prime`` (>') and ``lift`` ({ , }),
and x and y an actor slot and an acted slot, in the order the paper writes
them.  A sum inside an argument, such as {d2(l) + e' (x) e}, is one term per
summand.  Each entry is written as text, "out += arg" or
"out -= op(x, y)" per term, read into those tuples once (``_terms``), and
a comment above it prints the formula as the paper writes it.  An argument
is a slot name or a chain of named maps applied to one, d1(e) or
s(d1(e)), read as the maps' names and the slot's, outermost first; the
t-laws of ``tcm_homotopy._T_LAWS`` are written in this syntax too, on
chains of the maps of a quadratic derivation, and read by the same
``_terms``.

Every level is Lam_n = Lam_{n-1} |x X, so its face d0 is the projection
(x, y) -> x onto Lam_{n-1} and the degeneracy s0 : Lam_{n-1} -> Lam_n the
inclusion x -> (x, 0) (Conduche's decomposition of a simplicial algebra,
JPAA 34, 1984).  They are the entries (n, 0) of the same tables, one
identity term per slot.  For any bilinear action (x, y)(x', y') =
(xx', ...), so both are algebra maps by construction: d0@1..3 and s0@0..2
are stamped EXHAUSTIVE, with no law check (``_by_construction``).  The
simplicial identities still check them against every other face and
degeneracy.

On that left part Lam_{n-1}, every other face and degeneracy is a map
already certified: d1 s0 = id, d_i s0 = s0 d_{i-1} and s_i s0 = s0 s_{i-1}
(May, Simplicial Objects in Algebraic Topology, 1967, section 1).  So
``build_tower`` builds d0 and s0 first and certifies d_i and s_i (i >= 1)
with their left part (``_left_part``): the identity for d1, d_{i-1} then
s0 for d_i, s_{i-1} then s0 for s_i.  ``maps.certify_multiplicative``
compares f(0, k) with that composite on the basis keys k of Lam_{n-1} and,
when they agree, leaves out the block of Lam_{n-1} in its slot triangle
(its left-part lemma).  Each comparison that holds is a simplicial
identity checked on a basis of its level, f o s0 = s0 o g, s0 being the
inclusion; the tower keeps it (``SimplexTower.shown``), and
``check_simplicial_identities`` reports it as passing without evaluating
it again, when its maps are the very objects compared.  Nine listed
identities are of that form: d1.s0=id@0..2, d2.s0=s0.d1@1,
d2.s0=s0.d1@2, d3.s0=s0.d2@2, s1.s0=s0.s0@0, s1.s0=s0.s0@1 and
s2.s0=s0.s1@1.  A face that ``with_face`` puts in was not compared, so
the identities through it are checked as before.

One evaluator reads an entry (``_evaluator``).  Every level, and E |x L and
(E |x L) |x L, has one flat ``Codec``, built from the levels alone: it
routes each key of its level to (slot, part key) and tags each part key
with its level key.  The key image of a level key, or of a key pair for a
leaf action, routes each key through its codec, evaluates only the terms
whose slots hold those keys, on the part keys (so never on a zero
argument), and tags each term's value into its output slot; a lone
identity term gives the target's own basis element.  No element is split
and no tuple is packed.  ``build_tower`` builds every face and degeneracy
as a ``maps.KeyImageMap`` with those key images, certified by
``maps.certify_multiplicative``, and every leaf action as a
``maps.FunctionAction`` with those key images.  The composites
>1 = >1r + >1e, >2 = >2e + >2l and >t = >1 + >2 are sums of the stored
components (``_SumAction``).  The codecs' ``split`` and ``pack`` serve
where whole elements are printed or built: ``tuple_str``, ``split2``/
``simplex2``, ``split3``/``simplex3`` and ``tcm_homotopy``'s maps into the
tower.

A tower is built in two stages.  The lower stage is Lam0, Lam1, E |x L,
>., Lam2 and the faces and degeneracies between them; the upper stage is
>*, (E |x L) |x L, >t with its six components, Lam3, the faces d0..d3 of
Lam3 and the degeneracies s0..s2 of Lam2, over the lower stage's codecs
(its E |x L codec included, so a tower has eight codecs).
``build_tower`` (the ``xmod2 simplicial`` command, the selftest) builds
both at once; ``get_tower`` keeps one tower per structure and policy and
builds what its caller asks for.  A quadratic derivation's s (through
Lam1) and the triangle map X with its w (into Lam2) ask for the lower
stage only; w-change and the tetrahedron Z ask for the whole tower, a new
one built on a kept lower stage: it shares that stage's levels, their
product caches, its maps and the memo of >., so nothing is certified twice,
and the lower stage a caller holds never changes.
"""

from functools import cache, reduce

from .algebra import bilinear, combine, unit_key
from .errors import LawViolation
from .maps import (
    DEFAULT_POLICY,
    EXHAUSTIVE,
    FunctionAction,
    KeyImageMap,
    agree_on_keys,
    certify_action,
    certify_multiplicative,
    check_law,
    is_proof,
    semidirect,
    _Lazy,
    _compose,
)


class Codec:
    """An element of ``level`` and its components, one per slot:
    ``split(u)`` is the tuple, ``pack(*components)`` the element and
    ``parts`` the algebra of each slot.  A codec built from two others
    (``_codec``) keeps them as ``halves``.

    A key of the level nests as (side, subkey) down to a part key, and
    ``paths[slot]`` is the sequence of sides that leads to the slot: the
    e' slot of Lam2 has path (1, 0), so its part key k has the level key
    (1, (0, k)).  ``_route`` maps a level key to (slot, part key) and
    ``_tags[slot]`` a part key to its level key, the path's sides wrapped
    around it innermost first.  Both are filled on first use, so they hold
    at most the keys seen (the level's basis when it is finite), and equal
    keys come back as the same tuple objects."""

    def __init__(self, level, parts, paths, halves=None):
        self.level, self.parts, self.paths = level, parts, paths
        self.halves = halves
        self._zeros = tuple(part.zero() for part in parts)
        slots = {path: slot for slot, path in enumerate(paths)}

        def route(key):
            path = ()
            while path not in slots:
                side, key = key
                path += (side,)
            return slots[path], key

        self._route = _Lazy(route)
        self._tags = [_Lazy(lambda key, path=path[::-1]: reduce(lambda k, side: (side, k), path, key))
                      for path in paths]

    def split(self, u):
        """The components of u: for a basis element, the part's basis
        element at its slot and the parts' shared zeros elsewhere."""
        self.level.owns(u)
        key = unit_key(u)
        if key is not None:
            slot, sub = self._route[key]
            return self._zeros[:slot] + (self.parts[slot].basis_element(sub),) + self._zeros[slot + 1:]
        coeffs = [{} for _ in self.parts]
        for key, c in u.coeffs.items():
            slot, sub = self._route[key]
            coeffs[slot][sub] = c
        return tuple(part.from_coeffs(d) for part, d in zip(self.parts, coeffs))

    def pack(self, *components):
        """The element with the given components, one per slot, each owned
        by its part: one coefficient dict of tagged keys."""
        coeffs = {}
        for part, tags, u in zip(self.parts, self._tags, components, strict=True):
            for key, c in part.owns(u).coeffs.items():
                coeffs[tags[key]] = c
        return self.level.from_coeffs(coeffs)


def _atom(alg):
    return Codec(alg, (alg,), ((),))


def _codec(alg, left, right):
    """The flat codec of alg = X |x Y from the codecs of X and Y: the slots
    of X followed by those of Y, each path led by its side, so an element
    splits into the components of its X part followed by those of its Y part."""
    paths = tuple((0,) + p for p in left.paths) + tuple((1,) + p for p in right.paths)
    return Codec(alg, left.parts + right.parts, paths, (left, right))


class SimplexTower:
    """Levels Lam0..Lam_top with certified faces, degeneracies, and actions.

    top is 3 for the whole tower and 2 for its lower stage (see
    ``build_tower``).  faces[(n, i)] : Lam_n -> Lam_{n-1};
    degeneracies[(n, i)] : Lam_n -> Lam_{n+1}.  codecs[n] is the Codec of
    Lam_n; split2/simplex2 and, at top 3, split3/simplex3 are the split
    and pack of Lam2 and Lam3.  ``shown`` holds the identities the
    left-part lemma showed on a basis while the maps were certified, each
    as (lhs maps, rhs maps), first to last (``build_tower``).  A tower is
    not changed once built: the whole tower over a kept lower stage is a
    new one that shares the lower stage's pieces.
    """

    def __init__(self, base, codecs, faces, degeneracies, actions, shown=frozenset()):
        self.base = base
        self.codecs = codecs
        self.top = len(codecs) - 1
        self.levels = tuple(c.level for c in codecs)
        self.split2, self.simplex2 = codecs[2].split, codecs[2].pack
        if self.top == 3:
            self.split3, self.simplex3 = codecs[3].split, codecs[3].pack
        self.faces = faces
        self.degeneracies = degeneracies
        self.actions = actions
        self.shown = shown

    def tuple_str(self, u):
        for codec in self.codecs[1:]:
            if u.algebra.compatible(codec.level):
                return "(%s)" % ", ".join(str(p) for p in codec.split(u))
        return str(u)


def _certify_dagger(dagger, components, policy):
    """Certify >t and, through it, its six components.

    An exhaustive certificate of >t is one for every component, each the
    restriction of >t to a subalgebra (see the module docstring); otherwise
    each component is certified on its own.  A broken component breaks >t,
    on that component's subalgebra, so >t's own error is raised.
    """
    certify_action(dagger, policy)
    for act in components.values():
        if dagger.certificate.exhaustive:
            act.certificate = dagger.certificate
        else:
            certify_action(act, policy)


class _SumAction(FunctionAction):
    """(x, y) > m = x >left m + y >right m, for acting = X |x Y and two
    stored actions ``parts`` of X and Y on the same algebra.  A key
    (side, k) of acting is (k, 0) or (0, k), so its image is the image of
    k under parts[side]: the actor is never split, and the sum keeps no
    memo of its own (the ``_memo`` it inherits stays empty).  It is a
    ``FunctionAction`` with no key image function, for that class's
    ``same`` (the note and the structure) and ``__call__``."""

    def __init__(self, A, acting, parts, note):
        super().__init__(acting, parts[0].acted, None, note=note, origin=A)
        self.parts = parts

    def _image(self, k1, k2):
        side, k = k1
        return self.parts[side]._image(k, k2)


def _by_construction(f):
    """d0 or s0, multiplicative by construction.  Lam_n = Lam_{n-1} |x X,
    and d0 : Lam_n -> Lam_{n-1} is the projection (x, y) -> x, s0 :
    Lam_{n-1} -> Lam_n the inclusion x -> (x, 0).  For any bilinear
    action, (x, y)(x', y') = (xx', ...), so both are algebra maps, and
    their certificate is EXHAUSTIVE, as ``maps.identity_map``'s is."""
    # The stamp reads neither table, so d0.s0=id@0..2 stay evaluated in
    # check_simplicial_identities: they are the only checks that reject a
    # wrong d0 or s0 entry, such as s0 at Lam2 without its l term or with
    # that term negated.
    f.multiplicative = EXHAUSTIVE


def build_tower(A, policy=DEFAULT_POLICY, top=3, lower=None):
    """Construct Lam0..Lam_top over A with every action, multiplication,
    face and degeneracy between those levels certified.

    top=3 is the whole tower.  top=2 is its lower stage: Lam0, Lam1,
    E |x L, >., Lam2 and the faces and degeneracies between them, all that
    s, X and w read.  Given ``lower``, a lower stage over A certified
    under ``policy``, a new tower is built that shares its levels, their
    product caches, its maps and the memo of >., and only the upper stage
    (>*, (E |x L) |x L, >t and its components, Lam3 and the maps to and
    from it) is built and certified; ``lower`` itself is not changed.
    From scratch, every level and action is certified before the faces and
    degeneracies, which are built from their table entries: d0 and s0
    first, by construction (``_by_construction``), then the others in
    (n, i) order, faces first, each certified by
    ``maps.certify_multiplicative`` with its left part (``_left_part``).
    """
    if lower is None:
        actions, faces, degeneracies, shown = {"prime": A.act_prime}, {}, {}, set()
        codecs = _lower_stage(A, actions, policy)
    else:
        codecs, actions = lower.codecs, dict(lower.actions)
        faces, degeneracies, shown = dict(lower.faces), dict(lower.degeneracies), set(lower.shown)
    if top == 3 and len(codecs) == 3:
        codecs += (_upper_stage(A, codecs, actions, policy),)
    for first in (True, False):
        for store, table, step, tag in ((faces, _FACES, -1, "d"), (degeneracies, _DEGENERACIES, 1, "s")):
            for n, i in [(n, i) for n in range(len(codecs)) for i in range(n + 1) if (i == 0) is first]:
                m = n + step
                if (n, i) in store or not 0 <= m < len(codecs):
                    continue
                image = _evaluator(A, table[(n, i)], (codecs[n],), (_NAMES[n],), codecs[m], _NAMES[m])
                f = KeyImageMap(codecs[n].level, codecs[m].level, image, "%s%d@%d" % (tag, i, n))
                if first:
                    _by_construction(f)
                else:
                    certify_multiplicative(f, policy, _left_part(faces, degeneracies, tag, n, i))
                    if f.left is not None:  # f o s0 = the composite, shown on a basis
                        shown.add(((degeneracies[(n - 1, 0)], f), f.left))
                store[(n, i)] = f
    faces, degeneracies = dict(sorted(faces.items())), dict(sorted(degeneracies.items()))  # (n, i) order
    return SimplexTower(A, codecs, faces, degeneracies, actions, shown)


def _left_part(faces, degeneracies, tag, n, i):
    """The maps whose composite d_i or s_i at level n (i >= 1) is on the
    left part Lam_{n-1} of Lam_n = Lam_{n-1} |x X, by d1 s0 = id,
    d_i s0 = s0 d_{i-1} and s_i s0 = s0 s_{i-1}: none, the identity, for d1;
    d_{i-1} at n - 1, then s0, for d_i; s_{i-1} at n - 1, then s0, for
    s_i.  Each was built before it, the s0 maps first."""
    if tag == "s":
        return degeneracies[(n - 1, i - 1)], degeneracies[(n, 0)]
    return () if i == 1 else (faces[(n - 1, i - 1)], degeneracies[(n - 2, 0)])


def _leaf(A, note, actor, acted):
    actor_names, acted_names, terms = _ACTIONS[note]
    image = _evaluator(A, terms, (actor, acted), (actor_names, acted_names), acted, acted_names)
    return FunctionAction(actor.level, acted.level, image, note=note, origin=A)


def _lower_stage(A, actions, policy):
    """The codecs of Lam0, Lam1 and Lam2, certifying E |x L, Lam1, >. and
    Lam2 in that order; >. goes into ``actions``."""
    R, E, L = _atom(A.R), _atom(A.E), _atom(A.L)
    el = _codec(semidirect(A.E, A.L, A.act_prime, policy), E, L)
    lam1 = _codec(semidirect(A.R, A.E, A.act_e, policy), R, E)
    bullet = actions["bullet"] = _leaf(A, "bullet", lam1, el)
    certify_action(bullet, policy)
    return R, lam1, _codec(semidirect(lam1.level, el.level, bullet, policy), lam1, el)


def _upper_stage(A, codecs, actions, policy):
    """The codec of Lam3 over the lower stage's codecs (its E |x L codec
    and atoms included), certifying >*, (E |x L) |x L, >t with its
    components and Lam3 in that order; they go into ``actions``."""
    R, lam1, lam2 = codecs
    el = lam2.halves[1]
    E, L = el.halves

    star = actions["star"] = _leaf(A, "star", el, L)
    certify_action(star, policy)
    ell = _codec(semidirect(el.level, A.L, star, policy), el, L)

    one_e, one_r = _leaf(A, "one_e", E, ell), _leaf(A, "one_r", R, ell)
    two_e, two_l = _leaf(A, "two_e", E, ell), _leaf(A, "two_l", L, ell)
    components = {
        "one_e": one_e,
        "one_r": one_r,
        "one": _SumAction(A, lam1.level, (one_r, one_e), "one"),
        "two_e": two_e,
        "two_l": two_l,
        "two": _SumAction(A, el.level, (two_e, two_l), "two"),
    }
    dagger = _SumAction(A, lam2.level, (components["one"], components["two"]), "dagger")
    _certify_dagger(dagger, components, policy)
    actions.update(components)
    actions["dagger"] = dagger
    return _codec(semidirect(lam2.level, ell.level, dagger, policy), lam2, ell)


def _evaluator(A, terms, inputs, names, target, outputs):
    """The key image function of a table entry: given one key of each
    input codec's level (a level key for a face or degeneracy, an actor
    key and an acted key for a leaf action), an element of target's level.

    ``names`` holds each input's slot names and ``outputs`` the target's.
    Each key is routed through its codec's ``_route`` to (slot, part key),
    and only the terms that read those slots are evaluated, on the part
    keys: an argument is the part key itself or its image under d1 or d2,
    and a binary term is the bilinear extension of its operation's key
    image.  Each value is tagged through target's ``_tags`` of its output
    slot, and the image is the sum (``combine``).  A lone identity term
    gives the target level's own basis element of the tagged key."""
    ring, level, tags = A.R.ring, target.level, target._tags
    one, sign = ring.one, {1: ring.one, -1: ring.neg(ring.one)}
    index, identities = _index(terms, names, outputs)
    routes = [codec._route for codec in inputs]

    def image(*keys):
        routed = [route[key] for route, key in zip(routes, keys)]
        slots = tuple(slot for slot, _ in routed)
        parts = [key for _, key in routed]
        out = identities.get(slots)
        if out is not None:
            return level.basis_element(tags[out][parts[0]])
        values = []
        for s, out, op, reads in index.get(slots, ()):
            args = [{parts[i]: one} if pre is None else getattr(A, pre)._image(parts[i]).coeffs
                    for i, pre in reads]
            if op is not None:
                op = target.parts[out].key_mul if op == "mul" else getattr(A, op)._image
                args = [bilinear(ring, args[0], args[1], op)]
            values.append((sign[s], {tags[out][k]: v for k, v in args[0].items()}))
        return level.from_coeffs(combine(ring, values))

    return image


@cache
def _index(terms, names, outputs):
    """The terms of an entry by the input slots they read, and the slots
    whose one term is an identity, found once per entry from the table
    alone.  The index takes each tuple of slots (one per input) to its
    terms (sign, output slot, op, reads), in output slot order, where reads
    gives each argument, in the op's order, as (input, d1 or d2 or None);
    the identities take such a tuple to its term's output slot."""
    index = {}
    for s, out, *rest in sorted(terms, key=lambda t: outputs.index(t[1])):
        op, args = (None, rest) if len(rest) == 1 else (rest[0], rest[1:])
        reads = []
        for arg in args:
            pre, name = (None, arg) if isinstance(arg, str) else arg
            i = next(i for i, ns in enumerate(names) if name in ns)
            reads.append((i, names[i].index(name), pre))
        slots = tuple(slot for _, slot, _ in sorted(reads))
        index.setdefault(slots, []).append((s, outputs.index(out), op, tuple((i, pre) for i, _, pre in reads)))
    identities = {slots: found[0][1] for slots, found in index.items()
                  if len(found) == 1 and found[0][0] == 1 and found[0][2] is None and found[0][3][0][1] is None}
    return index, identities


# The component slots of Lam0..Lam3.
_NAMES = (("r",), ("r", "e"), ("r", "e", "e'", "l"), ("r", "e", "e'", "l", "e''", "l'", "l''"))


def _terms(text):
    """The terms of a table entry from its text, terms separated by "; ":
    "out += arg" or "out -= arg" is (sign, out, arg), for a face or
    degeneracy, and "out += op(x, y)" is (sign, out, op, x, y), for a leaf
    action or a t-law; an argument is a slot name, or a chain of named maps
    applied to one, which is the tuple of their names and the slot's,
    outermost first: d1(e) is ("d1", "e") and s(d1(e)) ("s", "d1", "e")."""
    def argument(a):
        return tuple(a.rstrip(")").split("(")) if a.endswith(")") else a

    terms = []
    for term in text.split("; "):
        out, sign, expr = term.split(" ", 2)
        sign = 1 if sign == "+=" else -1
        if ", " not in expr:
            terms.append((sign, out, argument(expr)))
        else:
            op, args = expr[:-1].split("(", 1)
            terms.append((sign, out, op) + tuple(argument(a) for a in args.split(", ")))
    return tuple(terms)


# d_i : Lam_n -> Lam_{n-1}, keyed by (n, i): output slots of Lam_{n-1} from
# input slots of Lam_n.
_FACES = {key: _terms(text) for key, text in {
    # d0(r, e) = r
    (1, 0): "r += r",
    # d1(r, e) = r + d1(e)
    (1, 1): "r += r; r += d1(e)",
    # d0(r, e, e', l) = (r, e)
    (2, 0): "r += r; e += e",
    # d1(r, e, e', l) = (r, e + e')
    (2, 1): "r += r; e += e; e += e'",
    # d2(r, e, e', l) = (r + d1(e), e' + d2(l))
    (2, 2): "r += r; r += d1(e); e += e'; e += d2(l)",
    # d0(r, e, e', l, e'', l', l'') = (r, e, e', l)
    (3, 0): "r += r; e += e; e' += e'; l += l",
    # d1(r, e, e', l, e'', l', l'') = (r, e, e' + e'', l + l')
    (3, 1): "r += r; e += e; e' += e'; e' += e''; l += l; l += l'",
    # d2(r, e, e', l, e'', l', l'') = (r, e + e', e'', l' + l'')
    (3, 2): "r += r; e += e; e += e'; e' += e''; l += l'; l += l''",
    # d3(r, e, e', l, e'', l', l'') = (r + d1(e), e' + d2(l), e'' + d2(l'), l'')
    (3, 3): "r += r; r += d1(e); e += e'; e += d2(l); e' += e''; e' += d2(l'); l += l''",
}.items()}

# s_i : Lam_n -> Lam_{n+1}, keyed by (n, i): output slots of Lam_{n+1} from
# input slots of Lam_n.
_DEGENERACIES = {key: _terms(text) for key, text in {
    # s0(r) = (r, 0)
    (0, 0): "r += r",
    # s0(r, e) = (r, e, 0, 0)
    (1, 0): "r += r; e += e",
    # s1(r, e) = (r, 0, e, 0)
    (1, 1): "r += r; e' += e",
    # s0(r, e, e', l) = (r, e, e', l, 0, 0, 0)
    (2, 0): "r += r; e += e; e' += e'; l += l",
    # s1(r, e, e', l) = (r, e, 0, 0, e', l, 0)
    (2, 1): "r += r; e += e; e'' += e'; l' += l",
    # s2(r, e, e', l) = (r, 0, e, 0, e', 0, l)
    (2, 2): "r += r; e' += e; e'' += e'; l'' += l",
}.items()}

# The leaf actions, keyed by note: (actor slots, acted slots, terms), each
# term adding an operation of an actor slot and an acted slot, in the
# paper's order, to an acted slot.  The actors are Lam1, E |x L, E, R and
# L; the acted algebras E |x L, L and (E |x L) |x L.
_ACTIONS = {note: (tuple(actor.split()), tuple(acted.split()), _terms(text))
            for note, (actor, acted, text) in {
    # (r, e) >. (e', l) = (ee' + r>e', d1(e)>l + r>l - {e' (x) e})
    "bullet": ("r e", "e' l", "e' += mul(e, e'); e' += act_e(r, e'); "
                              "l += act_l(d1(e), l); l += act_l(r, l); l -= lift(e', e)"),
    # (e, l'') >* l' = e >' l' + l''l'
    "star": ("e l''", "l'", "l' += act_prime(e, l'); l' += mul(l'', l')"),
    # e >1e (e', l, l') = (ee', d1(e)>l - {e' (x) e}, d1(e)>l')
    "one_e": ("e", "e' l l'", "e' += mul(e, e'); l += act_l(d1(e), l); l -= lift(e', e); "
                              "l' += act_l(d1(e), l')"),
    # r >1r (e', l, l') = (r>e', r>l, r>l')
    "one_r": ("r", "e' l l'", "e' += act_e(r, e'); l += act_l(r, l); l' += act_l(r, l')"),
    # e >2e (e', l, l') = (ee', e>'l, d1(e)>l' - {d2(l)+e' (x) e})
    "two_e": ("e", "e' l l'", "e' += mul(e, e'); l += act_prime(e, l); l' += act_l(d1(e), l'); "
                              "l' -= lift(d2(l), e); l' -= lift(e', e)"),
    # k >2l (e', l, l') = (0, e'>'k + kl, -{d2(l)+e' (x) d2(k)})
    "two_l": ("k", "e' l l'", "l += act_prime(e', k); l += mul(k, l); "
                              "l' -= lift(d2(l), d2(k)); l' -= lift(e', d2(k))"),
}.items()}


def get_tower(A, policy=DEFAULT_POLICY, top=3):
    """Build (or reuse) the certified tower over A, up to at least Lam_top.

    Towers are kept on A, one per policy, so they are released with A.
    top=3, the default, gives the whole tower, which ``build_tower`` builds
    on a kept lower stage, sharing its pieces, and which then takes its
    place; a caller holding the lower stage keeps it unchanged.  top=2
    gives the kept tower, or else builds the lower stage:
    ``tcm_homotopy._s_map`` (s goes through Lam1) and
    ``tcm_homotopy._triangle_map`` (X and w live in Lam2) ask for it, so a
    quadratic derivation certifies no action of Lam3."""
    tower = A._towers.get(policy)
    if tower is None or tower.top < top:
        tower = A._towers[policy] = build_tower(A, policy, top, tower)
    return tower


def simplicial_identity_list():
    """The complete standard list at the constructed levels.

    Entries (kind, data, level) with kind in {"dd", "ds", "ss"}:
      dd: d_i d_j = d_{j-1} d_i  (i < j), applied to level `n`;
      ss: s_i s_j = s_{j+1} s_i  (i <= j), from level `n`;
      ds: d_i s_j with the usual three cases, from level `n`.
    """
    out = []
    for n, top in ((2, 2), (3, 3)):
        for j in range(top + 1):
            for i in range(j):
                out.append(("dd", (i, j), n))
    for n, top in ((0, 0), (1, 1)):
        for j in range(top + 1):
            for i in range(j + 1):
                out.append(("ss", (i, j), n))
    for n, sc, fc in ((0, 1, 2), (1, 2, 3), (2, 3, 4)):
        for j in range(sc):
            for i in range(fc):
                out.append(("ds", (i, j), n))
    return out


def _identity(T, kind, i, j, n):
    """The name of a listed identity and its two sides, each the list of
    the faces and degeneracies it applies, first to last."""
    d, s = T.faces, T.degeneracies
    if kind == "dd":
        return ("d%d.d%d=d%d.d%d@%d" % (i, j, j - 1, i, n),
                [d[(n, j)], d[(n - 1, i)]], [d[(n, i)], d[(n - 1, j - 1)]])
    if kind == "ss":
        return ("s%d.s%d=s%d.s%d@%d" % (j + 1, i, i, j, n),
                [s[(n, i)], s[(n + 1, j + 1)]], [s[(n, j)], s[(n + 1, i)]])
    lhs = [s[(n, j)], d[(n + 1, i)]]
    if i == j or i == j + 1:
        return "d%d.s%d=id@%d" % (i, j, n), lhs, []
    if i < j:
        return "d%d.s%d=s%d.d%d@%d" % (i, j, j - 1, i, n), lhs, [d[(n, i)], s[(n - 1, j - 1)]]
    return "d%d.s%d=s%d.d%d@%d" % (i, j, j, i - 1, n), lhs, [d[(n, i - 1)], s[(n - 1, j)]]


def _composite(maps):
    def apply(u):
        for f in maps:
            u = f(u)
        return u

    return apply


def check_simplicial_identities(T, policy=DEFAULT_POLICY):
    """Check every listed identity with ``check_law`` on its level, on the
    key images of its faces and degeneracies (``maps.agree_on_keys``, on a
    level with a free part too, whose sampled law is decided on the keys its
    tuples span); returns report entries (name, ok, witness string or
    None).

    When every face and degeneracy of an identity carries an exhaustive
    multiplicative certificate, its two sides are algebra maps, and the
    elements where two algebra maps agree form a subalgebra: f(ab) =
    f(a)f(b) = g(a)g(b) = g(ab).  So the identity is checked on a
    generating set of its level (the generator rule).  An identity through
    an uncertified map, such as the one ``with_face`` puts in, is checked
    on the basis.  A failure on a generating set is one on the basis, and
    its witness is that generating-set element.

    An identity in ``T.shown`` passes with nothing evaluated: the left-part
    lemma compared its two sides on a basis of its level while certifying
    its face or degeneracy, and its maps are the very objects compared."""
    entries = []
    images = _Lazy(lambda f: _Lazy(f._image))  # f -> key -> f(key)
    for kind, (i, j), n in simplicial_identity_list():
        name, lhs, rhs = _identity(T, kind, i, j, n)
        if (tuple(lhs), tuple(rhs)) in T.shown:
            entries.append((name, True, None))
            continue
        level = T.levels[n]
        left, right = (_compose(level.ring, [images[f].__getitem__ for f in side]) for side in (lhs, rhs))
        proved = all(is_proof(f.multiplicative) for f in lhs + rhs)
        try:
            check_law([level], _composite(lhs), _composite(rhs), LawViolation, policy,
                      on_keys=agree_on_keys(left, right), generators=(0,) if proved else ())
            entries.append((name, True, None))
        except LawViolation as exc:
            entries.append((name, False, "at %s: %s != %s" % (exc.witness + (exc.lhs, exc.rhs))))
    return entries


def with_face(T, n, i, linmap):
    """A copy of the tower with one face replaced (mutation testing)."""
    faces = dict(T.faces)
    faces[(n, i)] = linmap
    return SimplexTower(T.base, T.codecs, faces, dict(T.degeneracies), T.actions, T.shown)
