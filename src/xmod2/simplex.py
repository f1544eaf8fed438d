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
components are certified on their own.  Each semidirect product is
certified by the semidirect lemma (``maps.certify_algebra``).  The same
restriction lemma evaluates the sums: a key (side, k) of X |x Y is
(k, 0) or (0, k), so (x, y) > m = x >left m + y >right m reads the image of
a key pair from the component on the key's side (``_SumAction``).  The
actor is never split, and a sum keeps no memo of its own.

Every level is Lam_n = Lam_{n-1} |x X, so its face d0 is the projection
(x, y) -> x onto Lam_{n-1} and the degeneracy s0 : Lam_{n-1} -> Lam_n the
inclusion x -> (x, 0) (Conduche's decomposition of a simplicial algebra,
JPAA 34, 1984).  For any bilinear action (x, y)(x', y') = (xx', ...), so
both are algebra maps by construction: d0@1..3 and s0@0..2 are built as
the projection and the inclusion and stamped EXHAUSTIVE, with no law
check (``_by_construction``).  The simplicial identities still check them
against every other face and degeneracy.

The simplicial identities are checked on the key images of the faces and
degeneracies, and on a generating set of their level when every map in
them is a proved algebra map (``check_simplicial_identities``).

The rest of the tower is transcribed once, as three tables of formulas on
components: ``_face_formulas`` and ``_degeneracy_formulas`` key (n, i),
i >= 1, to a formula on the component tuples of Lam_n, (r,), (r, e),
(r, e, e', l) and (r, e, e', l, e'', l', l''), in that order;
``_action_formulas`` keys each leaf action >., >*, >1e, >1r, >2e, >2l by
its note to a formula from the actor's components followed by the acted
components to the acted components.  Every level, and E |x L and
(E |x L) |x L, has one flat ``Codec`` (element <-> components) built from
the levels alone: it routes each key of its level to (slot, part key) and
tags each part key with its level key, so a basis element splits into its
part's basis element and shared zeros, anything else splits in one pass,
and a pack builds one coefficient dict.  ``build_tower`` wraps every entry
through the codecs of its ends: the faces and degeneracies as certified
algebra morphisms, the leaf actions as certified actions.  The composites
>1 = >1r + >1e, >2 = >2e + >2l and >t = >1 + >2 are sums of the stored
components (``_SumAction``).

A tower is built in two stages.  The lower stage is Lam0, Lam1, E |x L,
>., Lam2 and the faces and degeneracies between them; the upper stage is
>*, (E |x L) |x L, >t with its six components, Lam3, the faces d0..d3 of
Lam3 and the degeneracies s0..s2 of Lam2.  ``build_tower`` (the
``xmod2 simplicial`` command, the selftest) builds both at once;
``get_tower`` keeps one tower per structure and policy and builds what
its caller asks for.  A quadratic derivation's s (through Lam1) and the
triangle map X with its w (into Lam2) ask for the lower stage only;
w-change and the tetrahedron Z ask for the whole tower, which completes a
kept lower stage in place, certifying nothing twice.
"""

from functools import reduce

from .algebra import unit_key
from .errors import IndexOutOfRange, LawViolation
from .maps import (
    DEFAULT_POLICY,
    EXHAUSTIVE,
    FunctionAction,
    LinearMap,
    algebra_morphism,
    certify_action,
    check_law,
    is_proof,
    semidirect,
    _Lazy,
    _extend,
)


class Codec:
    """An element of ``level`` and its components, one per slot:
    ``split(u)`` is the tuple, ``pack(*components)`` the element, ``arity``
    the tuple's length and ``parts`` the algebra of each slot.

    A key of the level nests as (side, subkey) down to a part key, and
    ``paths[slot]`` is the sequence of sides that leads to the slot: the
    e' slot of Lam2 has path (1, 0), so its part key k has the level key
    (1, (0, k)).  ``_route`` maps a level key to (slot, part key) and
    ``_tags[slot]`` a part key to its level key, the path's sides wrapped
    around it innermost first.  Both are filled on first use, so they hold
    at most the keys seen (the level's basis when it is finite), and equal
    keys come back as the same tuple objects."""

    def __init__(self, level, parts, paths):
        self.level, self.parts, self.paths, self.arity = level, parts, paths, len(parts)
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
    return Codec(alg, left.parts + right.parts, paths)


class SimplexTower:
    """Levels Lam0..Lam_top with certified faces, degeneracies, and actions.

    top is 3 for the whole tower and 2 for its lower stage (see
    ``build_tower``).  faces[(n, i)] : Lam_n -> Lam_{n-1};
    degeneracies[(n, i)] : Lam_n -> Lam_{n+1}.  codecs[n] is the Codec of
    Lam_n; split2/simplex2 and, at top 3, split3/simplex3 are the split
    and pack of Lam2 and Lam3.
    """

    def __init__(self, base, codecs, faces, degeneracies, actions):
        self.base = base
        self._set(codecs, faces, degeneracies, actions)

    def _set(self, codecs, faces, degeneracies, actions):
        self.codecs = codecs
        self.top = len(codecs) - 1
        self.levels = tuple(c.level for c in codecs)
        self.el = self.levels[2].right
        self.split2, self.simplex2 = codecs[2].split, codecs[2].pack
        if self.top == 3:
            self.ell = self.levels[3].right
            self.split3, self.simplex3 = codecs[3].split, codecs[3].pack
        self.faces = faces
        self.degeneracies = degeneracies
        self.actions = actions

    def face(self, n, i, u):
        if (n, i) not in self.faces:
            raise IndexOutOfRange("no face d%d at level %d" % (i, n))
        return self.faces[(n, i)](u)

    def degeneracy(self, n, i, u):
        if (n, i) not in self.degeneracies:
            raise IndexOutOfRange("no degeneracy s%d at level %d" % (i, n))
        return self.degeneracies[(n, i)](u)

    def tuple_str(self, u):
        for codec in self.codecs[1:]:
            if u.algebra.compatible(codec.level):
                return "(%s)" % ", ".join(str(p) for p in codec.split(u))
        return str(u)


def _certify_dagger(dagger, components, policy):
    """Certify >t and, through it, its six components.

    An exhaustive certificate of >t is one for every component, each the
    restriction of >t to a subalgebra (see the module docstring); otherwise
    each component is certified on its own.
    When >t fails, the components are certified in the order given, so a
    broken component raises its own error, with its own witness, and >t's
    error is raised only if none of them fails.
    """
    try:
        certify_action(dagger, policy)
    except Exception:  # always re-raised: a component's error, else this one
        for act in components.values():
            certify_action(act, policy)
        raise
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
    ``FunctionAction`` with no ``fn`` for that class's ``same`` (the note
    and the structure) and ``__call__``."""

    def __init__(self, A, acting, parts, note):
        super().__init__(acting, parts[0].acted, None, note=note, origin=A)
        self.parts = parts

    def _image(self, k1, k2):
        side, k = k1
        return self.parts[side]._image(k, k2)


def _by_construction(source, target, step, note):
    """d0 or s0, multiplicative by construction.  Lam_n = Lam_{n-1} |x X,
    and d0 : Lam_n -> Lam_{n-1} is the projection (x, y) -> x, s0 :
    Lam_{n-1} -> Lam_n the inclusion x -> (x, 0).  For any bilinear
    action, (x, y)(x', y') = (xx', ...), so both are algebra maps, and
    their certificate is EXHAUSTIVE, as ``maps.identity_map``'s is."""
    fn = target.embed_left if step > 0 else lambda u: source.split(u)[0]
    f = LinearMap(source, target, "function", fn=fn, note=note)
    f.multiplicative = EXHAUSTIVE
    return f


def build_tower(A, policy=DEFAULT_POLICY, top=3, lower=None):
    """Construct Lam0..Lam_top over A with every action, multiplication,
    face and degeneracy between those levels certified.

    top=3 is the whole tower.  top=2 is its lower stage: Lam0, Lam1,
    E |x L, >., Lam2 and the faces and degeneracies between them, all that
    s, X and w read.  ``lower``, a lower stage over A certified under
    ``policy``, is completed in place: its levels, their product caches
    and the memo of >. are kept, and only the upper stage (>*,
    (E |x L) |x L, >t and its components, Lam3 and the maps to and from
    it) is built and certified.  A failure leaves ``lower`` as it was.
    From scratch, every level and action is certified before the faces and
    degeneracies, which are built in (n, i) order: d0 and s0 by
    construction (``_by_construction``), every other one from its entry
    in the formula tables, certified by ``algebra_morphism``.
    """
    if lower is None:
        actions, faces, degeneracies = {"prime": A.act_prime}, {}, {}
        codecs = _lower_stage(A, actions, policy)
    else:
        codecs, actions = lower.codecs, dict(lower.actions)
        faces, degeneracies = dict(lower.faces), dict(lower.degeneracies)
    if top == 3 and len(codecs) == 3:
        codecs += (_upper_stage(A, codecs, actions, policy),)
    for store, table, step, tag in (
        (faces, _face_formulas(A), -1, "d"),
        (degeneracies, _degeneracy_formulas(A), 1, "s"),
    ):
        for n, i in [(n, i) for n in range(len(codecs)) for i in range(n + 1)]:
            if (n, i) in store or not 0 <= n + step < len(codecs):
                continue
            source, target, note = codecs[n], codecs[n + step], "%s%d@%d" % (tag, i, n)
            store[(n, i)] = _by_construction(source.level, target.level, step, note) if i == 0 else (
                algebra_morphism(source.level, target.level, policy=policy, note=note,
                                 fn=_on_levels(source.split, table[(n, i)], target.pack)))
    if lower is None:
        return SimplexTower(A, codecs, faces, degeneracies, actions)
    lower._set(codecs, faces, degeneracies, actions)
    return lower


def _leaf(A, formulas, note, actor, acted):
    split = lambda x, m: actor.split(x) + acted.split(m)
    fn = _on_levels(split, formulas[note], acted.pack)
    return FunctionAction(actor.level, acted.level, fn, note=note, origin=A)


def _lower_stage(A, actions, policy):
    """The codecs of Lam0, Lam1 and Lam2, certifying E |x L, Lam1, >. and
    Lam2 in that order; >. goes into ``actions``."""
    R, E, L = _atom(A.R), _atom(A.E), _atom(A.L)
    el = _codec(semidirect(A.E, A.L, A.act_prime, policy), E, L)
    lam1 = _codec(semidirect(A.R, A.E, A.act_e, policy), R, E)
    bullet = actions["bullet"] = _leaf(A, _action_formulas(A), "bullet", lam1, el)
    certify_action(bullet, policy)
    return R, lam1, _codec(semidirect(lam1.level, el.level, bullet, policy), lam1, el)


def _upper_stage(A, codecs, actions, policy):
    """The codec of Lam3 over the lower stage's codecs, certifying >*,
    (E |x L) |x L, >t with its components and Lam3 in that order; they go
    into ``actions``."""
    R, lam1, lam2 = codecs
    E, L = _atom(A.E), _atom(A.L)
    el = _codec(lam2.level.right, E, L)
    formulas = _action_formulas(A)

    star = actions["star"] = _leaf(A, formulas, "star", el, L)
    certify_action(star, policy)
    ell = _codec(semidirect(el.level, A.L, star, policy), el, L)

    one_e, one_r = _leaf(A, formulas, "one_e", E, ell), _leaf(A, formulas, "one_r", R, ell)
    two_e, two_l = _leaf(A, formulas, "two_e", E, ell), _leaf(A, formulas, "two_l", L, ell)
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


def _on_levels(split, formula, pack):
    return lambda *u: pack(*formula(*split(*u)))


def _action_formulas(A):
    """The leaf actions on components, keyed by note: the actor's
    components, then the acted components, map to the acted components.
    The actors are Lam1 (r, e), E |x L (e, l''), E (e), R (r) and L (k); the
    acted algebras E |x L (e', l), L (l') and (E |x L) |x L (e', l, l')."""
    d1, d2, lift = A.d1, A.d2, A.lift
    act_e, act_l, act_prime = A.act_e, A.act_l, A.act_prime
    zE = A.E.zero()
    return {
        # (r, e) >. (e', l) = (ee' + r>e', d1(e)>l + r>l - {e' (x) e})
        "bullet": lambda r, e, e2, l: (
            e * e2 + act_e(r, e2), act_l(d1(e), l) + act_l(r, l) - lift(e2, e)),
        # (e, l'') >* l' = e >' l' + l''l'
        "star": lambda e, l3, l2: (act_prime(e, l2) + l3 * l2,),
        # e >1e (e', l, l') = (ee', d1(e)>l - {e' (x) e}, d1(e)>l')
        "one_e": lambda e, e2, l, l2: (
            e * e2, act_l(d1(e), l) - lift(e2, e), act_l(d1(e), l2)),
        # r >1r (e', l, l') = (r>e', r>l, r>l')
        "one_r": lambda r, e2, l, l2: (act_e(r, e2), act_l(r, l), act_l(r, l2)),
        # e >2e (e', l, l') = (ee', e>'l, d1(e)>l' - {d2(l)+e' (x) e})
        "two_e": lambda e, e2, l, l2: (
            e * e2, act_prime(e, l), act_l(d1(e), l2) - lift(d2(l) + e2, e)),
        # k >2l (e', l, l') = (0, e'>'k + kl, -{d2(l)+e' (x) d2(k)})
        "two_l": lambda k, e2, l, l2: (
            zE, act_prime(e2, k) + k * l, -lift(d2(l) + e2, d2(k))),
    }


def _face_formulas(A):
    """d_i : Lam_n -> Lam_{n-1} on components, keyed by (n, i), for i >= 1
    (d0 is the projection, built by construction)."""
    d1, d2 = A.d1, A.d2
    return {
        (1, 1): lambda r, e: (r + d1(e),),
        (2, 1): lambda r, e, e2, l: (r, e + e2),
        (2, 2): lambda r, e, e2, l: (r + d1(e), e2 + d2(l)),
        (3, 1): lambda r, e, e2, l, e3, l2, l3: (r, e, e2 + e3, l + l2),
        (3, 2): lambda r, e, e2, l, e3, l2, l3: (r, e + e2, e3, l2 + l3),
        (3, 3): lambda r, e, e2, l, e3, l2, l3: (r + d1(e), e2 + d2(l), e3 + d2(l2), l3),
    }


def _degeneracy_formulas(A):
    """s_i : Lam_n -> Lam_{n+1} on components, keyed by (n, i), for i >= 1
    (s0 is the inclusion, built by construction)."""
    zE, zL = A.E.zero(), A.L.zero()
    return {
        (1, 1): lambda r, e: (r, zE, e, zL),
        (2, 1): lambda r, e, e2, l: (r, e, zE, zL, e2, l, zL),
        (2, 2): lambda r, e, e2, l: (r, zE, e, zL, e2, zL, l),
    }


def get_tower(A, policy=DEFAULT_POLICY, top=3):
    """Build (or reuse) the certified tower over A, up to at least Lam_top.

    Towers are kept on A, one per policy, so they are released with A.
    top=3, the default, gives the whole tower, completing a kept lower
    stage in place through ``build_tower``.  top=2 gives the kept tower, or
    else builds the lower stage: ``tcm_homotopy._s_map`` (s goes through
    Lam1) and ``tcm_homotopy._triangle_map`` (X and w live in Lam2) ask for
    it, so a quadratic derivation certifies no action of Lam3."""
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


def _key_composite(maps, ring, images):
    """The coefficient dict of the composite's image of one basis key, read
    from images[f], a table of f's key images, for each map f in turn."""

    def apply(key):
        v = {key: ring.one}
        for f in maps:
            v = _extend(ring, v, images[f].__getitem__)
        return v

    return apply


def check_simplicial_identities(T, policy=DEFAULT_POLICY):
    """Check every listed identity with ``check_law`` on its level, on the
    key images of its faces and degeneracies; returns report entries (name,
    ok, witness string or None).

    When every face and degeneracy of an identity carries an exhaustive
    multiplicative certificate, its two sides are algebra maps, and the
    elements where two algebra maps agree form a subalgebra: f(ab) =
    f(a)f(b) = g(a)g(b) = g(ab).  So the identity is checked on a
    generating set of its level (the generator rule).  An identity through
    an uncertified map, such as the one ``with_face`` puts in, is checked
    on the basis.  A failure on a generating set is decided again on the
    basis, so the witness is the one the basis check finds."""
    entries = []
    images = _Lazy(lambda f: _Lazy(f._image))  # f -> key -> f(key)
    for kind, (i, j), n in simplicial_identity_list():
        name, lhs, rhs = _identity(T, kind, i, j, n)
        level = T.levels[n]
        left, right = _key_composite(lhs, level.ring, images), _key_composite(rhs, level.ring, images)

        def on_keys(keys):
            return next(((pos,) for pos, k in enumerate(keys) if left(k) != right(k)), None)

        proved = all(is_proof(f.multiplicative) for f in lhs + rhs)
        try:
            check_law([level], _composite(lhs), _composite(rhs), LawViolation, policy,
                      on_keys=on_keys, generators=(0,) if proved else ())
            entries.append((name, True, None))
        except LawViolation as exc:
            entries.append((name, False, "at %s: %s != %s" % (exc.witness + (exc.lhs, exc.rhs))))
    return entries


def with_face(T, n, i, linmap):
    """A copy of the tower with one face replaced (mutation testing)."""
    faces = dict(T.faces)
    faces[(n, i)] = linmap
    return SimplexTower(T.base, T.codecs, faces, dict(T.degeneracies), T.actions)
