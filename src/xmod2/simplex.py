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
A1/A2 are certified for >., >* and >t.  On a basis key of the Lam1 side
of Lam2, >t restricts to >1 (and on R or E keys further to >1r or >1e);
on a key of the E |x L side it restricts to >2 (to >2e or >2l).  Products
of such keys stay on their side, so the basis tuples of >t's exhaustive
check contain every A1/A2 basis tuple of the six components, which then
carry >t's certificate.  Over a free R the components are certified on
their own.  Each semidirect product is certified by the semidirect lemma
(``maps.certify_algebra``).

The faces and degeneracies are written once, as the two tables
``_face_formulas`` and ``_degeneracy_formulas``: (n, i) maps to a formula on
the component tuples of Lam_n, (r,), (r, e), (r, e, e', l) and
(r, e, e', l, e'', l', l''), in that order.  ``build_tower`` wraps every entry
the same way, as a certified algebra morphism between the packed levels.
"""

from .errors import IndexOutOfRange
from .maps import (
    DEFAULT_POLICY,
    FunctionAction,
    algebra_morphism,
    certify_action,
    law_tuples,
    semidirect,
)


def action_bullet(A, lam1, el):
    """(r,e) >. (e',l) = (ee' + r>e', d1(e)>l + r>l - {e' (x) e})."""

    def fn(actor, actee):
        r, e = lam1.split(actor)
        e2, l = el.split(actee)
        first = e * e2 + A.act_e(r, e2)
        second = A.act_l(A.d1(e), l) + A.act_l(r, l) - A.lift(e2, e)
        return el.pair(first, second)

    return FunctionAction(lam1, el, fn, note="bullet", origin=A)


def action_star(A, el):
    """(e,l) >* l' = e >' l' + ll'."""

    def fn(actor, actee):
        e, l = el.split(actor)
        return A.act_prime(e, actee) + l * actee

    return FunctionAction(el, A.L, fn, note="star", origin=A)


def action_one_e(A, el, ell):
    """e >1e (e',l,l') = (ee', d1(e)>l - {e' (x) e}, d1(e)>l')."""

    def fn(e, actee):
        (e2, l), l2 = _split_ell(el, ell, actee)
        de = A.d1(e)
        return ell.pair(el.pair(e * e2, A.act_l(de, l) - A.lift(e2, e)), A.act_l(de, l2))

    return FunctionAction(A.E, ell, fn, note="one_e", origin=A)


def action_one_r(A, el, ell):
    """r >1r (e',l,l') = (r>e', r>l, r>l')."""

    def fn(r, actee):
        (e2, l), l2 = _split_ell(el, ell, actee)
        return ell.pair(el.pair(A.act_e(r, e2), A.act_l(r, l)), A.act_l(r, l2))

    return FunctionAction(A.R, ell, fn, note="one_r", origin=A)


def action_one(A, lam1, one_e, one_r):
    """(r,e) >1 x = r >1r x + e >1e x."""

    def fn(actor, actee):
        r, e = lam1.split(actor)
        return one_r(r, actee) + one_e(e, actee)

    return FunctionAction(lam1, one_e.acted, fn, note="one", origin=A)


def action_two_e(A, el, ell):
    """e >2e (e',l,l') = (ee', e>'l, d1(e)>l' - {d2(l)+e' (x) e})."""

    def fn(e, actee):
        (e2, l), l2 = _split_ell(el, ell, actee)
        third = A.act_l(A.d1(e), l2) - A.lift(A.d2(l) + e2, e)
        return ell.pair(el.pair(e * e2, A.act_prime(e, l)), third)

    return FunctionAction(A.E, ell, fn, note="two_e", origin=A)


def action_two_l(A, el, ell):
    """k >2l (e',l,l') = (0, e'>'k + kl, -{d2(l)+e' (x) d2(k)})."""

    def fn(k, actee):
        (e2, l), _ = _split_ell(el, ell, actee)
        second = A.act_prime(e2, k) + k * l
        third = -A.lift(A.d2(l) + e2, A.d2(k))
        return ell.pair(el.pair(A.E.zero(), second), third)

    return FunctionAction(A.L, ell, fn, note="two_l", origin=A)


def action_two(A, el, two_e, two_l):
    """(e,l'') >2 (e',l,l') =
    (ee', e>'l + e'>'l'' + l''l, d1(e)>l' - {d2(l)+e' (x) d2(l'')+e})."""

    def fn(actor, actee):
        e, l3 = el.split(actor)
        return two_e(e, actee) + two_l(l3, actee)

    return FunctionAction(el, two_e.acted, fn, note="two", origin=A)


def action_dagger(A, lam2, one, two):
    """(r,e,0,0) >t = (r,e) >1 and (0,0,e,l'') >t = (e,l'') >2."""

    def fn(actor, actee):
        a, m = lam2.split(actor)
        return one(a, actee) + two(m, actee)

    return FunctionAction(lam2, one.acted, fn, note="dagger", origin=A)


def _split_ell(el, ell, u):
    pair, l2 = ell.split(u)
    return el.split(pair), l2


class SimplexTower:
    """Levels Lam0..Lam3 with certified faces, degeneracies, and actions.

    faces[(n, i)] : Lam_n -> Lam_{n-1};  degeneracies[(n, i)] : Lam_n -> Lam_{n+1}.
    """

    def __init__(self, base, levels, el, ell, faces, degeneracies, actions):
        self.base = base
        self.levels = levels
        self.el = el
        self.ell = ell
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

    # tuple packing ---------------------------------------------------

    def simplex2(self, r, e, e2, l):
        lam1, lam2 = self.levels[1], self.levels[2]
        return lam2.pair(lam1.pair(r, e), self.el.pair(e2, l))

    def split2(self, u):
        a, m = self.levels[2].split(u)
        r, e = self.levels[1].split(a)
        e2, l = self.el.split(m)
        return r, e, e2, l

    def simplex3(self, r, e, e2, l, e3, l2, l3):
        lam3 = self.levels[3]
        return lam3.pair(self.simplex2(r, e, e2, l), self.ell.pair(self.el.pair(e3, l2), l3))

    def split3(self, u):
        q, m = self.levels[3].split(u)
        (e3, l2), l3 = _split_ell(self.el, self.ell, m)
        return self.split2(q) + (e3, l2, l3)

    def tuple_str(self, u):
        alg = u.algebra
        if alg.compatible(self.levels[2]):
            parts = self.split2(u)
        elif alg.compatible(self.levels[3]):
            parts = self.split3(u)
        elif alg.compatible(self.levels[1]):
            parts = self.levels[1].split(u)
        else:
            return str(u)
        return "(%s)" % ", ".join(str(p) for p in parts)


def _certify_dagger(dagger, components, policy):
    """Certify >t and, through it, its six components.

    An exhaustive certificate of >t is one for every component (see the
    module docstring); otherwise each component is certified on its own.
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


def build_tower(A, policy=DEFAULT_POLICY):
    """Construct Lam0..Lam3 over A with every action, multiplication,
    face and degeneracy certified."""
    R, E, L = A.R, A.E, A.L

    el = semidirect(E, L, A.act_prime, policy)
    lam1 = semidirect(R, E, A.act_e, policy)

    actions = {"prime": A.act_prime}
    bullet = action_bullet(A, lam1, el)
    certify_action(bullet, policy)
    actions["bullet"] = bullet
    lam2 = semidirect(lam1, el, bullet, policy)

    star = action_star(A, el)
    certify_action(star, policy)
    actions["star"] = star
    ell = semidirect(el, L, star, policy)

    one_e = action_one_e(A, el, ell)
    one_r = action_one_r(A, el, ell)
    two_e = action_two_e(A, el, ell)
    two_l = action_two_l(A, el, ell)
    one = action_one(A, lam1, one_e, one_r)
    two = action_two(A, el, two_e, two_l)
    components = {
        "one_e": one_e, "one_r": one_r, "one": one, "two_e": two_e, "two_l": two_l, "two": two,
    }
    dagger = action_dagger(A, lam2, one, two)
    _certify_dagger(dagger, components, policy)
    actions.update(components)
    actions["dagger"] = dagger
    lam3 = semidirect(lam2, ell, dagger, policy)

    levels = (R, lam1, lam2, lam3)
    tower = SimplexTower(A, levels, el, ell, {}, {}, actions)
    codecs = (
        (lambda u: (u,), lambda r: r),
        (lam1.split, lam1.pair),
        (tower.split2, tower.simplex2),
        (tower.split3, tower.simplex3),
    )
    for store, formulas, step, tag in (
        (tower.faces, _face_formulas(A), -1, "d"),
        (tower.degeneracies, _degeneracy_formulas(A), 1, "s"),
    ):
        for (n, i), formula in formulas.items():
            fn = _on_levels(codecs[n][0], formula, codecs[n + step][1])
            store[(n, i)] = algebra_morphism(
                levels[n], levels[n + step], fn=fn, policy=policy, note="%s%d@%d" % (tag, i, n)
            )
    return tower


def _on_levels(split, formula, pack):
    return lambda u: pack(*formula(*split(u)))


def _face_formulas(A):
    """d_i : Lam_n -> Lam_{n-1} on components, keyed by (n, i)."""
    d1, d2 = A.d1, A.d2
    return {
        (1, 0): lambda r, e: (r,),
        (1, 1): lambda r, e: (r + d1(e),),
        (2, 0): lambda r, e, e2, l: (r, e),
        (2, 1): lambda r, e, e2, l: (r, e + e2),
        (2, 2): lambda r, e, e2, l: (r + d1(e), e2 + d2(l)),
        (3, 0): lambda r, e, e2, l, e3, l2, l3: (r, e, e2, l),
        (3, 1): lambda r, e, e2, l, e3, l2, l3: (r, e, e2 + e3, l + l2),
        (3, 2): lambda r, e, e2, l, e3, l2, l3: (r, e + e2, e3, l2 + l3),
        (3, 3): lambda r, e, e2, l, e3, l2, l3: (r + d1(e), e2 + d2(l), e3 + d2(l2), l3),
    }


def _degeneracy_formulas(A):
    """s_i : Lam_n -> Lam_{n+1} on components, keyed by (n, i)."""
    zE, zL = A.E.zero(), A.L.zero()
    return {
        (0, 0): lambda r: (r, zE),
        (1, 0): lambda r, e: (r, e, zE, zL),
        (1, 1): lambda r, e: (r, zE, e, zL),
        (2, 0): lambda r, e, e2, l: (r, e, e2, l, zE, zL, zL),
        (2, 1): lambda r, e, e2, l: (r, e, zE, zL, e2, l, zL),
        (2, 2): lambda r, e, e2, l: (r, zE, e, zL, e2, zL, l),
    }


def get_tower(A, policy=DEFAULT_POLICY):
    """Build (or reuse) the certified tower over A.

    Towers are kept on A, one per policy, so they are released with A."""
    tower = A._towers.get(policy)
    if tower is None:
        tower = A._towers[policy] = build_tower(A, policy)
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


def check_simplicial_identities(T, policy=DEFAULT_POLICY, rng=None):
    """Verify every listed identity pointwise; returns report entries
    (name, ok, witness string or None)."""
    rng = rng or policy.rng()
    entries = []

    def probe(n):
        tuples, _ = law_tuples([T.levels[n]], policy, rng)
        return [u for (u,) in tuples]

    for kind, (i, j), n in simplicial_identity_list():
        if kind == "dd":
            name = "d%d.d%d=d%d.d%d@%d" % (i, j, j - 1, i, n)
            lhs = lambda u: T.face(n - 1, i, T.face(n, j, u))
            rhs = lambda u: T.face(n - 1, j - 1, T.face(n, i, u))
        elif kind == "ss":
            name = "s%d.s%d=s%d.s%d@%d" % (j + 1, i, i, j, n)
            lhs = lambda u: T.degeneracy(n + 1, j + 1, T.degeneracy(n, i, u))
            rhs = lambda u: T.degeneracy(n + 1, i, T.degeneracy(n, j, u))
        else:
            lhs = lambda u: T.face(n + 1, i, T.degeneracy(n, j, u))
            if i == j or i == j + 1:
                name = "d%d.s%d=id@%d" % (i, j, n)
                rhs = lambda u: u
            elif i < j:
                name = "d%d.s%d=s%d.d%d@%d" % (i, j, j - 1, i, n)
                rhs = lambda u: T.degeneracy(n - 1, j - 1, T.face(n, i, u))
            else:
                name = "d%d.s%d=s%d.d%d@%d" % (i, j, j, i - 1, n)
                rhs = lambda u: T.degeneracy(n - 1, j, T.face(n, i - 1, u))
        witness = None
        for u in probe(n):
            a, b = lhs(u), rhs(u)
            if a != b:
                witness = "at %s: %s != %s" % (u, a, b)
                break
        entries.append((name, witness is None, witness))
    return entries


def with_face(T, n, i, linmap):
    """A copy of the tower with one face replaced (mutation testing)."""
    faces = dict(T.faces)
    faces[(n, i)] = linmap
    return SimplexTower(T.base, T.levels, T.el, T.ell, faces, dict(T.degeneracies), T.actions)
