"""Independent checkers for the benchmark's outputs.

Nothing here imports ``onerelator``.  Words are plain tuples of
``(symbol, sign)`` letters, permutations are tuples, and program results are
read only through the fields of its public data types.  Each checker returns a
list of problems; an empty list means the output passed.
"""
from __future__ import annotations

from fractions import Fraction

STABLE = "t"
AUX = "s"
RELABELLINGS = tuple((sw, ia, ib) for sw in (0, 1) for ia in (1, -1) for ib in (1, -1))


# -- free-group arithmetic ---------------------------------------------------


def reduce(letters) -> tuple:
    """Cancel adjacent inverse pairs until none is left."""
    out: list = []
    for sym, sign in letters:
        if out and out[-1] == (sym, -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def inverse(letters) -> tuple:
    return tuple((sym, -sign) for sym, sign in reversed(letters))


def mul(*words) -> tuple:
    return reduce(letter for w in words for letter in w)


def parse(text: str) -> tuple:
    """Surface syntax without exponents: lowercase letters, uppercase inverses."""
    return tuple((ch.lower(), 1 if ch.islower() else -1) for ch in text if ch.isalpha())


def fmt(letters) -> str:
    return "".join(sym if sign > 0 else sym.upper() for sym, sign in letters)


def t_count(letters) -> int:
    return sum(1 for sym, _ in letters if sym == STABLE)


def exponent_sum(letters) -> int:
    return sum(sign for sym, sign in letters if sym == STABLE)


def t_shape(letters) -> tuple:
    """Exponents of the maximal same-sign runs of t-letters, base letters apart."""
    shape: list = []
    run_open = False
    for sym, sign in letters:
        if sym != STABLE:
            run_open = False
        elif run_open and (shape[-1] > 0) == (sign > 0):
            shape[-1] += sign
        else:
            shape.append(sign)
            run_open = True
    return tuple(shape)


def _letter_key(letter):
    sym, sign = letter
    return (sym == STABLE, sym, sign < 0)


def order_key(letters):
    """Sort key of a word in the documented letter order."""
    return [_letter_key(l) for l in letters]


def cyclic_core(letters) -> tuple:
    """Shortest cyclic form, found by rotating and cancelling to a fixpoint."""
    cur = reduce(letters)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(1, len(cur)):
            rot = reduce(cur[i:] + cur[:i])
            if len(rot) < len(cur):
                cur, shrunk = rot, True
                break
    return cur


def canonical(letters) -> tuple:
    """Least rotation of the cyclic core in the documented letter order."""
    core = cyclic_core(letters)
    if not core:
        return core
    return min((core[i:] + core[:i] for i in range(len(core))), key=order_key)


def relabel(letters, relabelling) -> tuple:
    sw, ia, ib = relabelling
    out = []
    for sym, sign in letters:
        if sym == "a":
            out.append(("b" if sw else "a", sign * ia))
        elif sym == "b":
            out.append(("a" if sw else "b", sign * ib))
        else:
            out.append((sym, sign))
    return tuple(out)


def orbit_key(letters) -> tuple:
    """Least canonical form over the eight relabellings a<->b, a->A, b->B."""
    return min((canonical(relabel(letters, m)) for m in RELABELLINGS), key=order_key)


def substitute(letters, sym: str, replacement) -> tuple:
    out: list = []
    for s, sign in letters:
        if s == sym:
            out.extend(replacement if sign > 0 else inverse(replacement))
        else:
            out.append((s, sign))
    return reduce(out)


# -- census ------------------------------------------------------------------


class CensusOracle:
    """Brute-force canonical forms of the census words, computed once each.

    Forms are kept as strings, which the garbage collector does not track, so
    the memo adds nothing to the collections that run inside timed calls."""

    def __init__(self) -> None:
        self._canon: dict = {}

    def canon(self, letters) -> tuple:
        text = fmt(letters)
        got = self._canon.get(text)
        if got is None:
            got = self._canon[text] = fmt(canonical(letters))
        return parse(got)

    def classes(self, words) -> set:
        """Orbit keys of the cyclically reduced, exponent-sum-one words that
        are not conjugate to g t^(+-1)."""
        out = set()
        for letters in words:
            if exponent_sum(letters) != 1 or cyclic_core(letters) != letters:
                continue
            canon = self.canon(letters)
            if t_count(canon) == 1:
                continue
            out.add(orbit_key(canon))
        return out


def check_census(oracle: CensusOracle, words, results, classes) -> list:
    """``results[i]`` is (exponent sum, reduced, conjugator, gt, canonical)
    for ``words[i]``, each word as letters; ``classes`` maps orbit keys to
    representatives."""
    problems: list = []
    if len(results) != len(words):
        return [f"census covered {len(results)} of {len(words)} words"]
    for letters, (ex, reduced, conj, gt, canon) in zip(words, results):
        name = fmt(letters) or "1"
        expect = oracle.canon(letters)
        if ex != exponent_sum(letters):
            problems.append(f"{name}: exponent sum {ex}")
        if canon != expect:
            problems.append(f"{name}: canonical {fmt(canon)}, oracle {fmt(expect)}")
        if mul(inverse(conj), reduced, conj) != letters:
            problems.append(f"{name}: cyclic_reduce conjugator does not recover the word")
        if not any(reduced[i:] + reduced[:i] == expect for i in range(len(expect) or 1)):
            problems.append(f"{name}: cyclic_reduce gave {fmt(reduced)}")
        mixed = 0 < t_count(reduced) < len(reduced)
        if mixed and reduced[-1][0] != STABLE:
            problems.append(f"{name}: mixed cyclic reduction does not end in t")
        if (gt is None) != (t_count(expect) != 1):
            problems.append(f"{name}: gt verdict {gt}")
        elif gt is not None:
            g, eps = gt
            if eps not in (1, -1) or t_count(g) or canonical(g + ((STABLE, eps),)) != expect:
                problems.append(f"{name}: gt witness {fmt(g)} t^{eps} is not a conjugate")
    expect_classes = oracle.classes(words)
    if set(classes) != expect_classes:
        problems.append(
            f"census found {len(classes)} classes, oracle {len(expect_classes)}"
        )
    for key, rep in classes.items():
        if orbit_key(canonical(rep)) != key:
            problems.append(f"class representative {fmt(rep)} is not in its orbit")
    return problems


# -- permutation quotients and kernel hits -----------------------------------


def _perm_inverse(p) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def word_image(letters, images: dict, degree: int) -> tuple:
    """Image of a word, acting on the right: the first letter acts first."""
    cur = list(range(degree))
    for sym, sign in letters:
        p = images[sym] if sign > 0 else _perm_inverse(images[sym])
        cur = [p[x] for x in cur]
    return tuple(cur)


def generated(perms, degree: int) -> set:
    identity = tuple(range(degree))
    seen = {identity}
    todo = [identity]
    while todo:
        cur = todo.pop()
        for p in perms:
            nxt = tuple(p[x] for x in cur)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def check_certificate(relator, generators, degree: int, images: dict) -> list:
    """A certificate maps every generator and t to a permutation of
    ``range(degree)``, kills the relator and puts t outside the base image."""
    if set(images) != set(generators) | {STABLE}:
        return [f"certificate maps {sorted(images)}"]
    for sym, p in images.items():
        if sorted(p) != list(range(degree)):
            return [f"image of {sym} is not a permutation of degree {degree}"]
    if word_image(relator, images, degree) != tuple(range(degree)):
        return [f"relator {fmt(relator)} is not killed"]
    if images[STABLE] in generated([images[g] for g in generators], degree):
        return ["image of t lies in the base image"]
    return []


def check_kernel_hit(relator, element, factors, shape) -> list:
    """``factors`` are (conjugator, sign) pairs whose product of conjugates
    u w^sign u^-1 must equal ``element``, which must have t-shape ``shape``."""
    product: tuple = ()
    for u, sign in factors:
        w = relator if sign > 0 else inverse(relator)
        product = mul(product, u, w, inverse(u))
    problems = []
    if product != element:
        problems.append(f"factors multiply to {fmt(product)}, not {fmt(element)}")
    if t_shape(element) != tuple(shape):
        problems.append(f"hit {fmt(element)} has t-shape {t_shape(element)}")
    return problems


# -- stratum decompositions --------------------------------------------------


def expand(factors) -> tuple:
    """Multiply out g^(t^level) = t^-level g t^level over (letters, level) factors."""
    out: list = []
    for g, level in factors:
        t_in = [(STABLE, -1 if level > 0 else 1)] * abs(level)
        out.extend(t_in + list(g) + list(inverse(t_in)))
    return reduce(out)


def _levels(factors):
    return [level for _, level in factors]


def check_decomposition(word, m: int, pairs, c, conjugator, two_var, substituted) -> list:
    """``pairs`` holds (b, a) and ``c`` is a factor list, each factor being
    (letters, level); ``two_var`` is the word in s and t and ``substituted``
    the program's result of putting t for s in it."""
    problems: list = []
    t_up, t_down = ((STABLE, 1),), ((STABLE, -1),)
    reassembled: tuple = ()
    for b, a in pairs:
        reassembled = mul(reassembled, expand(b), t_down, expand(a), t_up)
    reassembled = mul(reassembled, expand(c), t_up)
    if mul(inverse(conjugator), reassembled, conjugator) != word:
        problems.append("conjugated reassembly differs from the word")
    for i, (b, a) in enumerate(pairs):
        lb, la = _levels(b), [level + 1 for level in _levels(a)]
        if not lb or min(lb) != 0 or max(lb) > m - 1:
            problems.append(f"b_{i} levels {lb} are not in X for m={m}")
        if not la or min(la) < 1 or max(la) != m:
            problems.append(f"shifted a_{i} levels {la} are not in Z for m={m}")
    lc = _levels(c)
    if lc and (min(lc) < 0 or max(lc) > m - 1):
        problems.append(f"c levels {lc} are not in J for m={m}")
    if (not pairs) != (t_count(canonical(word)) == 1):
        problems.append(f"{len(pairs)} pairs, but gt-conjugacy says otherwise")
    if substitute(two_var, AUX, ((STABLE, 1),)) != reassembled:
        problems.append("putting t for s does not give the reassembled word")
    if substituted != reassembled:
        problems.append("substitute_aux differs from the reassembled word")
    return problems


# -- sphere complexes ----------------------------------------------------------


def euler_and_pairing(vertices, edges, faces) -> tuple:
    """``edges`` lists edge ids, ``faces`` lists boundaries of (edge, dir)."""
    euler = len(vertices) - len(edges) + len(faces) == 2
    used = {e: [] for e in edges}
    for boundary in faces:
        for e, d in boundary:
            used.setdefault(e, []).append(d)
    pairing = all(sorted(ds) == [-1, 1] for ds in used.values())
    return euler, pairing


def face_word_from_step(boundary, labels, pos: int) -> tuple:
    """Boundary word that starts with the t-letter of step ``pos``."""
    n = len(boundary)
    out: list = []
    for off in range(n):
        i = (pos + off) % n
        out.append((STABLE, boundary[i][1]))
        out.extend(labels[(i + 1) % n])
    return reduce(out)


def check_type1(faces: dict, outer, witness) -> list:
    """``faces`` maps id -> (boundary, labels); the witness is (f1, f2, edge)."""
    f1, f2, eid = witness
    if f1 == f2 or outer in (f1, f2) or f1 not in faces or f2 not in faces:
        return [f"type-1 witness {witness} names bad faces"]
    words = []
    for fid in (f1, f2):
        boundary, labels = faces[fid]
        steps = [i for i, (e, _) in enumerate(boundary) if e == eid]
        if len(steps) != 1:
            return [f"type-1 witness: {fid} does not cross {eid} once"]
        words.append(face_word_from_step(boundary, labels, steps[0]))
    inv = inverse(words[0])
    if words[1] != inv[-1:] + inv[:-1]:
        return [f"type-1 witness {witness}: face words are not inverse across the edge"]
    return []


def check_type2(faces: dict, corners: dict, witness) -> list:
    """``corners`` maps face id -> tuple of (vertex, label letters)."""
    chain, a, b = witness
    if not chain or len(set(chain)) != len(chain):
        return [f"type-2 chain {chain} is empty or repeats a face"]
    for fid in chain:
        if fid not in corners or sorted(v for v, _ in corners[fid]) != sorted((a, b)):
            return [f"type-2 chain face {fid} is not a 2-gon between {a} and {b}"]
    for x, y in zip(chain, chain[1:]):
        if not {e for e, _ in faces[x][0]} & {e for e, _ in faces[y][0]}:
            return [f"type-2 chain faces {x} and {y} share no edge"]
    for vertex in (a, b):
        labels = [dict(corners[fid])[vertex] for fid in chain]
        if not reduce(l for lbl in labels for l in lbl):
            return []
    return [f"type-2 chain {chain} has nontrivial label products"]


# -- crash flows ---------------------------------------------------------------


class Car:
    """Unwrapped position of a car, interpolated from (time, position) points.

    A periodic car repeats its points every ``period`` and gains ``circuit``
    per period; a finite one is defined on its points' time range.
    """

    def __init__(self, circuit: int, points, period=None) -> None:
        self.circuit = circuit
        self.points = [(Fraction(t), Fraction(p)) for t, p in points]
        self.period = None if period is None else Fraction(period)

    def position(self, t) -> Fraction:
        t = Fraction(t)
        laps = 0
        if self.period is not None:
            k = t // self.period
            t -= k * self.period
            laps = k * self.circuit
        for (t0, p0), (t1, p1) in zip(self.points, self.points[1:]):
            if t0 <= t <= t1:
                return laps + p0 + (p1 - p0) * (t - t0) / (t1 - t0)
        raise ValueError(f"time {t} outside the car's schedule")

    def coordinate(self, t) -> Fraction:
        return self.position(t) % self.circuit


def uniform_car(circuit: int, start) -> Car:
    return Car(circuit, [(0, start), (circuit, Fraction(start) + circuit)], circuit)


def check_crash(event, cars: dict, boundaries: dict, corners_at: dict) -> list:
    """Re-check one complete event.

    ``event`` is (time, site, participants) with site ("edge", id, coordinate)
    or ("vertex", id); ``boundaries`` maps face id -> [(edge, dir)], and
    ``corners_at`` maps vertex id -> [(face id, corner index)].
    """
    time, site, participants = event
    if site[0] == "edge":
        _, eid, coord = site
        sides = [
            (fid, i, d)
            for fid, boundary in boundaries.items()
            for i, (e, d) in enumerate(boundary)
            if e == eid
        ]
        here = set()
        for fid, i, d in sides:
            local = cars[fid].coordinate(time) - i
            if 0 < local < 1 and (local if d > 0 else 1 - local) == coord:
                here.add((fid, i))
        if len(sides) != 2 or len(here) != 2:
            return [f"edge crash at {eid}, coordinate {coord}, time {time}: cars are not there"]
        if tuple(sorted({f for f, _ in here})) != tuple(participants):
            return [f"edge crash at {eid}: participants {participants}"]
        return []
    vid = site[1]
    slots = corners_at.get(vid, [])
    missing = [(f, i) for f, i in slots if cars[f].coordinate(time) != i]
    if not slots or missing:
        return [f"vertex crash at {vid}, time {time}: corners {missing} unoccupied"]
    if tuple(sorted({f for f, _ in slots})) != tuple(participants):
        return [f"vertex crash at {vid}: participants {participants}"]
    return []


def complex_tables(faces) -> tuple:
    """(boundaries, corners_at) from (face id, boundary, corner vertices) triples."""
    boundaries = {}
    corners_at: dict = {}
    for fid, boundary, vertices in faces:
        boundaries[fid] = list(boundary)
        for i, v in enumerate(vertices):
            corners_at.setdefault(v, []).append((fid, i))
    return boundaries, corners_at
