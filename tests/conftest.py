import random

from hypothesis import strategies as st

from polarmhw.bitops import encode


class RawSpec:
    """Duck-typed stand-in for CodeSpec, allowing empty information sets."""

    def __init__(self, N, A):
        self.N = N
        self.A = tuple(sorted(A))
        self._info = frozenset(A)

    @property
    def K(self):
        return len(self.A)

    def is_info(self, position):
        return position in self._info


def message_to_u(spec, message_bits):
    u = [0] * spec.N
    for pos, bit in zip(spec.A, message_bits):
        u[pos - 1] = bit
    return tuple(u)


def first_one(u):
    for pos, bit in enumerate(u, start=1):
        if bit:
            return pos
    return None


def brute_force_minimum_weight(spec):
    """Scalar reference enumeration over every nonzero message.

    Returns (min nonzero codeword weight, set of attaining u vectors).  Kept
    deliberately naive and list-based so it shares no code path with the
    packed-word oracle inside the package.
    """
    assert spec.K <= 16, "scalar reference is for small codes only"
    best = None
    vectors = []
    for m in range(1, 1 << spec.K):
        u = message_to_u(spec, [(m >> k) & 1 for k in range(spec.K)])
        w = sum(encode(list(u)))
        if best is None or w < best:
            best, vectors = w, [u]
        elif w == best:
            vectors.append(u)
    return best, set(vectors)


def vector_set(vectors):
    """The rows of a vector array (or any iterable of 0/1 vectors) as a set
    of int tuples."""
    return {tuple(int(b) for b in u) for u in vectors}


def group_by_trigger(vectors):
    groups = {}
    for u in vector_set(vectors):
        groups.setdefault(first_one(u), set()).add(u)
    return groups


def random_specs(count, N_choices, seed, max_K=16):
    """Reproducible stream of random information sets as RawSpec-compatible CodeSpecs."""
    from polarmhw.construction import CodeSpec

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        N = rng.choice(list(N_choices))
        K = rng.randint(1, min(N, max_K))
        A = rng.sample(range(1, N + 1), K)
        out.append(CodeSpec(N, tuple(A)))
    return out


def leaf_schedule(spec):
    """A copy of spec whose SC schedule takes every leaf alone: the reference
    for the engine's one-step rate-0 nodes."""
    from polarmhw.construction import CodeSpec

    ref = CodeSpec(spec.N, spec.A)
    ref.__dict__["_sc_steps"] = tuple((phi, 0) for phi in range(spec.N))
    return ref


def edit_items(data, items, new):
    """items after one replace, delete, insert, duplicate or swap; an
    inserted or replacing item is drawn from new."""
    items = list(items)
    i, j = (data.draw(st.integers(0, len(items) - 1)) for _ in range(2))
    kind = data.draw(st.sampled_from(("replace", "delete", "insert", "duplicate", "swap")))
    if kind == "replace":
        items[i] = data.draw(new)
    elif kind == "delete":
        del items[i]
    elif kind in ("insert", "duplicate"):
        items.insert(i, data.draw(new) if kind == "insert" else items[i])
    else:
        items[i], items[j] = items[j], items[i]
    return items


def edit_text(data, text, chars):
    """text after one or two edits of single characters (an inserted or
    replacing one drawn from chars) or whole lines; a line put in is a copy
    of one of the text's, so that no edit can ask for a huge N."""
    for _ in range(data.draw(st.integers(1, 2))):
        if data.draw(st.booleans()):
            text = "".join(edit_items(data, text, chars))
        else:
            lines = text.splitlines(keepends=True)
            text = "".join(edit_items(data, lines, st.sampled_from(lines)))
    return text
