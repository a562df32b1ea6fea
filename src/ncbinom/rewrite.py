"""Normal-ordering rewrite systems over the free algebra.

A RelationSystem quotients the free algebra by adjacent-swap rules: every
out-of-order adjacent pair of distinct non-central generators rewrites to a
replacement polynomial.  Normal forms are the PBW-style ordered monomials
(central generators first, then the non-central alphabet order), so equality
in the quotient reduces to structural equality of normal forms.

Termination of a validated system follows from a two-part measure that
every admissible replacement term must respect: either it is the plain
transposition (the word's inversion count drops by one at an unchanged
letter multiset), or its multiset of non-central letters is strictly smaller
than the pair's in the Dershowitz-Manna order, which is well-founded.  A
shorter term alone is not enough: over A < B < C, BA -> AB + C with
CA -> AC + B^2 and CB -> BC + A^5 never reduces C*B*A*A.

The default reducer multiplies in the quotient: it pushes one letter at a
time into an already-normal word, memoizing nf(letter * word) for the length
of one call.  The worklist reducer ("leftmost"/"rightmost") rewrites whole
words redex by redex and stays as the independent oracle.

The reducers read the packed ``str`` words of :mod:`ncbinom.freealg`, each
letter recoded to its alphabet position by one ``str.translate`` per word,
or not at all when central letters are declared first, as in the built-ins.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .freealg import Algebra, ContextMismatchError, Generator, NCPoly
from .scalars import ParamPoly, _add_term

DEFAULT_BUDGET = 10**6

FAMILIES = ("commutative", "hsq", "weyl")


class RewriteError(Exception):
    pass


class InvalidSystemError(RewriteError):
    """normal_form was called on a system that fails validation."""


class BudgetExceededError(RewriteError):
    """The rule-application budget ran out before the normal form was reached.

    Validated systems terminate, so this means the input needs a larger
    budget, not that the rules loop.  ``steps`` counts the rule applications
    up to the refused one, and ``word`` names the word it would rewrite.
    """

    def __init__(self, budget: int, steps: int, word: str):
        super().__init__(f"budget of {budget} rule applications too small for this input")
        self.budget, self.steps, self.word = budget, steps, word


class MalformedSystemError(RewriteError, ValueError):
    """A system document does not follow the ``load_system`` schema."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


class RelationSystem:
    """An ordered alphabet plus adjacent-swap rewrite rules.

    ``rules`` maps an out-of-order pair of generator names
    ``(later, earlier)`` to its normal-form replacement polynomial.
    Immutable after construction; ``normal_form`` is pure.

    Both reducers, ``power`` and ``validate`` read coded words: a packed
    word whose letters are recoded to ``chr(alphabet position)``.  A coded
    word is normal iff its letters are non-decreasing, and its central
    letters are those below ``chr(n_central)``.  ``validate`` compiles the
    rules once into ``{(later, earlier): [(coded word, coeff)]}``.
    """

    def __init__(self, algebra: Algebra, rules: dict[tuple[str, str], NCPoly],
                 name: str | None = None, builtin: bool = False):
        self.algebra = algebra
        self.name = name
        self.builtin = builtin
        self.alphabet: tuple[Generator, ...] = tuple(
            sorted(algebra.generators, key=lambda g: (not g.central, g.index))
        )
        self.n_central = sum(1 for g in self.alphabet if g.central)
        # generator or packed letter -> alphabet position
        self._positions = {k: pos for pos, g in enumerate(self.alphabet) for k in (g, chr(g.index))}
        # translate tables between packed letters (declaration index) and
        # coded ones (alphabet position); None when the two orders agree
        order = "".join(chr(g.index) for g in self.alphabet)
        self._to_code = self._from_code = None
        if order != "".join(sorted(order)):
            self._to_code = order.maketrans(order, "".join(map(chr, range(len(order)))))
            self._from_code = order
        self.rules = dict(rules)
        self._report: ValidationReport | None = None
        self._compiled: dict[tuple[str, str], list] = {}

    def gen(self, name: str) -> NCPoly:
        return self.algebra.gen(name)

    def position(self, letter: Generator | str) -> int:
        """The alphabet position of a generator or of a packed letter."""
        try:
            return self._positions[letter]
        except KeyError:
            name = getattr(letter, "name", letter)
            raise KeyError(f"generator {name!r} is not in this system") from None

    def _encode(self, terms: dict):
        """The (coded word, coeff) pairs of a packed term map."""
        table = self._to_code
        return terms.items() if table is None else [
            (word.translate(table), c) for word, c in terms.items()]

    def _decode(self, terms: dict) -> NCPoly:
        """The polynomial of a coded, already pruned term map."""
        table = self._from_code
        if table is not None:
            terms = {word.translate(table): c for word, c in terms.items()}
        return self.algebra._poly(terms)

    def validate(self) -> ValidationReport:
        """Check rule coverage, normal-form replacements, and admissibility.

        Violations are reported, not raised: an inadmissible rule is the
        signal this operation exists to produce.
        """
        if self._report is not None:
            return self._report
        violations: list[str] = []
        warnings: list[str] = []

        noncentral = self.alphabet[self.n_central:]
        required = {
            (later.name, earlier.name)
            for i, earlier in enumerate(noncentral)
            for later in noncentral[i + 1:]
        }
        for pair in sorted(required - set(self.rules)):
            violations.append(f"missing rule for out-of-order pair {pair[0]}{pair[1]}")

        compiled = {}
        for (later_name, earlier_name), replacement in self.rules.items():
            label = f"rule {later_name}{earlier_name}"
            if not (self.algebra.has_generator(later_name)
                    and self.algebra.has_generator(earlier_name)):
                violations.append(f"{label}: unknown generator in pair")
                continue
            later = chr(self.position(self.algebra.generator(later_name)))
            earlier = chr(self.position(self.algebra.generator(earlier_name)))
            if min(later, earlier) < chr(self.n_central):
                violations.append(
                    f"{label}: central generators commute implicitly, no rule allowed"
                )
                continue
            if later <= earlier:
                violations.append(f"{label}: pair is not out of order")
                continue
            if replacement.algebra != self.algebra:
                violations.append(f"{label}: replacement from a different context")
                continue
            rule = compiled[(later, earlier)] = []
            for coded, coeff in self._encode(dict(replacement.canonical_terms())):
                rule.append((coded, coeff))
                name = "".join(self.alphabet[ord(i)].name for i in coded) or "1"
                if coded != "".join(sorted(coded)):
                    violations.append(
                        f"{label}: replacement term '{name}' is not in normal form"
                    )
                if coded == earlier + later:
                    continue
                # Over a total order, Dershowitz-Manna compares the letters
                # sorted descending; [later, earlier] is the pair sorted so.
                letters = sorted((i for i in coded if i >= chr(self.n_central)), reverse=True)
                if not letters < [later, earlier]:
                    violations.append(
                        f"{label}: replacement term '{name}' "
                        "decreases neither the inversion count nor the "
                        "non-central letter multiset"
                    )

        if not self.builtin:
            warnings.append(
                "user-defined system: confluence is only checked statistically"
            )
        self._report = ValidationReport(not violations, violations, warnings)
        if self._report.ok:
            self._compiled = compiled
        return self._report

    @staticmethod
    def _find_redex(word: str, strategy: str, start: int) -> int | None:
        """The leftmost redex at or after ``start``, or the rightmost before it."""
        if strategy == "rightmost":
            positions = reversed(range(min(start, len(word) - 1)))
        else:
            positions = range(start, len(word) - 1)
        for i in positions:
            if word[i] > word[i + 1]:
                return i
        return None

    def _check_input(self, p: NCPoly) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidSystemError("; ".join(report.violations))
        if p.algebra != self.algebra:
            raise ContextMismatchError("polynomial belongs to a different context")

    def normal_form(self, p: NCPoly, budget: int = DEFAULT_BUDGET,
                    strategy: str = "memo") -> NCPoly:
        """Rewrite to the ordered-monomial normal form.

        ``strategy`` picks the reducer: "memo" (the default) folds each word
        into its longest normal suffix one letter at a time with memoized
        letter pushes, sharing the work between words with a common prefix;
        "leftmost" and "rightmost" run the worklist, reducing that redex of
        each word per step.  For confluent systems all three agree.
        ``budget`` bounds the rule applications performed: the worklist
        counts every step, central swaps included; the memoized reducer
        counts each rule it applies to a new (letter, word) pair.
        """
        self._check_input(p)
        coded = self._encode(p.terms)
        if strategy == "memo":
            return self._decode(_Reducer(self, budget).reduce(coded))
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")

        # Each work item carries where its next redex search starts: the
        # prefix before a leftmost redex is normal, and so is the suffix
        # after a rightmost one, so only the seam around the rewritten pair
        # needs scanning again.
        leftmost = strategy == "leftmost"
        central = chr(self.n_central)
        acc: dict = {}
        work = [(word, coeff, 0 if leftmost else len(word)) for word, coeff in coded]
        steps = 0
        while work:
            word, coeff, start = work.pop()
            i = self._find_redex(word, strategy, start)
            if i is None:
                _add_term(acc, word, coeff)
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceededError(budget, steps, self._decode({word: 1}).text())
            left, right = word[:i], word[i + 2:]
            x, y = word[i], word[i + 1]
            if y < central:
                # a central letter in a redex is always its y: a plain swap
                rewritten = [(y + x, coeff)]
            else:
                rewritten = [(w, coeff * c) for w, c in self._compiled[(x, y)]]
            for rword, rcoeff in rewritten:
                start = max(i - 1, 0) if leftmost else i + len(rword)
                work.append((left + rword + right, rcoeff, start))
        return self._decode(acc)

    def power(self, p: NCPoly, n: int, budget: int = DEFAULT_BUDGET) -> NCPoly:
        """The normal form of ``p ** n``, built as nf(p * nf(p^(n-1))).

        Only normal words are ever multiplied, so the free expansion of
        ``p ** n`` is never formed.  One memo serves all n steps.
        """
        self._check_input(p)
        if n < 0:
            raise ValueError("negative powers are not defined")
        reducer = _Reducer(self, budget)
        factor = self._encode(p.terms)
        result: dict = {"": 1}
        for _ in range(n):
            result = reducer.reduce(
                (w + u, c * cu) for w, c in factor for u, cu in result.items()
            )
        return self._decode(result)

    def quotient_eq(self, p: NCPoly, q: NCPoly, budget: int = DEFAULT_BUDGET) -> bool:
        """Equality in the quotient algebra: identical normal forms."""
        return self.normal_form(p, budget) == self.normal_form(q, budget)

    def __repr__(self):
        label = self.name or "user"
        return f"RelationSystem({label}, {len(self.rules)} rules)"


class _Reducer:
    """Memoized normal forms for one call of ``normal_form`` or ``power``.

    Words are coded as in ``RelationSystem``, each letter a one-character
    string.  Central letters are moved into place without rules or memo
    entries.  ``memo[(g, u)]`` holds nf(g * u) for a non-central letter g
    and a normal word u free of central letters with u[0] < g; every entry
    is one rule application against the budget.
    """

    def __init__(self, system: RelationSystem, budget: int):
        self.system = system
        self.compiled = system._compiled
        self.central = chr(system.n_central)  # the first non-central letter
        self.budget = budget
        self.steps = 0
        self.memo: dict[tuple[str, str], dict] = {}

    def reduce(self, terms) -> dict:
        """nf of the coded (word, coeff) pairs, folding shared prefixes together.

        Each word splits into its longest normal suffix and the prefix
        before it, so an already normal word costs one scan.  Suffixes are
        gathered under their prefix, and the prefixes are folded one letter
        at a time, longest first, each into the merged normal form of all
        words below it.
        """
        acc: dict = {}
        levels: list[dict] = [{"": acc}]  # levels[d][prefix of length d]
        for word, coeff in terms:
            cut = len(word) - 1
            while cut > 0 and word[cut - 1] <= word[cut]:
                cut -= 1
            if cut <= 0:
                _add_term(acc, word, coeff)
                continue
            while len(levels) <= cut:
                levels.append({})
            _add_term(levels[cut].setdefault(word[:cut], {}), word[cut:], coeff)
        self._run(self._fold_prefixes(levels))
        return acc

    def _fold_prefixes(self, levels: list[dict]):
        while len(levels) > 1:
            level = levels.pop()
            parents = levels[-1]
            for prefix, terms in level.items():
                parent = parents.setdefault(prefix[:-1], {})
                folded = yield from self._fold(prefix[-1:], terms)
                for u, c in folded.items():
                    _add_term(parent, u, c)

    def _run(self, task):
        """Run a generator that yields the (letter, word) pushes it needs.

        ``_fold`` yields only pushes that miss the memo.  They run as
        generators too, on an explicit stack: each yields what it needs and
        receives its normal form, so the Python stack depth does not grow
        with the word length.
        """
        memo = self.memo
        stack = [(None, task)]
        value = None
        while True:
            key, task = stack[-1]
            try:
                need = task.send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = memo[key] = done.value
                continue
            self.steps += 1
            if self.steps > self.budget:
                word = self.system._decode({need[0] + need[1]: 1}).text()
                raise BudgetExceededError(self.budget, self.steps, word)
            stack.append((need, self._push(*need)))
            value = None  # a new generator starts on None

    def _fold(self, letters: str, terms: dict):
        memo = self.memo
        central = self.central
        for g in reversed(letters):
            pushed: dict = {}
            for w, c in terms.items():
                if not w or g <= w[0]:
                    _add_term(pushed, g + w, c)
                    continue
                if g < central:
                    # central letters commute with everything: insert in order
                    i = bisect_right(w, g)
                    _add_term(pushed, w[:i] + g + w[i:], c)
                    continue
                # g commutes past the central prefix; only the rest is rewritten
                k = bisect_left(w, central)
                head, u = w[:k], w[k:]
                if not u or g <= u[0]:
                    _add_term(pushed, head + g + u, c)
                    continue
                value = memo.get((g, u))
                if value is None:
                    value = yield (g, u)
                for r, cr in value.items():
                    if head:
                        # merge the prefix with any central letters r starts with
                        r = "".join(sorted(head + r)) if r and r[0] < central else head + r
                    _add_term(pushed, r, c * cr)
            terms = pushed
        return terms

    def _push(self, g: str, u: str):
        """nf(g * u) for a non-central u[0] < g.

        Applies the rule for the pair (g, u[0]) and folds each replacement
        term into u[1:].
        """
        out: dict = {}
        for v, cv in self.compiled[(g, u[0])]:
            terms = yield from self._fold(v, {u[1:]: cv})
            for r, c in terms.items():
                _add_term(out, r, c)
        return out


def make_family(family: str) -> RelationSystem:
    """One of the built-in relation families.

    commutative: BA -> AB over {A, B}
    hsq:         BA -> AB + h*A^2 over {A, B} (the commutator of B with A
                 is h times A squared)
    weyl:        BA -> AB + C over {C central, A, B}
    """
    if family == "commutative":
        alg = Algebra("A", "B")
        a, b = alg.gen("A"), alg.gen("B")
        rules = {("B", "A"): a * b}
    elif family == "hsq":
        alg = Algebra("A", "B")
        a, b = alg.gen("A"), alg.gen("B")
        rules = {("B", "A"): a * b + ParamPoly.param("h") * a * a}
    elif family == "weyl":
        alg = Algebra("C", "A", "B", central=("C",))
        a, b, c = alg.gen("A"), alg.gen("B"), alg.gen("C")
        rules = {("B", "A"): a * b + c}
    else:
        raise ValueError(f"unknown relation family {family!r}")
    return RelationSystem(alg, rules, name=family, builtin=True)


def _require(entry, key: str, where: str = ""):
    """``entry[key]``, or a schema error that names the missing key."""
    if not isinstance(entry, dict) or key not in entry:
        prefix = f"{where} " if where else ""
        raise MalformedSystemError(f'malformed system file: {prefix}missing "{key}"')
    return entry[key]


def _require_list(value, key: str):
    """``value`` of the top-level ``key``, or a schema error if it is not a list."""
    if not isinstance(value, list):
        raise MalformedSystemError(f'malformed system file: "{key}" must be a list')
    return value


def load_system(source) -> RelationSystem:
    """Load a user-defined system from a JSON document, file path, or dict.

    Schema::

        {"alphabet": [{"name": "C", "central": true}, ...],
         "rules": [{"pair": ["B", "A"], "replacement": <NCPoly JSON>}]}

    A file that is not UTF-8 JSON, or a document that breaks the schema,
    raises ``MalformedSystemError`` naming the entry and the fault: a
    missing key, a value of the wrong type or shape, a repeated generator
    name or rule pair, or a replacement that names an unknown generator or
    holds a coefficient that does not parse.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                fault = f"malformed system file: not UTF-8 JSON: {exc}"
                raise MalformedSystemError(fault) from None
    else:
        doc = source
    alphabet = []
    for i, entry in enumerate(_require_list(_require(doc, "alphabet"), "alphabet")):
        where = f"alphabet entry {i}"
        name = _require(entry, "name", where)
        central = entry.get("central", False)
        fault = ('"name" must be a string' if not isinstance(name, str) else
                 '"name" must not be empty' if not name else
                 f"repeats name {name}" if any(name == n for n, _ in alphabet) else
                 '"central" must be a bool' if not isinstance(central, bool) else None)
        if fault:
            raise MalformedSystemError(f"malformed system file: {where} {fault}")
        alphabet.append((name, central))
    algebra = Algebra(
        *(name for name, _ in alphabet),
        central=tuple(name for name, central in alphabet if central),
    )
    rules = {}
    for i, entry in enumerate(_require_list(doc.get("rules", []), "rules")):
        where = f"rules entry {i}"
        pair = _require(entry, "pair", where)
        replacement = _require(entry, "replacement", where)
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(g, str) for g in pair)):
            raise MalformedSystemError(
                f'malformed system file: {where} "pair" must name two generators'
            )
        if tuple(pair) in rules:
            fault = f"malformed system file: {where} repeats pair {''.join(pair)}"
            raise MalformedSystemError(fault)
        try:
            rules[tuple(pair)] = NCPoly.from_json(algebra, replacement)
        except (AttributeError, KeyError, TypeError) as exc:
            # AttributeError: a "coeff" that is not text; TypeError: a list
            # or a number where an object is expected, or a "word" that is
            # not a list
            fault = (f'missing "{exc.args[0]}"' if isinstance(exc, KeyError) else
                     'must be {"terms": [{"coeff": "<text>", "word": [...]}, ...]}')
            raise MalformedSystemError(
                f"malformed system file: {where} replacement {fault}"
            ) from None
        except ValueError as exc:
            # an unknown generator in a word, or a coefficient that does not parse
            raise MalformedSystemError(
                f"malformed system file: {where} replacement: {exc}"
            ) from None
    return RelationSystem(algebra, rules, name=None, builtin=False)
