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
CA -> AC + B^2 and CB -> BC + A^5 never reduces C*B*A*A.  A terminating
system is confluent exactly when every overlap z*y*x of three non-central
letters in descending order resolves (Bergman, "The diamond lemma for ring
theory", 1978), and ``validate`` reduces each overlap both ways.

The reducer multiplies in the quotient: it pushes one letter at a time into
an already-normal word, memoizing nf(letter * word) for the length of one
call.  Only the letters below the pushed one move.  No admissible
replacement term has a non-central letter above its pair's later letter:
the transposition holds the pair itself, and any other term's letters,
sorted descending, come before [later, earlier].  So no reduction of g * u
makes a letter above g, nf(g * u * t) = nf(g * u) * t for a normal tail t of
letters >= g, and the memo is keyed by g and u alone.  The letters to push
form one stream of one-letter jobs.  It reads the packed ``str`` words of
:mod:`ncbinom.freealg` as they are: a letter's code point is its alphabet
position, so a word is normal iff its letters are non-decreasing, and its
central letters are those below ``chr(n_central)``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, combinations

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


# The default is a tuple: a namedtuple default is one object shared by every report.
ValidationReport = namedtuple("ValidationReport", ("ok", "violations"), defaults=((),))


class RelationSystem:
    """An ordered alphabet plus adjacent-swap rewrite rules.

    ``rules`` maps an out-of-order pair of generator names
    ``(later, earlier)`` to its normal-form replacement polynomial.
    Immutable after construction; ``normal_form`` is pure.  ``alphabet`` is
    ``algebra.generators``, central letters first.  ``validate`` compiles
    the rules once into ``{(later, earlier): [(packed word, coeff)]}``, the
    table the reducer reads.
    """

    def __init__(self, algebra: Algebra, rules: dict[tuple[str, str], NCPoly],
                 name: str | None = None):
        self.algebra = algebra
        self.name = name
        self.alphabet: tuple[Generator, ...] = algebra.generators
        self.n_central = sum(g.central for g in self.alphabet)
        self.rules = dict(rules)
        self._report: ValidationReport | None = None
        self._compiled: dict[tuple[str, str], list] = {}

    def gen(self, name: str) -> NCPoly:
        return self.algebra.gen(name)

    def position(self, letter: Generator | str) -> int:
        """The alphabet position of a generator or of a packed letter."""
        if letter in self.algebra._names:
            return ord(letter)
        if letter in self.alphabet:
            return letter.index
        name = getattr(letter, "name", letter)
        raise KeyError(f"generator {name!r} is not in this system")

    def validate(self) -> ValidationReport:
        """Check rule coverage, normal-form replacements, admissibility and
        confluence.

        Violations are reported, not raised: an inadmissible rule is the
        signal this operation exists to produce.
        """
        if self._report is not None:
            return self._report
        violations: list[str] = []

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
            later = chr(self.algebra.generator(later_name).index)
            earlier = chr(self.algebra.generator(earlier_name).index)
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
            rule = compiled[(later, earlier)] = replacement.canonical_terms()
            for word, _ in rule:
                name = "".join(self.alphabet[ord(i)].name for i in word) or "1"
                if word != "".join(sorted(word)):
                    violations.append(
                        f"{label}: replacement term '{name}' is not in normal form"
                    )
                if word == earlier + later:
                    continue
                # Over a total order, Dershowitz-Manna compares the letters
                # sorted descending; [later, earlier] is the pair sorted so.
                letters = sorted((i for i in word if i >= chr(self.n_central)), reverse=True)
                if not letters < [later, earlier]:
                    violations.append(
                        f"{label}: replacement term '{name}' "
                        "decreases neither the inversion count nor the "
                        "non-central letter multiset"
                    )

        if not violations:
            violations = self._overlap_defects(compiled)
        self._report = ValidationReport(not violations, violations)
        if self._report.ok:
            self._compiled = compiled
        return self._report

    def _overlap_defects(self, compiled: dict) -> list[str]:
        """Each overlap z*y*x whose two reductions differ, with the defect
        nf(z*nf(y*x)) - nf(nf(z*y)*x); the rules are complete and terminate."""
        reducer = _Reducer(self, compiled, DEFAULT_BUDGET)
        violations = []
        for x, y, z in combinations(map(chr, range(self.n_central, len(self.alphabet))), 3):
            defect = reducer.reduce(chain(((z + w, c) for w, c in compiled[(y, x)]),
                                          ((w + x, -c) for w, c in compiled[(z, y)])))
            if defect:
                text = self.algebra._poly(defect).text()
                name = "".join(self.alphabet[ord(i)].name for i in z + y + x)
                violations.append(f"overlap {name} does not resolve: defect {text}")
        return violations

    def _check_input(self, p: NCPoly) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidSystemError("; ".join(report.violations))
        if p.algebra != self.algebra:
            raise ContextMismatchError("polynomial belongs to a different context")

    def normal_form(self, p: NCPoly, budget: int = DEFAULT_BUDGET) -> NCPoly:
        """Rewrite to the ordered-monomial normal form.

        Each word is folded into its longest normal suffix one letter at a
        time with memoized letter pushes, sharing the work between words
        with a common prefix.  ``budget`` bounds the rule applications: each
        rule applied to a new (letter, word) pair counts one.
        """
        self._check_input(p)
        return self.algebra._poly(_Reducer(self, self._compiled, budget).reduce(p.terms.items()))

    def power(self, p: NCPoly, n: int, budget: int = DEFAULT_BUDGET) -> NCPoly:
        """The normal form of ``p ** n``, built as nf(p * nf(p^(n-1))).

        Each factor word is folded straight into the normal running result,
        with no suffix scan and no free ``p ** n``.  One memo serves all n steps.
        """
        self._check_input(p)
        if n < 0:
            raise ValueError("negative powers are not defined")
        reducer = _Reducer(self, self._compiled, budget)
        result: dict = {"": 1}
        for _ in range(n):
            acc: dict = {}
            reducer._run(reducer._fold(chain.from_iterable(
                _jobs(w, {u: c * cu for u, cu in result.items()}, acc)
                for w, c in p.terms.items())))
            result = acc
        return self.algebra._poly(result)

    def quotient_eq(self, p: NCPoly, q: NCPoly, budget: int = DEFAULT_BUDGET) -> bool:
        """Equality in the quotient algebra: identical normal forms."""
        return self.normal_form(p, budget) == self.normal_form(q, budget)

    def __repr__(self):
        label = self.name or "user"
        return f"RelationSystem({label}, {len(self.rules)} rules)"


def _jobs(word: str, terms: dict, acc: dict):
    """The one-letter jobs of ``_Reducer._fold`` that add nf(word * w) * c to
    ``acc`` for each normal w, c of ``terms``.

    The letters go right to left, each job's terms being the dict the job
    before it fills; the empty word is the one job of the empty letter.
    """
    for g in word[:0:-1]:
        pushed: dict = {}
        yield g, terms, pushed
        terms = pushed
    yield word[:1], terms, acc


class _Reducer:
    """Memoized normal forms for one call of ``normal_form`` or ``power``.

    Words are packed as in ``NCPoly.terms``, and ``compiled`` is the rule
    table of ``RelationSystem.validate``.  Central letters are moved into
    place without rules or memo entries.  ``memo[(g, u)]`` holds nf(g * u)
    for a non-central letter g and a normal word u of non-central letters,
    all below g; every entry is one rule application against the budget.
    The rest of a word passes through: its central letters merge into the
    result's, and its tail of letters >= g is appended, since a validated
    rule makes no non-central letter above the later letter of its pair.
    ``reduce`` takes free input; ``power`` runs ``_fold`` directly, its
    words being normal.  ``reduce`` runs one ``_fold`` generator per call,
    and ``power`` one per step.
    """

    def __init__(self, system: RelationSystem, compiled: dict, budget: int):
        self.system = system
        self.compiled = compiled
        self.central = chr(system.n_central)  # the first non-central letter
        self.budget = budget
        self.steps = 0
        self.memo: dict[tuple[str, str], dict] = {}

    def reduce(self, terms) -> dict:
        """nf of free (packed word, coeff) pairs, folding shared prefixes together.

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
        self._run(self._fold(self._fold_prefixes(levels)))
        return acc

    def _fold_prefixes(self, levels: list[dict]):
        """The jobs that push each prefix's last letter into its terms,
        adding into the terms of the prefix one letter shorter."""
        while len(levels) > 1:
            level = levels.pop()
            parents = levels[-1]
            for prefix, terms in level.items():
                yield prefix[-1], terms, parents.setdefault(prefix[:-1], {})

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
                word = self.system.algebra._poly({need[0] + need[1]: 1}).text()
                raise BudgetExceededError(self.budget, self.steps, word)
            stack.append((need, self._push(*need)))
            value = None  # a new generator starts on None

    def _fold(self, jobs):
        """Run one-letter jobs (g, terms, acc), each adding nf(g * w) * c to
        ``acc`` for every normal w, c of ``terms``; the empty g adds w itself.

        Jobs are read one at a time, so a job's terms may be the ``acc`` of
        the job before it.  Of the non-central part of w, only the letters
        below g move: they key the memo, and the rest is appended.
        """
        memo = self.memo
        central = self.central
        # with one central letter, head + r is in order: both runs are that letter
        sort_central = self.system.n_central > 1
        for g, terms, acc in jobs:
            for w, c in terms.items():
                if not w or g <= w[0]:
                    _add_term(acc, g + w, c)
                    continue
                if g < central:
                    # central letters commute with everything: insert in order
                    i = bisect_right(w, g)
                    _add_term(acc, w[:i] + g + w[i:], c)
                    continue
                # g commutes past the central prefix; only the rest is rewritten
                k = bisect_left(w, central)
                head, u = w[:k], w[k:]
                if not u or g <= u[0]:
                    _add_term(acc, head + g + u, c)
                    continue
                j = bisect_left(u, g, 1)
                u, tail = u[:j], u[j:]
                value = memo.get((g, u))
                if value is None:
                    value = yield (g, u)
                for r, cr in value.items():
                    if sort_central and head and r and r[0] < central:
                        # merge the prefix's central run with the one r starts with
                        r = "".join(sorted(head + r))
                    else:
                        r = head + r
                    _add_term(acc, r + tail, c * cr)

    def _push(self, g: str, u: str):
        """nf(g * u) for non-central letters u, all below g.

        Applies the rule for the pair (g, u[0]) and folds each replacement
        term into u[1:].
        """
        out: dict = {}
        yield from self._fold(chain.from_iterable(
            _jobs(v, {u[1:]: cv}, out) for v, cv in self.compiled[(g, u[0])]))
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
    return RelationSystem(alg, rules, name=family)


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
    """Load a user-defined system from a JSON file path or a dict.

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
    return RelationSystem(algebra, rules)
