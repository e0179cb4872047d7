"""Reduced ordered binary decision diagrams.

A small, dependency-free BDD package sized for this study: the circuits
have at most about a hundred state/input variables and a few hundred
gates, so a classic unique table with memoized operations is ample.
AND, OR and NOT, which carry the image computations, run their own
apply recursions with their own caches (AND and OR keyed on the
unordered operand pair, NOT memoized both ways); every other connective
goes through the general ITE.  ROBDDs are canonical, so either route
returns the same node for the same function.

The package exists for one load-bearing job — **reachable-state
(valid-state) analysis** behind the paper's *density of encoding* metric
— plus combinational equivalence checks used by the synthesis and
retiming verifiers.  Image computation uses the *output-splitting* range
construction (:meth:`BddManager.range_of`), which never builds a
monolithic transition relation and needs no primed variables.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError


class BddError(ReproError):
    """Invalid BDD operation (unknown variable, manager mixing, ...)."""


class BddManager:
    """Owns the unique table and operation caches for one variable order.

    Node references are plain ints: 0 is FALSE, 1 is TRUE, other ids
    index the node arrays.  All functions passed to manager methods must
    come from the same manager.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise BddError("duplicate variable names in order")
        self._var_names: List[str] = list(variables)
        self._var_level: Dict[str, int] = {
            name: i for i, name in enumerate(variables)
        }
        terminal_level = len(variables)
        # Node arrays; ids 0/1 are terminals with level = #vars.
        self._level: List[int] = [terminal_level, terminal_level]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._not_cache: Dict[int, int] = {}

    # -- variables --------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self._var_names)

    def num_vars(self) -> int:
        return len(self._var_names)

    def num_nodes(self) -> int:
        return len(self._level)

    def level_of(self, variable: str) -> int:
        try:
            return self._var_level[variable]
        except KeyError:
            raise BddError(f"unknown BDD variable {variable!r}") from None

    def var(self, variable: str) -> int:
        """The function ``variable`` itself."""
        return self._mk(self.level_of(variable), self.FALSE, self.TRUE)

    def nvar(self, variable: str) -> int:
        """The function ``NOT variable``."""
        return self._mk(self.level_of(variable), self.TRUE, self.FALSE)

    # -- core construction ---------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` — the universal connective."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(top, low, high)
        self._ite_cache[key] = result
        return result

    def clear_caches(self) -> None:
        """Drop the operation caches; every node stays valid."""
        self._ite_cache.clear()
        self._and_cache.clear()
        self._or_cache.clear()
        self._not_cache.clear()

    def _cofactors(self, f: int, level: int) -> Tuple[int, int]:
        if self._level[f] == level:
            return self._low[f], self._high[f]
        return f, f

    # -- boolean connectives ----------------------------------------------------

    def not_(self, f: int) -> int:
        """``NOT f``; memoized both ways, since negation is involutive."""
        if f <= self.TRUE:
            return self.TRUE - f
        cached = self._not_cache.get(f)
        if cached is None:
            cached = self._mk(
                self._level[f], self.not_(self._low[f]), self.not_(self._high[f])
            )
            self._not_cache[f] = cached
            self._not_cache[cached] = f
        return cached

    def and_(self, f: int, g: int) -> int:
        if f == self.FALSE or g == self.FALSE:
            return self.FALSE
        if f == self.TRUE or f == g:
            return g
        if g == self.TRUE:
            return f
        key = (f, g) if f < g else (g, f)
        cached = self._and_cache.get(key)
        if cached is None:
            top, f0, f1, g0, g1 = self._split(f, g)
            cached = self._mk(top, self.and_(f0, g0), self.and_(f1, g1))
            self._and_cache[key] = cached
        return cached

    def or_(self, f: int, g: int) -> int:
        if f == self.TRUE or g == self.TRUE:
            return self.TRUE
        if f == self.FALSE or f == g:
            return g
        if g == self.FALSE:
            return f
        key = (f, g) if f < g else (g, f)
        cached = self._or_cache.get(key)
        if cached is None:
            top, f0, f1, g0, g1 = self._split(f, g)
            cached = self._mk(top, self.or_(f0, g0), self.or_(f1, g1))
            self._or_cache[key] = cached
        return cached

    def _split(self, f: int, g: int) -> Tuple[int, int, int, int, int]:
        """The top level of two non-terminals and both cofactor pairs."""
        level_f, level_g = self._level[f], self._level[g]
        if level_f == level_g:
            return level_f, self._low[f], self._high[f], self._low[g], self._high[g]
        if level_f < level_g:
            return level_f, self._low[f], self._high[f], g, g
        return level_g, f, f, self._low[g], self._high[g]

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, self.TRUE)

    def and_many(self, functions: Iterable[int]) -> int:
        acc = self.TRUE
        for f in functions:
            acc = self.and_(acc, f)
            if acc == self.FALSE:
                break
        return acc

    def or_many(self, functions: Iterable[int]) -> int:
        acc = self.FALSE
        for f in functions:
            acc = self.or_(acc, f)
            if acc == self.TRUE:
                break
        return acc

    # -- quantification & substitution ----------------------------------------------

    def exists(self, variables: Iterable[str], f: int) -> int:
        levels = sorted(self.level_of(v) for v in variables)
        return self._exists(frozenset(levels), f, {})

    def _exists(self, levels: frozenset, f: int, cache: Dict) -> int:
        if f in (self.TRUE, self.FALSE):
            return f
        level = self._level[f]
        if all(level > lv for lv in levels):
            return f
        key = f
        cached = cache.get(key)
        if cached is not None:
            return cached
        low = self._exists(levels, self._low[f], cache)
        high = self._exists(levels, self._high[f], cache)
        if level in levels:
            result = self.or_(low, high)
        else:
            result = self._mk(level, low, high)
        cache[key] = result
        return result

    def restrict(self, f: int, assignment: Dict[str, int]) -> int:
        """Cofactor ``f`` with respect to a partial variable assignment."""
        by_level = {self.level_of(v): bit for v, bit in assignment.items()}
        return self._restrict(by_level, f, {})

    def _restrict(self, by_level: Dict[int, int], f: int, cache: Dict) -> int:
        if f in (self.TRUE, self.FALSE):
            return f
        cached = cache.get(f)
        if cached is not None:
            return cached
        level = self._level[f]
        if level in by_level:
            branch = self._high[f] if by_level[level] else self._low[f]
            result = self._restrict(by_level, branch, cache)
        else:
            low = self._restrict(by_level, self._low[f], cache)
            high = self._restrict(by_level, self._high[f], cache)
            result = self._mk(level, low, high)
        cache[f] = result
        return result

    def cofactor_is_true(self, f: int, by_level: Dict[int, int]) -> bool:
        """Decide ``restrict(f, assignment) == TRUE`` without building
        the cofactored BDD.

        The hot-path form of the containment query (level-keyed partial
        assignment, see :meth:`level_of`): a pure traversal that
        allocates no result nodes and exits on the first falsified
        path.  Exactly equivalent to materializing the cofactor and
        comparing against TRUE.
        """
        return self._cofactor_is(self.TRUE, by_level, f, {})

    def cofactor_is_false(self, f: int, by_level: Dict[int, int]) -> bool:
        """Decide ``restrict(f, assignment) == FALSE``, i.e. whether
        ``f`` and the cube ``assignment`` are disjoint, by the same
        allocation-free traversal as :meth:`cofactor_is_true`."""
        return self._cofactor_is(self.FALSE, by_level, f, {})

    def _cofactor_is(
        self, const: int, by_level: Dict[int, int], f: int, cache: Dict[int, bool]
    ) -> bool:
        if f == const:
            return True
        if f == self.TRUE or f == self.FALSE:
            return False
        cached = cache.get(f)
        if cached is not None:
            return cached
        level = self._level[f]
        bit = by_level.get(level)
        if bit is not None:
            branch = self._high[f] if bit else self._low[f]
            result = self._cofactor_is(const, by_level, branch, cache)
        else:
            result = self._cofactor_is(
                const, by_level, self._low[f], cache
            ) and self._cofactor_is(const, by_level, self._high[f], cache)
        cache[f] = result
        return result

    def transfer(self, f: int, target: "BddManager") -> int:
        """Rebuild ``f`` inside ``target``, which must declare every
        support variable of ``f`` in the same relative order.

        Only the nodes reachable from ``f`` are copied, so a function
        moved into a fresh manager leaves behind every intermediate
        node and operation cache of the computation that produced it.
        """
        copies: Dict[int, int] = {self.FALSE: target.FALSE, self.TRUE: target.TRUE}

        def copy(node: int) -> int:
            result = copies.get(node)
            if result is None:
                level = target.level_of(self._var_names[self._level[node]])
                low = copy(self._low[node])
                high = copy(self._high[node])
                if level >= target._level[low] or level >= target._level[high]:
                    raise BddError("target manager orders the support differently")
                result = target._mk(level, low, high)
                copies[node] = result
            return result

        return copy(f)

    # -- evaluation & counting --------------------------------------------------------

    def evaluate(self, f: int, assignment: Dict[str, int]) -> int:
        """Evaluate under a total assignment of the variables f depends on."""
        node = f
        while node not in (self.TRUE, self.FALSE):
            name = self._var_names[self._level[node]]
            try:
                bit = assignment[name]
            except KeyError:
                raise BddError(
                    f"assignment missing variable {name!r}"
                ) from None
            node = self._high[node] if bit else self._low[node]
        return 1 if node == self.TRUE else 0

    def satcount(self, f: int, over_vars: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments over ``over_vars`` (default:
        the manager's full variable set)."""
        if over_vars is None:
            var_levels = list(range(self.num_vars()))
        else:
            var_levels = sorted(self.level_of(v) for v in over_vars)
        support = self.support_levels(f)
        if not support <= set(var_levels):
            raise BddError(
                "satcount variable set does not include the function support"
            )
        level_rank = {lv: i for i, lv in enumerate(var_levels)}
        total_rank = len(var_levels)
        cache: Dict[int, int] = {}

        def rank_of(node: int) -> int:
            level = self._level[node]
            if node in (self.TRUE, self.FALSE):
                return total_rank
            return level_rank[level]

        def count(node: int) -> int:
            # Count over variables at rank >= rank_of(node).
            if node == self.FALSE:
                return 0
            if node == self.TRUE:
                return 1
            cached = cache.get(node)
            if cached is None:
                low, high = self._low[node], self._high[node]
                here = rank_of(node)
                low_count = count(low) << (rank_of(low) - here - 1)
                high_count = count(high) << (rank_of(high) - here - 1)
                cached = low_count + high_count
                cache[node] = cached
            return cached

        return count(f) << rank_of(f)

    def support(self, f: int) -> List[str]:
        """Variables the function actually depends on, in order."""
        return [self._var_names[lv] for lv in sorted(self.support_levels(f))]

    def support_levels(self, f: int) -> set:
        seen = set()
        levels = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in (self.TRUE, self.FALSE) or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return levels

    def iter_satisfying(
        self, f: int, over_vars: Sequence[str]
    ) -> Iterator[Dict[str, int]]:
        """Enumerate total satisfying assignments over ``over_vars``.

        Free variables (not in the function's support) are expanded to
        both polarities, so each yielded dict is a complete assignment.
        Intended for listing valid states; callers cap the enumeration.
        """
        var_levels = [self.level_of(v) for v in over_vars]
        if sorted(var_levels) != var_levels:
            raise BddError("over_vars must respect the manager order")
        support = self.support_levels(f)
        if not support <= set(var_levels):
            raise BddError(
                "iter_satisfying variable set does not include the support"
            )

        def walk(node: int, position: int) -> Iterator[List[int]]:
            if node == self.FALSE:
                return
            if position == len(var_levels):
                if node == self.TRUE:
                    yield []
                return
            level = var_levels[position]
            if node not in (self.TRUE, self.FALSE) and self._level[node] == level:
                low, high = self._low[node], self._high[node]
            else:
                low = high = node
            for rest in walk(low, position + 1):
                yield [0] + rest
            for rest in walk(high, position + 1):
                yield [1] + rest

        for bits in walk(f, 0):
            yield {name: bit for name, bit in zip(over_vars, bits)}

    # -- minterm/cube construction -------------------------------------------

    def cube(self, assignment: Dict[str, int]) -> int:
        """The conjunction of literals described by ``assignment``."""
        acc = self.TRUE
        for name in sorted(assignment, key=self.level_of, reverse=True):
            literal = self.var(name) if assignment[name] else self.nvar(name)
            acc = self.and_(literal, acc)
        return acc

    # -- image computation ----------------------------------------------------

    def range_of(
        self,
        functions: Sequence[int],
        out_vars: Sequence[str],
        care: int,
    ) -> int:
        """Range (image) of a vector function via output splitting.

        Returns the characteristic function, over ``out_vars``, of

        ``{ y | ∃x ∈ care : y_i = functions_i(x) for all i }``

        All quantification is implicit: a branch terminates as soon as the
        accumulated care set becomes empty.  No primed variables and no
        transition relation are ever constructed, which keeps memory flat
        even for the 28-register retimed circuits.
        """
        if len(functions) != len(out_vars):
            raise BddError("range_of needs one output variable per function")
        out_literals = [(self.var(v), self.nvar(v)) for v in out_vars]
        cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}

        def recurse(index: int, constraint: int) -> int:
            if constraint == self.FALSE:
                return self.FALSE
            if index == len(functions):
                return self.TRUE
            key = (index, constraint)
            cached = cache.get(key)
            if cached is not None:
                return cached
            f = functions[index]
            pos_lit, neg_lit = out_literals[index]
            high = recurse(index + 1, self.and_(constraint, f))
            low = recurse(index + 1, self.and_(constraint, self.not_(f)))
            result = self.or_(
                self.and_(pos_lit, high), self.and_(neg_lit, low)
            )
            cache[key] = result
            return result

        return recurse(0, care)
