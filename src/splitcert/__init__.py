"""splitcert: machine-checked certificates for collapsibility splittings.

The library certifies, end to end, the combinatorial data behind a family
of splitting results: simplicial complexes with replayable collapse
certificates, a spine-splitting verifier, Wirtinger presentations with
certified Tietze rewriting and abelianization, a numerically certified
hyperbolic triangle-group representation, and the factor-multiset invariant
that separates infinite connected sums. `splitcert verify-all` runs every
bundled check.

`import splitcert` imports none of its modules. Each name is imported from
the module that defines it: `from splitcert.collapse import replay`.
"""

__version__ = "0.1.0"
