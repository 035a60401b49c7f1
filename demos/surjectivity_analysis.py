"""Is the base group all of the one-relator extension?

For the extension (G*<t>)/<<w>> of a free group G, the answer is decided
by the relator alone: unit exponent sum is necessary, the gt-forms collapse
the extension back onto G (surjective), and everything else leaves t
outside G's image.  Bounded searches and finite quotients cross-check the
verdicts from independent directions.
"""
from onerelator import (
    analyze,
    collapse_isomorphism,
    free_alphabet,
    normal_closure_search,
    one_relator_presentation,
    parse_word,
    quotient_certificate,
    verify_certificate,
)
from onerelator.words import STABLE, substitute

AB = free_alphabet(2)

for text, rank in (("att", 2), ("bat B", 2), ("atataT", 2)):
    w = parse_word(text, free_alphabet(rank))
    v = analyze(w, rank)
    print(f"{str(w):8s} -> {v.status:13s} ({v.reason})")

# the surjective case comes with an explicit inverse isomorphism
w = parse_word("bat B", AB)
c = collapse_isomorphism(w)
print(f"\ncollapse: t |-> {c.t_image}, w becomes {substitute(w, STABLE, c.t_image)!r}")

# cross-check 1: no bounded product of conjugates of the relator has
# t-shape (+1), as non-surjectivity predicts
w = parse_word("atataT", AB)
hit = normal_closure_search(w, (1,), conj_len_bound=3, product_bound=3)
print(f"bounded closure search for shape (1,): {hit}")

# cross-check 2: a finite permutation quotient where t's image escapes the
# image of the base group certifies non-surjectivity outright
a1 = free_alphabet(1)
pres = one_relator_presentation(parse_word("aTatt", a1), 1)
cert = quotient_certificate(pres, max_degree=4)
print(f"\ncertificate: degree={cert.degree}, images={cert.images}")
print(f"independent verification: {verify_certificate(pres, cert)}")
