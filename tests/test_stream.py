"""Golden digests of the enumeration stream.

Each digest is the sha256 of ``to_graph6(g) + "\\n"`` over ``enumerate_graphs``
in stream order, so it pins every graph, its labelling and the order in
which the graphs come.  The counts tests elsewhere would not notice a change
of canonical labelling or of stream order; these do.  A change that is meant
to keep the canonical order must leave every digest as it is.  Only a change
that alters the canonical order on purpose may update a digest, and it must
say so in CHANGES.md.
"""

import hashlib

import pytest

from oddhom import ALL_RULES, SearchConfig, enumerate_graphs, to_graph6

GOLDEN = {
    # name: (SearchConfig arguments, graphs in the stream, sha256)
    "k1-n7": (dict(k=1, l=1, n_max=7), 996,
              "f2f3126e21bb002c0a07e117d86b87f05ef45186fe0dbf9c806a9f3efdd786ad"),
    "k2-n9": (dict(k=2, l=1, n_max=9), 1737,
              "a49037dee5c4ea2b619e6b534822c3f1871245c8e1ede9eac5bdaebdfc786121"),
    "k3-n10": (dict(k=3, l=2, n_max=10), 5148,
               "741220ce98539f6890caefc4a0ddf077ffbe42cc35b3e20eb890bb53abe62731"),
    "k3-n12-all-rules": (dict(k=3, l=2, n_max=12, prune_rules=ALL_RULES), 456,
                         "0115cce1d4f2ec5e8ee34260708f5b45af9d1a8d0d1b1021036f9f6e0f5fad8d"),
    "k3-n14-all-rules": (dict(k=3, l=2, n_max=14, prune_rules=ALL_RULES), 2361,
                         "2c50613e6909188544331b5d5e1962dd8b2ae90359b14ad4718ec72a3483877d"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stream_digest(name):
    kwargs, count, digest = GOLDEN[name]
    h = hashlib.sha256()
    n = 0
    for g in enumerate_graphs(SearchConfig(**kwargs)):
        h.update((to_graph6(g) + "\n").encode())
        n += 1
    assert (n, h.hexdigest()) == (count, digest)
