"""Keep hypothesis draws independent of which modules are loaded.

Hypothesis 6.155 mixes the literal constants of every loaded module
outside site-packages into its draws.  A derandomized test then draws
other examples, and takes another time, whenever the session imports
another module (``perfbench``'s, say) or a library edit adds or drops a
literal.  With no local constants the examples depend only on the test
itself and the strategies and settings it names.  The hook is private to
hypothesis, so a version without it is left alone.
"""

from hypothesis.internal.conjecture import providers

if hasattr(providers, "_get_local_constants"):
    _NO_CONSTANTS = providers.Constants()
    providers._get_local_constants = lambda: _NO_CONSTANTS
